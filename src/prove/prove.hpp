// axihc-prove — static predictability certification of an elaborated
// system, the one static checker between the config builder and the
// cycle-accurate simulation (see docs/STATIC_ANALYSIS.md).
//
// The paper's central claim is that the HyperConnect's slim architecture is
// "prone to worst-case timing analysis". src/analysis/wcla derives the
// bounds and the PR 7 auditor checks them *dynamically*, transaction by
// transaction. This module closes the remaining gap: with ZERO simulated
// cycles it either proves a configuration's predictability obligations or
// refutes them, and emits a machine-readable certificate either way.
//
// Checks (ids as reported), each a property the configuration decides, so
// each can come out either way:
//   reservation        reservation-plan analysis: per-port
//                      starvation-freedom (a port with a zero budget under
//                      an active reservation is never served — disproved),
//                      feasibility (sum of budget x worst-case service vs
//                      the recharge period; overcommitted plans keep sound
//                      latency bounds but lose the supply-bound form, so
//                      they warn instead of disprove).
//   wcla-bound         boundedness classification: configurations the WCLA
//                      model covers get per-port worst-case latency bounds
//                      (analysis::wcrt_*); SmartConnect,
//                      out-of-order mode and FR-FCFS memory are flagged
//                      unmodeled, exactly the configurations the runtime
//                      latency auditor excludes.
//   address-map        HA job windows against the decode map and each
//                      other: a window no single decode entry holds is
//                      disproved (its accesses complete with DECERR, so the
//                      HA's jobs cannot succeed); windows of two HAs
//                      sharing bytes are a fact, since producer/consumer
//                      sharing is legitimate.
//
// Verdicts: kDisproved on a hard refutation (a zero-budget port under an
// active reservation starves; a job window is unmapped); kUnmodeled when a
// check has no model for the configuration; kProven otherwise. Soundness
// contract: on a kProven system, every certified latency bound dominates
// what a simulation of the same configuration observes — the runtime
// auditor counts zero bound violations over every shipped sweep grid
// (tests/test_prove.cpp).
//
// Wiring: `axihc --prove/--prove-json` (tools/axihc.cpp),
// ConfiguredSystem::prove() assembles the ProveInput from an elaborated
// INI system, and the sweep runner screens every cell statically before
// spending simulation time on it (src/sweep/runner.cpp). Inputs that are
// inconsistent rather than unpredictable (overlapping decode entries, a
// probation window shorter than the watchdog poll) never reach the
// prover: the builder rejects them. Nor does it restate what the model
// guarantees by construction: an HA ID that would alias the port tag in
// out-of-order mode fails the TransactionSupervisor's run-time check.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "analysis/wcla.hpp"
#include "common/types.hpp"

namespace axihc {

enum class ProveVerdict : std::uint8_t { kProven, kDisproved, kUnmodeled };

[[nodiscard]] const char* to_string(ProveVerdict verdict);

/// A named address window an HA's jobs touch (a DMA buffer, a traffic
/// region), e.g. "ha0 read buffer".
struct ProveWindow {
  std::string name;
  AddrRange range;
};

/// The traffic model of one attached hardware accelerator, extracted from
/// its configuration (ConfiguredSystem::add_ha records one per [haN]).
struct ProveHaModel {
  std::string name;  // config section, e.g. "ha0"
  /// Burst length (beats) of the requests this HA issues.
  BeatCount burst_beats = 16;
  bool reads = true;
  bool writes = false;
  /// The address windows its jobs touch (the address-map check).
  std::vector<ProveWindow> windows{};
};

/// Everything the prover needs about an elaborated system. Assembled by
/// ConfiguredSystem::prove_input(); tests may hand-build inputs the INI
/// surface cannot express (e.g. a window split across decode entries).
struct ProveInput {
  bool hyperconnect = true;  // false: SmartConnect baseline (unmodeled)
  std::uint32_t num_ports = 2;
  /// WCLA-side view (nominal burst, reservation plan, outstanding caps).
  HcAnalysisConfig analysis{};
  AnalysisPlatform platform{};
  bool out_of_order = false;
  bool in_order_memory = true;
  /// Memory decode map; empty when every address decodes.
  std::vector<AddrRange> decode{};
  /// Attached HAs, index = port. May be shorter than num_ports (idle
  /// ports carry no traffic and cannot starve).
  std::vector<ProveHaModel> has{};
};

/// One check's verdict with its machine-readable evidence. Fact values are
/// pre-rendered JSON (numbers, strings with quotes, booleans) so the
/// certificate serializer can embed them verbatim.
struct ProveCheck {
  std::string id;
  ProveVerdict verdict = ProveVerdict::kProven;
  std::string detail;
  std::vector<std::pair<std::string, std::string>> facts;
};

struct ProveReport {
  std::vector<ProveCheck> checks;
  /// Per attached port, accept-to-complete WCLA bounds at the HA's burst
  /// length (0 for a starved port; empty when wcla-bound is unmodeled).
  std::vector<Cycle> wcrt_read;
  std::vector<Cycle> wcrt_write;

  /// Disproved if any check is disproved; else unmodeled if any check is
  /// unmodeled; else proven.
  [[nodiscard]] ProveVerdict verdict() const;
  [[nodiscard]] bool disproved() const {
    return verdict() == ProveVerdict::kDisproved;
  }
  [[nodiscard]] const ProveCheck* check(const std::string& id) const;

  /// The machine-readable certificate (one JSON object).
  [[nodiscard]] std::string certificate_json() const;
  /// FNV-1a digest of certificate_json(). Sweep cache entries store it
  /// under the (config, code-version) key, so certificates invalidate with
  /// the code-version digest like every other cached measurement.
  [[nodiscard]] std::uint64_t certificate_digest() const;
  /// Human-readable listing, one check per line plus the verdict summary.
  void write_text(std::ostream& os) const;
};

/// Runs every check. Pure function of the input: no simulation, no global
/// state, deterministic across threads/backends by construction.
[[nodiscard]] ProveReport prove(const ProveInput& in);

/// Why the WCLA model has no latency bound for `in`, one reason per
/// excluded feature; empty when the configuration is modeled. The one
/// decision behind the wcla-bound check and the runtime auditor's bound
/// model.
[[nodiscard]] std::vector<std::string> wcla_exclusions(const ProveInput& in);

}  // namespace axihc
