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
// Checks (ids as reported), each a fact about the system as elaborated:
//   efifo-backlog      per-port worst-case eFIFO occupancy from HA arrival
//                      curves (burst/outstanding/gap of each HA model,
//                      equalization caps) against the reservation /
//                      round-robin service curve, checked against the
//                      configured data_depth/addr_depth. Request-side
//                      demand above the AR/AW depth is flagged as
//                      back-pressure (the eFIFO "always ready" premise is
//                      then not certified).
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
//   address-map        HA job windows against each other and the decode
//                      map: windows of two HAs sharing bytes (an isolation
//                      smell) and windows outside every decode entry
//                      (accesses DECERR). Reported as facts; never
//                      disproves, since the simulated system is well
//                      defined either way.
//
// Verdicts: kDisproved on a hard refutation (a zero-budget port under an
// active reservation starves); kUnmodeled when a check has no model for the
// configuration; kProven otherwise. Soundness contract: on a kProven
// system, every certified bound dominates anything a simulation of the
// same configuration can observe — the test suite cross-validates this
// over the full pareto1k grid (tests/test_prove.cpp).
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

/// The arrival model of one attached hardware accelerator, extracted from
/// its configuration (ConfiguredSystem::add_ha records one per [haN]).
struct ProveHaModel {
  std::string name;  // config section, e.g. "ha0"
  std::string type;  // dma | traffic | dnn
  /// Burst length (beats) of the requests this HA issues.
  BeatCount burst_beats = 16;
  /// HA-side in-flight limit (requests issued but not completed).
  std::uint32_t max_outstanding = 8;
  /// Idle cycles between consecutive issues (traffic generators; 0 =
  /// greedy). The leaky-bucket arrival rate is 1 request per gap+1 cycles.
  Cycle gap_cycles = 0;
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
  /// Port-side eFIFO queue depths (AxiLinkConfig of the port links).
  std::size_t ar_depth = 4;
  std::size_t aw_depth = 4;
  std::size_t w_depth = 32;
  std::size_t r_depth = 32;
  std::size_t b_depth = 4;
  bool out_of_order = false;
  bool in_order_memory = true;
  /// Memory decode map; empty when every address decodes.
  std::vector<AddrRange> decode{};
  /// Attached HAs, index = port. May be shorter than num_ports (idle
  /// ports contribute no arrivals and cannot starve).
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

/// Certified worst-case eFIFO occupancy of one port, per channel queue.
/// Each entry is min(arrival-side demand, configured depth), so the total
/// is sound against the observed peak of Efifo::level() by construction of
/// the demand bounds (flow control: a queued element is an in-flight
/// request/beat, capped by the HA's outstanding limit, tightened by the
/// arrival/service-curve backlog when the reservation supply outpaces the
/// arrival rate).
struct ProveBacklogBound {
  std::uint64_t ar = 0;
  std::uint64_t aw = 0;
  std::uint64_t w = 0;
  std::uint64_t r = 0;
  std::uint64_t b = 0;
  std::uint64_t total = 0;
  /// Request-side demand exceeded the AR/AW depth: the queue itself stays
  /// bounded by its depth, but the "always ready" eFIFO premise is not
  /// certified (the HA will see back-pressure).
  bool backpressure = false;
};

struct ProveReport {
  std::vector<ProveCheck> checks;
  /// Per attached port (empty when the backlog check is unmodeled).
  std::vector<ProveBacklogBound> backlog;
  /// Per attached port, accept-to-complete WCLA bounds at the HA's burst
  /// length (0 for a starved port; empty when wcla-bound is unmodeled).
  std::vector<Cycle> wcrt_read;
  std::vector<Cycle> wcrt_write;
  bool reservation_on = false;
  bool reservation_feasible = true;
  std::uint64_t reservation_demand = 0;  // cycles needed per period

  /// Disproved if any check is disproved; else unmodeled if any check is
  /// unmodeled; else proven.
  [[nodiscard]] ProveVerdict verdict() const;
  [[nodiscard]] bool disproved() const {
    return verdict() == ProveVerdict::kDisproved;
  }
  /// Max certified per-port backlog total, or -1 when unmodeled.
  [[nodiscard]] std::int64_t static_backlog_bound() const;
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
