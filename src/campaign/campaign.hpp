// Monte Carlo fault-campaign runner (`axihc --campaign <spec.ini>`).
//
// A campaign file is a normal experiment description (the base system:
// [system], [hyperconnect], [haN], [recovery], ...) plus one [campaign]
// section describing the fault space to sweep:
//
//   [campaign]
//   runs = 100
//   seed = 1                  ; master seed; run r derives seed_r = f(seed,r)
//   cycles = 0                ; per-run horizon; 0 = [system] cycles
//   min_faults = 1            ; faults injected per run, uniform in
//   max_faults = 3            ;   [min_faults, max_faults]
//   kinds = stall_w drop_w    ; candidate kinds; default: all injector kinds
//   ports = 0 1               ; candidate ports; default: every [haN] port
//   start_min = 2000          ; activation-window start, uniform range
//   start_max = 20000
//   duration_min = 200        ; window length, uniform range (>= 1: the
//   duration_max = 2000       ;   campaign never injects permanent faults)
//   probability = 1.0         ; per-event probability of every spec
//
// The base config must not contain [faultN] sections — the campaign owns
// the fault description (each run replaces it wholesale), and must contain
// [recovery]: survivability is measured through the recovery FSM.
//
// Determinism: everything derives from the master seed via splitmix64 — no
// wall clock, no std:: distributions (their mappings vary across standard
// libraries). Two invocations of the same campaign produce byte-identical
// JSON-lines output at any worker-thread count; any row is replayable as a
// single `axihc` run (campaign_replay_ini reconstructs the exact config,
// including the per-run fault_seed).
//
// Injector-topology pinning: every candidate port carries a never-active
// sentinel spec (start = 2^64-1, probability 0) in the baseline AND every
// run, so all runs — and the fault-free baseline — elaborate the identical
// component graph (same injector latencies, same digest composition). The
// baseline's state digest and per-HA byte counts anchor the survivability
// metrics (bandwidth retained = run bytes / baseline bytes).
//
// Output is JSON lines: one header object (campaign metadata + baseline
// digest), then one object per run in run order with the generated fault
// list, recovery counters (recoveries / escalations / demotions / mean
// time-to-recovery), per-port final FSM states, the budget-conservation
// verdict, per-HA bandwidth retained, and the final state digest.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "config/ini.hpp"
#include "fault/scenario.hpp"

namespace axihc {

/// Parsed [campaign] section with resolved defaults.
struct CampaignSpec {
  std::uint64_t runs = 0;
  std::uint64_t seed = 0;
  Cycle cycles = 0;  ///< resolved per-run horizon (never 0 after parsing)
  std::uint32_t min_faults = 0;
  std::uint32_t max_faults = 0;
  std::vector<FaultKind> kinds;
  std::vector<PortIndex> ports;
  Cycle start_min = 0;
  Cycle start_max = 0;
  Cycle duration_min = 0;
  Cycle duration_max = 0;
  double probability = 0.0;
};

/// Parses + validates the [campaign] section against the base system in the
/// same file (throws ModelError on a missing section, a missing [recovery],
/// stray [faultN] sections, empty kind/port sets, inverted ranges).
[[nodiscard]] CampaignSpec parse_campaign_spec(const IniFile& ini);

/// The scenario run `run_index` executes: seed_r plus min..max generated
/// fault specs, followed by one never-active sentinel per candidate port.
/// Pure function of (spec, run_index) — the replay path and the runner call
/// the same code.
[[nodiscard]] FaultScenario campaign_scenario(const CampaignSpec& spec,
                                              std::uint64_t run_index);

/// Campaign results: the JSON-lines output plus the aggregate verdicts the
/// CLI turns into an exit code.
struct CampaignOutput {
  /// Header line + one line per run, in run order.
  std::vector<std::string> lines;
  std::uint64_t non_converged = 0;  ///< runs ending mid-episode
  std::uint64_t conservation_violations = 0;
  std::uint64_t total_recoveries = 0;
  std::uint64_t total_escalations = 0;
  /// WCLA bound violations across all runs' audited transactions
  /// (informational: injected interference like delay_w legitimately
  /// exceeds the fault-free bound, so this does not fail the campaign).
  std::uint64_t total_bound_violations = 0;

  /// Every run converged and the budget-conservation invariant held.
  [[nodiscard]] bool ok() const {
    return non_converged == 0 && conservation_violations == 0;
  }
};

/// Runs the whole campaign (baseline + `runs` randomized runs, fanned out
/// by run_parallel_jobs; AXIHC_BENCH_THREADS overrides the width).
[[nodiscard]] CampaignOutput run_campaign(const IniFile& ini);

/// Reconstructs a standalone axihc config that reproduces run `run_index`
/// exactly: the base sections (minus [campaign]) with the run's fault_seed,
/// plus one [faultN] section per generated spec and sentinel.
[[nodiscard]] std::string campaign_replay_ini(const IniFile& ini,
                                              std::uint64_t run_index);

}  // namespace axihc
