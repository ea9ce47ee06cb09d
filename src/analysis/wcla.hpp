// Worst-case latency analysis (WCLA) for the AXI HyperConnect.
//
// The paper argues (§V-B) that the HyperConnect's slim, open architecture
// makes it "prone to worst-case timing analysis, which is not addressed
// here due to lack of space". This module provides that analysis, derived
// from the implemented architecture, and the test suite validates every
// bound against the cycle-accurate simulation (measured max <= bound).
//
// Model assumptions (matching the simulator):
//  * fixed-granularity (1) round-robin at the EXBAR, non-preemptive
//    transaction service at an in-order memory controller;
//  * burst equalization caps every competing sub-transaction at the nominal
//    burst length;
//  * per-port reservation (budget B_i per period T) when enabled;
//  * constant per-channel pipeline latencies (Fig. 3(a)).
//
// Each part of the argument is stated once: the round-robin interference
// and service term, the reservation supply term, and the transaction bound
// composed from them. The job bounds (job_analysis.hpp) and the
// SmartConnect comparison bound are composed from the same two terms.
//
// Bounds are *sound* (never below the true worst case under the model) and
// intentionally tight enough to be useful: the validation suite also checks
// they are within a small factor of the observed worst case.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace axihc {

/// Memory-side timing of the analysed platform.
struct AnalysisPlatform {
  /// Worst-case first-word latency of one transaction (row miss).
  Cycle mem_latency = 24;
  /// Dead cycles between transactions at the controller.
  Cycle turnaround = 1;
  /// DRAM refresh (0 = disabled): every refresh_period cycles the device
  /// blocks for refresh_duration cycles. The bounds add one refresh
  /// blocking term per started refresh interval of the busy span.
  Cycle refresh_period = 0;
  Cycle refresh_duration = 0;
  /// Interconnect pipeline latencies per channel (defaults: HyperConnect).
  Cycle ar_latency = 4;
  Cycle r_latency = 2;
  Cycle aw_latency = 4;
  Cycle w_latency = 2;
  Cycle b_latency = 2;
};

/// Interconnect-side parameters of the analysed HyperConnect instance.
struct HcAnalysisConfig {
  std::uint32_t num_ports = 2;
  /// Nominal burst (beats); competing sub-transactions never exceed it.
  /// 0 means equalization off — competitors may issue up to
  /// `max_unequalized_beats`.
  BeatCount nominal_burst = 16;
  /// Largest burst a competitor can issue when equalization is off.
  BeatCount max_unequalized_beats = kMaxAxi4BurstBeats;
  /// Reservation period T (0 = reservation disabled) and per-port budgets.
  Cycle reservation_period = 0;
  std::vector<std::uint32_t> budgets{};
  /// Sub-transactions each competitor can already have granted but unserved
  /// when the analysed request arrives — the per-port outstanding limit
  /// enforced by the TS (HyperConnectConfig::max_outstanding).
  std::uint32_t competitor_backlog = 4;
};

/// Worst-case memory service time of one transaction of `beats` beats
/// (first-word latency + streaming + turnaround), without refresh.
[[nodiscard]] Cycle service_bound(const AnalysisPlatform& p, BeatCount beats);

/// Inflates a busy span by the worst-case DRAM refresh interference it can
/// suffer: one tRFC per started tREFI interval (fixed point, since refresh
/// lengthens the span which can admit further refreshes).
[[nodiscard]] Cycle with_refresh(const AnalysisPlatform& p, Cycle span);

/// Worst-case size (beats) of one competing arbitration unit.
[[nodiscard]] BeatCount competitor_unit_beats(const HcAnalysisConfig& cfg);

/// Number of sub-transactions the TS creates for a `beats`-beat request.
[[nodiscard]] std::uint32_t sub_transaction_count(const HcAnalysisConfig& cfg,
                                                  BeatCount beats);

/// Interference and own service, the one round-robin term every bound is
/// built from: the time from a request reaching the arbiter to its last
/// `own_units` arbitration units fully served at the memory controller,
/// when each of the other `num_ports - 1` ports has `competitor_backlog`
/// units granted but unserved ahead of it and is granted at most
/// `grants_per_round` units of `competitor_beats` beats between two grants
/// of the analysed port, whose units are `own_beats` beats long. One
/// further competitor unit pays for non-preemptive blocking.
[[nodiscard]] Cycle arbitration_and_service_bound(
    const AnalysisPlatform& p, std::uint32_t num_ports,
    std::uint64_t competitor_backlog, std::uint32_t grants_per_round,
    std::uint64_t own_units, BeatCount competitor_beats, BeatCount own_beats);

/// Reservation supply: with budget B per period T (cfg's plan at `port`,
/// B > 0), `subs` sub-transactions are granted within ceil(subs/B) periods
/// plus one period of initial phasing (arriving right after the port's
/// budget ran out).
[[nodiscard]] Cycle reservation_supply_bound(const HcAnalysisConfig& cfg,
                                             PortIndex port,
                                             std::uint64_t subs);

/// Worst-case response time of a READ of `beats` beats issued by `port`,
/// from the HA asserting ARVALID to the final R beat delivered, with every
/// other port continuously backlogged: the number `--prove` certifies and
/// the runtime latency auditor enforces per transaction. Without
/// reservation, or for a port with no budget, it is the round-robin term.
/// With a budget the port's reads and writes drain that one budget
/// concurrently and competitors are confined to theirs only when the plan
/// is feasible, so the bound adds the reservation supply term to the full
/// round-robin term, for feasible and overcommitted plans alike.
[[nodiscard]] Cycle wcrt_read(const HcAnalysisConfig& cfg,
                              const AnalysisPlatform& p, PortIndex port,
                              BeatCount beats);

/// Worst-case response time of a WRITE (AWVALID to B response).
[[nodiscard]] Cycle wcrt_write(const HcAnalysisConfig& cfg,
                               const AnalysisPlatform& p, PortIndex port,
                               BeatCount beats);

/// The analogous bound for the SmartConnect baseline: variable round-robin
/// granularity `g` (worst-case interference g×(N−1) transactions per §V-B)
/// and no equalization (competitor bursts up to `max_competitor_beats`).
[[nodiscard]] Cycle smartconnect_wcrt_read(const AnalysisPlatform& p,
                                           std::uint32_t num_ports,
                                           std::uint32_t granularity,
                                           BeatCount max_competitor_beats,
                                           BeatCount beats);

/// Worst-case cycles needed to serve every port's full budget once:
/// sum_i B_i * S(nominal). The demand side of the feasibility check; also
/// embedded in prove certificates (the reservation check's `demand`).
[[nodiscard]] std::uint64_t reservation_demand(const HcAnalysisConfig& cfg,
                                               const AnalysisPlatform& p);

/// Schedulability-style check for a reservation plan: the budgets of all
/// ports must be servable within one period at worst-case service times
/// (reservation_demand(cfg, p) <= T). Returns true if the plan is feasible.
[[nodiscard]] bool reservation_feasible(const HcAnalysisConfig& cfg,
                                        const AnalysisPlatform& p);

}  // namespace axihc
