#include "analysis/job_analysis.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace axihc {

std::uint64_t JobProfile::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& ph : phases) total += ph.read_bytes + ph.write_bytes;
  return total;
}

JobProfile profile_of(const DnnConfig& cfg) {
  JobProfile job;
  job.ha_burst_beats = cfg.burst_beats;
  for (const auto& layer : cfg.layers) {
    // DnnAccelerator phase structure: load (reads), compute, store (writes).
    // Load and compute are sequential within a layer, so they are separate
    // phases; the store is a third.
    JobPhase load;
    load.read_bytes = layer.weight_bytes + layer.ifmap_bytes;
    JobPhase compute;
    compute.compute_cycles =
        (layer.macs + cfg.macs_per_cycle - 1) / cfg.macs_per_cycle;
    JobPhase store;
    store.write_bytes = layer.ofmap_bytes;
    job.phases.push_back(load);
    job.phases.push_back(compute);
    if (layer.ofmap_bytes > 0) job.phases.push_back(store);
  }
  return job;
}

JobProfile profile_of(const DmaConfig& cfg) {
  JobProfile job;
  job.ha_burst_beats = cfg.burst_beats;
  JobPhase move;
  if (cfg.mode != DmaMode::kWrite) move.read_bytes = cfg.bytes_per_job;
  if (cfg.mode != DmaMode::kRead) move.write_bytes = cfg.bytes_per_job;
  job.phases.push_back(move);
  return job;
}

std::uint64_t subs_for_bytes(const HcAnalysisConfig& cfg,
                             BeatCount ha_burst_beats, std::uint64_t bytes) {
  if (bytes == 0) return 0;
  const BeatCount unit = cfg.nominal_burst != 0
                             ? std::min(ha_burst_beats, cfg.nominal_burst)
                             : ha_burst_beats;
  const std::uint64_t unit_bytes = std::uint64_t{unit} * 8;
  return (bytes + unit_bytes - 1) / unit_bytes;
}

namespace {

/// Worst-case time to retire `subs` sub-transactions of one port, excluding
/// per-transaction pipeline constants (those are added once per phase).
Cycle transfer_bound(const HcAnalysisConfig& cfg, const AnalysisPlatform& p,
                     PortIndex port, std::uint64_t subs) {
  if (subs == 0) return 0;
  // Feasibility guarantees each window's budgets are servable within the
  // window, so the supply term alone bounds the port.
  if (reservation_feasible(cfg, p)) {
    return with_refresh(p, reservation_supply_bound(cfg, port, subs));
  }
  const BeatCount unit = competitor_unit_beats(cfg);
  Cycle span = arbitration_and_service_bound(
      p, cfg.num_ports, cfg.competitor_backlog, 1, subs, unit, unit);
  // Overcommitted plan: the port's own budget can gate it past any
  // arbitration-only bound, and competitors are no longer confined to
  // their budgets, so both terms apply.
  if (cfg.reservation_period != 0 && cfg.budgets.at(port) > 0) {
    span += reservation_supply_bound(cfg, port, subs);
  }
  return with_refresh(p, span);
}

}  // namespace

Cycle job_wcrt(const HcAnalysisConfig& cfg, const AnalysisPlatform& p,
               PortIndex port, const JobProfile& job) {
  Cycle total = 0;
  for (const auto& phase : job.phases) {
    const std::uint64_t read_subs =
        subs_for_bytes(cfg, job.ha_burst_beats, phase.read_bytes);
    const std::uint64_t write_subs =
        subs_for_bytes(cfg, job.ha_burst_beats, phase.write_bytes);
    // Reads and writes of one phase share the port's budget/arbitration
    // slots in the worst case: bound their sum sequentially (sound; they
    // may overlap in the best case).
    total += transfer_bound(cfg, p, port, read_subs + write_subs);
    if (read_subs > 0) total += p.ar_latency + p.r_latency;
    if (write_subs > 0) total += p.aw_latency + p.w_latency + p.b_latency;
    total += phase.compute_cycles;
  }
  return total;
}

std::uint32_t min_budget_for_deadline(HcAnalysisConfig cfg,
                                      const AnalysisPlatform& p,
                                      PortIndex port, const JobProfile& job,
                                      Cycle deadline) {
  AXIHC_CHECK_MSG(cfg.reservation_period != 0,
                  "budget sizing needs a reservation period");
  AXIHC_CHECK(port < cfg.budgets.size());
  // Monotone in the budget: binary search the smallest feasible value.
  const Cycle s_nominal = service_bound(p, competitor_unit_beats(cfg));
  const auto max_budget =
      static_cast<std::uint32_t>(cfg.reservation_period / s_nominal);
  std::uint32_t lo = 1;
  std::uint32_t hi = max_budget;
  std::uint32_t best = 0;
  while (lo <= hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    cfg.budgets[port] = mid;
    const bool ok = reservation_feasible(cfg, p) &&
                    job_wcrt(cfg, p, port, job) <= deadline;
    if (ok) {
      best = mid;
      hi = mid - 1;
    } else {
      lo = mid + 1;
    }
  }
  return best;
}

}  // namespace axihc
