#include "analysis/wcla.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace axihc {

Cycle service_bound(const AnalysisPlatform& p, BeatCount beats) {
  return p.mem_latency + beats + p.turnaround;
}

Cycle with_refresh(const AnalysisPlatform& p, Cycle span) {
  if (p.refresh_period == 0 || span == 0) return span;
  AXIHC_CHECK_MSG(p.refresh_duration < p.refresh_period,
                  "refresh longer than its period");
  // Fixed-point iteration: refreshes extend the span, which can overlap
  // more refresh intervals. Converges because duration < period.
  Cycle total = span;
  for (int i = 0; i < 64; ++i) {
    const Cycle refreshes = total / p.refresh_period + 1;
    const Cycle next = span + refreshes * p.refresh_duration;
    if (next == total) break;
    total = next;
  }
  return total;
}

BeatCount competitor_unit_beats(const HcAnalysisConfig& cfg) {
  return cfg.nominal_burst != 0 ? cfg.nominal_burst
                                : cfg.max_unequalized_beats;
}

std::uint32_t sub_transaction_count(const HcAnalysisConfig& cfg,
                                    BeatCount beats) {
  AXIHC_CHECK(beats >= 1);
  if (cfg.nominal_burst == 0) return 1;
  return (beats + cfg.nominal_burst - 1) / cfg.nominal_burst;
}

Cycle arbitration_and_service_bound(const AnalysisPlatform& p,
                                    std::uint32_t num_ports,
                                    std::uint64_t competitor_backlog,
                                    std::uint32_t grants_per_round,
                                    std::uint64_t own_units,
                                    BeatCount competitor_beats,
                                    BeatCount own_beats) {
  AXIHC_CHECK(num_ports >= 1);
  // Between two consecutive grants of this port every other port is granted
  // at most grants_per_round units, so each own unit pays at most that many
  // competitor units per competitor. On top, previously granted but
  // unserved competitor units queue ahead of the first own unit (bounded by
  // the per-port outstanding limit), plus one unit of non-preemptive
  // blocking.
  const std::uint64_t n_minus_1 = num_ports - 1;
  const std::uint64_t interference =
      competitor_backlog * n_minus_1 + 1 +
      own_units * grants_per_round * n_minus_1;
  return static_cast<Cycle>(interference) * service_bound(p, competitor_beats) +
         static_cast<Cycle>(own_units) * service_bound(p, own_beats);
}

Cycle reservation_supply_bound(const HcAnalysisConfig& cfg, PortIndex port,
                               std::uint64_t subs) {
  const std::uint32_t budget = cfg.budgets.at(port);
  AXIHC_CHECK_MSG(budget > 0, "reserved port with zero budget never serves");
  const std::uint64_t periods = (subs + budget - 1) / budget;
  return (periods + 1) * cfg.reservation_period;
}

std::uint64_t reservation_demand(const HcAnalysisConfig& cfg,
                                 const AnalysisPlatform& p) {
  const Cycle s_nominal = service_bound(p, competitor_unit_beats(cfg));
  std::uint64_t demand = 0;
  for (const std::uint32_t b : cfg.budgets) {
    demand += static_cast<std::uint64_t>(b) * s_nominal;
  }
  return demand;
}

bool reservation_feasible(const HcAnalysisConfig& cfg,
                          const AnalysisPlatform& p) {
  if (cfg.reservation_period == 0) return false;
  AXIHC_CHECK(cfg.budgets.size() == cfg.num_ports);
  return reservation_demand(cfg, p) <= cfg.reservation_period;
}

namespace {

/// Body of wcrt_read/wcrt_write once the direction-specific pipeline
/// latency is known.
Cycle transaction_bound(const HcAnalysisConfig& cfg,
                        const AnalysisPlatform& p, PortIndex port,
                        BeatCount beats, Cycle pipeline) {
  const std::uint32_t subs = sub_transaction_count(cfg, beats);
  const BeatCount own_unit =
      cfg.nominal_burst != 0 ? std::min(beats, cfg.nominal_burst) : beats;
  Cycle span = arbitration_and_service_bound(
      p, cfg.num_ports, cfg.competitor_backlog, 1, subs,
      competitor_unit_beats(cfg), own_unit);
  if (cfg.reservation_period != 0 && cfg.budgets.at(port) > 0) {
    span += reservation_supply_bound(cfg, port, subs);
  }
  return pipeline + with_refresh(p, span);
}

}  // namespace

Cycle wcrt_read(const HcAnalysisConfig& cfg, const AnalysisPlatform& p,
                PortIndex port, BeatCount beats) {
  return transaction_bound(cfg, p, port, beats, p.ar_latency + p.r_latency);
}

Cycle wcrt_write(const HcAnalysisConfig& cfg, const AnalysisPlatform& p,
                 PortIndex port, BeatCount beats) {
  return transaction_bound(cfg, p, port, beats,
                           p.aw_latency + p.w_latency + p.b_latency);
}

Cycle smartconnect_wcrt_read(const AnalysisPlatform& p,
                             std::uint32_t num_ports,
                             std::uint32_t granularity,
                             BeatCount max_competitor_beats,
                             BeatCount beats) {
  AXIHC_CHECK(granularity >= 1);
  // §V-B: with variable granularity g, a request can be interfered by up to
  // g x (N-1) competitor transactions per round, each of unbounded
  // (unequalized) burst size: the round-robin term with g grants per round,
  // no backlog and the request as its one own unit.
  return p.ar_latency + p.r_latency +
         with_refresh(p, arbitration_and_service_bound(
                             p, num_ports, 0, granularity, 1,
                             max_competitor_beats, beats));
}

}  // namespace axihc
