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

namespace {

/// Interference + own-service core shared by the read and write bounds:
/// time from the request reaching the EXBAR to its last sub-transaction
/// fully served at the memory controller.
Cycle arbitration_and_service_bound(const HcAnalysisConfig& cfg,
                                    const AnalysisPlatform& p,
                                    BeatCount beats) {
  const std::uint32_t subs = sub_transaction_count(cfg, beats);
  const BeatCount own_unit =
      cfg.nominal_burst != 0 ? std::min(beats, cfg.nominal_burst) : beats;
  const Cycle s_comp = service_bound(p, competitor_unit_beats(cfg));
  const Cycle s_own = service_bound(p, own_unit);

  // Fixed-granularity round-robin: between two consecutive grants of this
  // port, every other port is granted at most once, so each own sub pays at
  // most (N-1) competitor units. On top, previously granted but unserved
  // competitor units queue ahead of the first own sub (bounded by the
  // per-port outstanding limit), plus one unit of non-preemptive blocking.
  const std::uint64_t n_minus_1 = cfg.num_ports - 1;
  const std::uint64_t backlog =
      static_cast<std::uint64_t>(cfg.competitor_backlog) * n_minus_1;
  const std::uint64_t interference = backlog + 1 +  // blocking
                                     static_cast<std::uint64_t>(subs) *
                                         n_minus_1;
  return static_cast<Cycle>(interference) * s_comp +
         static_cast<Cycle>(subs) * s_own;
}

/// Reservation supply bound: with budget B per period T and a feasible
/// plan, `subs` sub-transactions complete within ceil(subs/B) periods plus
/// one period of initial phasing (arriving right after budget exhaustion).
Cycle reservation_supply_bound(const HcAnalysisConfig& cfg,
                               PortIndex port, std::uint32_t subs) {
  const std::uint32_t budget = cfg.budgets.at(port);
  AXIHC_CHECK_MSG(budget > 0, "reserved port with zero budget never serves");
  const std::uint64_t periods = (subs + budget - 1) / budget;
  return (periods + 1) * cfg.reservation_period;
}

}  // namespace

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

/// Shared body of wcrt_read/wcrt_write once the direction-specific pipeline
/// latency is known.
Cycle wcrt_core(const HcAnalysisConfig& cfg, const AnalysisPlatform& p,
                PortIndex port, BeatCount beats, Cycle pipeline) {
  AXIHC_CHECK(cfg.num_ports >= 1);
  if (cfg.reservation_period != 0) {
    const std::uint32_t subs = sub_transaction_count(cfg, beats);
    if (reservation_feasible(cfg, p)) {
      // With reservation active the request may arrive with the port's OWN
      // budget exhausted (worst-case phasing), so the round-robin bound does
      // not apply; the supply bound is the sound one.
      return pipeline +
             with_refresh(p, reservation_supply_bound(cfg, port, subs) +
                                 service_bound(p, competitor_unit_beats(cfg)));
    }
    if (cfg.budgets.at(port) > 0) {
      // Infeasible plan: a period cannot serve every port's budget, so the
      // round-robin bound alone is UNSOUND for a throttled port (its own
      // budget can gate it past any arbitration-only bound). Compose the
      // supply bound (budget phasing) with the full arbitration-and-service
      // term (competitors are no longer confined to their budgets either).
      return pipeline +
             with_refresh(p, reservation_supply_bound(cfg, port, subs) +
                                 arbitration_and_service_bound(cfg, p, beats));
    }
    // Zero budget under reservation: the port is never served; no finite
    // bound is meaningful, fall through to round-robin for continuity.
  }
  return pipeline +
         with_refresh(p, arbitration_and_service_bound(cfg, p, beats));
}

/// Audit-bound body: reservation on always takes the composite
/// supply + arbitration form (see header for why the live auditor cannot
/// use the idle-own-port wcrt bound directly).
Cycle audit_wcrt_core(const HcAnalysisConfig& cfg, const AnalysisPlatform& p,
                      PortIndex port, BeatCount beats, Cycle pipeline) {
  AXIHC_CHECK(cfg.num_ports >= 1);
  if (cfg.reservation_period != 0 && cfg.budgets.at(port) > 0) {
    const std::uint32_t subs = sub_transaction_count(cfg, beats);
    return pipeline +
           with_refresh(p, reservation_supply_bound(cfg, port, subs) +
                               arbitration_and_service_bound(cfg, p, beats));
  }
  return pipeline +
         with_refresh(p, arbitration_and_service_bound(cfg, p, beats));
}

}  // namespace

Cycle wcrt_read(const HcAnalysisConfig& cfg, const AnalysisPlatform& p,
                PortIndex port, BeatCount beats) {
  return wcrt_core(cfg, p, port, beats, p.ar_latency + p.r_latency);
}

Cycle wcrt_write(const HcAnalysisConfig& cfg, const AnalysisPlatform& p,
                 PortIndex port, BeatCount beats) {
  return wcrt_core(cfg, p, port, beats,
                   p.aw_latency + p.w_latency + p.b_latency);
}

Cycle audit_wcrt_read(const HcAnalysisConfig& cfg, const AnalysisPlatform& p,
                      PortIndex port, BeatCount beats) {
  return audit_wcrt_core(cfg, p, port, beats, p.ar_latency + p.r_latency);
}

Cycle audit_wcrt_write(const HcAnalysisConfig& cfg, const AnalysisPlatform& p,
                       PortIndex port, BeatCount beats) {
  return audit_wcrt_core(cfg, p, port, beats,
                         p.aw_latency + p.w_latency + p.b_latency);
}

Cycle smartconnect_wcrt_read(const AnalysisPlatform& p,
                             std::uint32_t num_ports,
                             std::uint32_t granularity,
                             BeatCount max_competitor_beats,
                             BeatCount beats) {
  AXIHC_CHECK(num_ports >= 1);
  AXIHC_CHECK(granularity >= 1);
  // §V-B: with variable granularity g, a request can be interfered by up to
  // g x (N-1) competitor transactions per round, each of unbounded
  // (unequalized) burst size, plus one unit of non-preemptive blocking.
  const Cycle s_comp = service_bound(p, max_competitor_beats);
  const std::uint64_t interference =
      static_cast<std::uint64_t>(granularity) * (num_ports - 1) + 1;
  return p.ar_latency + p.r_latency +
         with_refresh(p, static_cast<Cycle>(interference) * s_comp +
                             service_bound(p, beats));
}

}  // namespace axihc
