// Worst-case latency analysis validation: every analytical bound must
// dominate the observed worst case in adversarial simulations (soundness),
// without being uselessly loose (tightness factor).
#include "analysis/wcla.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "ha/traffic_gen.hpp"
#include "hyperconnect/hyperconnect.hpp"
#include "interconnect/smartconnect.hpp"
#include "mem/backing_store.hpp"
#include "mem/memory_controller.hpp"
#include "platform/platform.hpp"
#include "sim/simulator.hpp"

namespace axihc {
namespace {

TEST(Wcla, ServiceBound) {
  AnalysisPlatform p;
  p.mem_latency = 24;
  p.turnaround = 1;
  EXPECT_EQ(service_bound(p, 16), 41u);
  EXPECT_EQ(service_bound(p, 1), 26u);
}

TEST(Wcla, SubTransactionCount) {
  HcAnalysisConfig cfg;
  cfg.nominal_burst = 16;
  EXPECT_EQ(sub_transaction_count(cfg, 1), 1u);
  EXPECT_EQ(sub_transaction_count(cfg, 16), 1u);
  EXPECT_EQ(sub_transaction_count(cfg, 17), 2u);
  EXPECT_EQ(sub_transaction_count(cfg, 256), 16u);
  cfg.nominal_burst = 0;
  EXPECT_EQ(sub_transaction_count(cfg, 256), 1u);
}

TEST(Wcla, EqualizationShrinksTheBound) {
  AnalysisPlatform p;
  HcAnalysisConfig equalized;
  equalized.num_ports = 2;
  equalized.nominal_burst = 16;
  HcAnalysisConfig raw = equalized;
  raw.nominal_burst = 0;  // competitors may issue 256-beat bursts
  EXPECT_LT(wcrt_read(equalized, p, 0, 16), wcrt_read(raw, p, 0, 16));
}

TEST(Wcla, SmartConnectBoundGrowsWithGranularity) {
  AnalysisPlatform sc;
  sc.ar_latency = 12;
  sc.r_latency = 11;
  Cycle prev = 0;
  for (std::uint32_t g : {1u, 2u, 4u, 8u}) {
    const Cycle bound = smartconnect_wcrt_read(sc, 2, g, 256, 16);
    EXPECT_GT(bound, prev);
    prev = bound;
  }
}

TEST(Wcla, HyperConnectBoundBelowSmartConnectBound) {
  // The paper's predictability argument, quantified: equalization + fixed
  // granularity gives a much smaller worst case than variable-granularity
  // RR over unequalized bursts.
  AnalysisPlatform hc_p;
  HcAnalysisConfig cfg;
  cfg.num_ports = 2;
  cfg.nominal_burst = 16;
  cfg.competitor_backlog = 4;
  AnalysisPlatform sc_p;
  sc_p.ar_latency = 12;
  sc_p.r_latency = 11;
  EXPECT_LT(wcrt_read(cfg, hc_p, 0, 16),
            smartconnect_wcrt_read(sc_p, 2, 4, 256, 16));
}

TEST(Wcla, ReservationFeasibility) {
  AnalysisPlatform p;
  p.mem_latency = 24;
  p.turnaround = 1;  // S(16) = 41
  HcAnalysisConfig cfg;
  cfg.num_ports = 2;
  cfg.nominal_burst = 16;
  cfg.reservation_period = 2000;
  cfg.budgets = {24, 24};  // 48 * 41 = 1968 <= 2000
  EXPECT_TRUE(reservation_feasible(cfg, p));
  cfg.budgets = {30, 30};  // 60 * 41 = 2460 > 2000
  EXPECT_FALSE(reservation_feasible(cfg, p));
}

/// Measures the observed worst-case read latency of a sparse victim on
/// port 0 issuing `victim_beats`-beat reads against greedy adversaries on
/// every other port. The memory is the default controller, whose analysis
/// view is analysis_platform(MemoryControllerConfig{}).
Cycle observed_worst_read(std::unique_ptr<Interconnect> icn,
                          BeatCount victim_beats, BeatCount adversary_beats) {
  Simulator sim;
  BackingStore store;
  MemoryController mem("ddr", icn->master_link(), store, {});
  icn->register_with(sim);
  sim.add(mem);

  TrafficConfig vcfg;
  vcfg.direction = TrafficDirection::kRead;
  vcfg.burst_beats = victim_beats;
  vcfg.gap_cycles = 97;  // sparse, misaligned with periods
  vcfg.max_outstanding = 1;
  vcfg.base = 0x4000'0000;
  TrafficGenerator victim("victim", icn->port_link(0), vcfg);
  sim.add(victim);

  std::vector<std::unique_ptr<TrafficGenerator>> adversaries;
  for (PortIndex pt = 1; pt < icn->num_ports(); ++pt) {
    TrafficConfig a;
    a.direction = TrafficDirection::kRead;
    a.burst_beats = adversary_beats;
    a.max_outstanding = 4;
    a.base = 0x6000'0000 + (static_cast<Addr>(pt) << 24);
    adversaries.push_back(std::make_unique<TrafficGenerator>(
        "adv" + std::to_string(pt), icn->port_link(pt), a));
    sim.add(*adversaries.back());
  }
  sim.reset();
  sim.run(300000);
  return victim.stats().read_latency.count() > 0
             ? victim.stats().read_latency.max()
             : 0;
}

std::unique_ptr<HyperConnect> make_hc(std::uint32_t n_ports,
                                      BeatCount nominal, Cycle period = 0,
                                      std::vector<std::uint32_t> budgets = {}) {
  HyperConnectConfig cfg;
  cfg.num_ports = n_ports;
  cfg.nominal_burst = nominal;
  cfg.max_outstanding = 4;
  cfg.reservation_period = period;
  cfg.initial_budgets = std::move(budgets);
  return std::make_unique<HyperConnect>("hc", cfg);
}

/// (ports, victim beats, adversary beats, nominal)
using WclaParams = std::tuple<std::uint32_t, BeatCount, BeatCount, BeatCount>;

class WclaSoundness : public ::testing::TestWithParam<WclaParams> {};

TEST_P(WclaSoundness, BoundDominatesObservedWorstCase) {
  const auto [ports, victim_beats, adversary_beats, nominal] = GetParam();
  const Cycle observed = observed_worst_read(make_hc(ports, nominal),
                                             victim_beats, adversary_beats);
  ASSERT_GT(observed, 0u);

  HcAnalysisConfig cfg;
  cfg.num_ports = ports;
  cfg.nominal_burst = nominal;
  cfg.max_unequalized_beats = adversary_beats;
  cfg.competitor_backlog = 4;
  const Cycle bound = wcrt_read(cfg, analysis_platform({}), 0, victim_beats);

  EXPECT_LE(observed, bound) << "unsound bound";
  // Tightness: the bound must be within 12x of what an adversarial (but
  // not exhaustive) simulation can provoke.
  EXPECT_LE(bound, observed * 12) << "uselessly loose bound";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WclaSoundness,
    ::testing::Values(WclaParams{2, 1, 16, 16}, WclaParams{2, 16, 16, 16},
                      WclaParams{2, 64, 16, 16}, WclaParams{2, 16, 256, 16},
                      WclaParams{4, 16, 16, 16}, WclaParams{4, 1, 256, 16},
                      WclaParams{2, 16, 256, 0}, WclaParams{3, 32, 64, 8}));

TEST(WclaReservation, SupplyBoundHoldsUnderReservation) {
  const Cycle period = 2000;
  const std::vector<std::uint32_t> budgets = {4, 20};

  const Cycle observed =
      observed_worst_read(make_hc(2, 16, period, budgets), 16, 16);
  ASSERT_GT(observed, 0u);

  HcAnalysisConfig cfg;
  cfg.num_ports = 2;
  cfg.nominal_burst = 16;
  cfg.reservation_period = period;
  cfg.budgets = budgets;
  cfg.competitor_backlog = 4;
  ASSERT_TRUE(reservation_feasible(cfg, analysis_platform({})));
  const Cycle bound = wcrt_read(cfg, analysis_platform({}), 0, 16);
  EXPECT_LE(observed, bound);
}

TEST(WclaBounds, PaperAblationBoundsDominateObservations) {
  // The worst-case analysis the paper says the architecture admits (§V-B),
  // against adversarial observations.
  const AnalysisPlatform hc_p = analysis_platform({});
  Cycle hc_bound_vs_256_beats = 0;
  struct Row {
    std::uint32_t ports;
    BeatCount victim;
    BeatCount adversary;
    Cycle observed;
    Cycle bound;
  };
  for (const Row row : {Row{2, 16, 16, 181, 293}, Row{2, 16, 256, 181, 293},
                        Row{4, 16, 16, 545, 703}, Row{2, 64, 16, 298, 539}}) {
    const Cycle observed = observed_worst_read(
        make_hc(row.ports, 16), row.victim, row.adversary);
    HcAnalysisConfig a;
    a.num_ports = row.ports;
    a.nominal_burst = 16;
    a.competitor_backlog = 4;
    const Cycle bound = wcrt_read(a, hc_p, 0, row.victim);
    const std::string label = "HC N=" + std::to_string(row.ports) +
                              " victim " + std::to_string(row.victim) +
                              " adv " + std::to_string(row.adversary);
    EXPECT_EQ(observed, row.observed) << label;
    EXPECT_EQ(bound, row.bound) << label;
    EXPECT_LE(observed, bound) << "the HC bound dominates: " << label;
    if (row.ports == 2 && row.victim == 16 && row.adversary == 256) {
      hc_bound_vs_256_beats = bound;
    }
  }

  // SmartConnect at granularity 4 against unequalized 256-beat bursts.
  SmartConnectConfig sc_cfg;
  sc_cfg.grant_granularity = 4;
  const Cycle sc_observed = observed_worst_read(
      std::make_unique<SmartConnect>("sc", 2, sc_cfg), 16, 256);
  AnalysisPlatform sc_p = hc_p;
  sc_p.ar_latency = 12;
  sc_p.r_latency = 11;
  const Cycle sc_bound = smartconnect_wcrt_read(sc_p, 2, 4, 256, 16);
  EXPECT_EQ(sc_observed, 1191u);
  EXPECT_EQ(sc_bound, 1469u);
  EXPECT_LE(sc_observed, sc_bound) << "the SC bound dominates";
  EXPECT_GE(sc_bound, 5 * hc_bound_vs_256_beats)
      << "the HC bound is 5x below the SC bound for the same scenario";
}

}  // namespace
}  // namespace axihc
