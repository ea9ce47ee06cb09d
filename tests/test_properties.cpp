// Property-style parameterized tests: invariants that must hold across the
// configuration space (port counts, burst sizes, nominal bursts, budgets).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "axi/monitor.hpp"
#include "ha/traffic_gen.hpp"
#include "hyperconnect/hyperconnect.hpp"
#include "mem/backing_store.hpp"
#include "mem/memory_controller.hpp"
#include "sim/simulator.hpp"

namespace axihc {
namespace {

/// (num_ports, burst_beats, nominal_burst)
using HcParams = std::tuple<std::uint32_t, BeatCount, BeatCount>;

class HcPropertyTest : public ::testing::TestWithParam<HcParams> {};

TEST_P(HcPropertyTest, ProtocolCleanAndConserving) {
  // For any configuration: (1) per-HA and memory-side protocol streams stay
  // AXI-legal through split/merge, (2) every byte requested is eventually
  // delivered, (3) memory-side sub-transactions tile HA transactions
  // exactly.
  const auto [ports, burst, nominal] = GetParam();

  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = ports;
  cfg.nominal_burst = nominal;
  cfg.max_outstanding = 4;
  HyperConnect hc("hc", cfg);
  MemoryControllerConfig mc;
  mc.row_hit_latency = 4;
  mc.row_miss_latency = 8;
  MemoryController mem("ddr", hc.master_link(), store, mc);
  hc.register_with(sim);
  sim.add(mem);

  std::vector<std::unique_ptr<AxiMonitor>> monitors;
  std::vector<std::unique_ptr<TrafficGenerator>> gens;
  for (PortIndex p = 0; p < ports; ++p) {
    monitors.push_back(std::make_unique<AxiMonitor>(
        "mon" + std::to_string(p), hc.port_link(p)));
    monitors.back()->set_throw_on_violation(true);
    sim.add(*monitors.back());

    TrafficConfig t;
    t.direction = p % 2 == 0 ? TrafficDirection::kRead
                             : TrafficDirection::kMixed;
    t.burst_beats = burst;
    t.base = 0x4000'0000 + (static_cast<Addr>(p) << 24);
    t.max_transactions = 20;
    gens.push_back(std::make_unique<TrafficGenerator>(
        "g" + std::to_string(p), hc.port_link(p), t));
    sim.add(*gens.back());
  }
  // The sub-transaction stream to memory must be AXI-legal too.
  monitors.push_back(std::make_unique<AxiMonitor>("mem_mon", hc.master_link()));
  monitors.back()->set_throw_on_violation(true);
  sim.add(*monitors.back());
  sim.reset();

  ASSERT_TRUE(sim.run_until(
      [&] {
        for (const auto& g : gens) {
          if (!g->finished()) return false;
        }
        return true;
      },
      2'000'000));

  std::uint64_t total_requested_bytes = 0;
  std::uint64_t total_delivered_bytes = 0;
  for (const auto& m : monitors) EXPECT_TRUE(m->clean()) << m->name();
  for (PortIndex p = 0; p < ports; ++p) {
    total_requested_bytes += 20ull * burst * 8;
    total_delivered_bytes +=
        gens[p]->stats().bytes_read + gens[p]->stats().bytes_written;
  }
  EXPECT_EQ(total_delivered_bytes, total_requested_bytes);

  // Memory-side sub-transaction beat conservation.
  std::uint64_t expected_beats = 0;
  for (const auto& g : gens) {
    expected_beats +=
        (g->stats().bytes_read + g->stats().bytes_written) / 8;
  }
  EXPECT_EQ(mem.beats_served(), expected_beats);

  // Sub-transaction count: each HA burst becomes ceil(burst/nominal) subs.
  if (nominal != 0) {
    const auto subs_per_txn = (burst + nominal - 1) / nominal;
    std::uint64_t granted = 0;
    for (PortIndex p = 0; p < ports; ++p) {
      granted += hc.counters(p).ar_granted + hc.counters(p).aw_granted;
    }
    EXPECT_EQ(granted, 20ull * ports * subs_per_txn);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, HcPropertyTest,
    ::testing::Combine(::testing::Values<std::uint32_t>(1, 2, 3, 4),
                       ::testing::Values<BeatCount>(1, 4, 16, 64),
                       ::testing::Values<BeatCount>(4, 16)),
    [](const auto& param_info) {
      return "p" + std::to_string(std::get<0>(param_info.param)) + "_b" +
             std::to_string(std::get<1>(param_info.param)) + "_n" +
             std::to_string(std::get<2>(param_info.param));
    });

class BudgetPropertyTest
    : public ::testing::TestWithParam<std::tuple<Cycle, std::uint32_t>> {};

TEST_P(BudgetPropertyTest, BudgetBoundHoldsForAnyPeriod) {
  const auto [period, budget] = GetParam();
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  cfg.reservation_period = period;
  cfg.initial_budgets = {budget, budget};
  HyperConnect hc("hc", cfg);
  MemoryController mem("ddr", hc.master_link(), store, {});
  hc.register_with(sim);
  sim.add(mem);

  TrafficConfig t;
  t.direction = TrafficDirection::kRead;
  t.burst_beats = 16;
  TrafficGenerator g0("g0", hc.port_link(0), t);
  TrafficGenerator g1("g1", hc.port_link(1), t);
  sim.add(g0);
  sim.add(g1);
  sim.reset();

  std::uint64_t prev0 = 0;
  std::uint64_t prev1 = 0;
  for (int w = 0; w < 8; ++w) {
    sim.run(period);
    const auto c0 = hc.supervisor(0).subtransactions_issued();
    const auto c1 = hc.supervisor(1).subtransactions_issued();
    EXPECT_LE(c0 - prev0, budget);
    EXPECT_LE(c1 - prev1, budget);
    prev0 = c0;
    prev1 = c1;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PeriodSweep, BudgetPropertyTest,
    ::testing::Combine(::testing::Values<Cycle>(100, 500, 1024, 4096),
                       ::testing::Values<std::uint32_t>(1, 3, 8, 100)));

TEST(DeterminismProperty, IdenticalRunsAcrossPortCounts) {
  for (std::uint32_t ports : {1u, 2u, 4u}) {
    auto run_once = [ports] {
      Simulator sim;
      BackingStore store;
      HyperConnectConfig cfg;
      cfg.num_ports = ports;
      HyperConnect hc("hc", cfg);
      MemoryController mem("ddr", hc.master_link(), store, {});
      hc.register_with(sim);
      sim.add(mem);
      std::vector<std::unique_ptr<TrafficGenerator>> gens;
      for (PortIndex p = 0; p < ports; ++p) {
        TrafficConfig t;
        t.direction = TrafficDirection::kMixed;
        t.burst_beats = 8;
        gens.push_back(std::make_unique<TrafficGenerator>(
            "g" + std::to_string(p), hc.port_link(p), t));
        sim.add(*gens.back());
      }
      sim.reset();
      sim.run(30000);
      std::vector<std::uint64_t> out;
      for (const auto& g : gens) {
        out.push_back(g->stats().bytes_read);
        out.push_back(g->stats().bytes_written);
      }
      return out;
    };
    EXPECT_EQ(run_once(), run_once()) << "ports=" << ports;
  }
}

}  // namespace
}  // namespace axihc
