// Feature-interaction matrix: every combination of the HyperConnect's
// orthogonal features must compose correctly — protocol-clean HA streams,
// conservation of all requested bytes, and budget enforcement whenever
// reservation is on. 8 combinations, each with monitored mixed traffic.
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

/// (out_of_order, reservation, equalization)
using Combo = std::tuple<bool, bool, bool>;

class FeatureMatrix : public ::testing::TestWithParam<Combo> {};

TEST_P(FeatureMatrix, ComposesCorrectly) {
  const auto [ooo, reservation, equalization] = GetParam();

  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  cfg.nominal_burst = equalization ? 16 : 0;
  cfg.max_outstanding = 4;
  cfg.out_of_order = ooo;
  if (reservation) {
    cfg.reservation_period = 1000;
    cfg.initial_budgets = {12, 8};
  }
  HyperConnect hc("hc", cfg);

  MemoryControllerConfig mc;
  mc.row_hit_latency = 6;
  mc.row_miss_latency = 18;
  if (ooo) {
    mc.scheduling = MemScheduling::kFrFcfs;
    mc.id_order_mask = 0xFFFF0000;
  }
  MemoryController mem("ddr", hc.master_link(), store, mc);
  hc.register_with(sim);
  sim.add(mem);

  std::vector<std::unique_ptr<AxiMonitor>> monitors;
  std::vector<std::unique_ptr<TrafficGenerator>> gens;
  for (PortIndex p = 0; p < 2; ++p) {
    monitors.push_back(std::make_unique<AxiMonitor>(
        "mon" + std::to_string(p), hc.port_link(p)));
    monitors.back()->set_throw_on_violation(true);
    sim.add(*monitors.back());

    TrafficConfig t;
    t.direction = TrafficDirection::kMixed;
    t.burst_beats = p == 0 ? 32 : 8;  // heterogeneous bursts
    t.base = 0x4000'0000 + (static_cast<Addr>(p) << 26);
    t.max_transactions = 40;
    t.tolerate_out_of_order = ooo;
    gens.push_back(std::make_unique<TrafficGenerator>(
        "g" + std::to_string(p), hc.port_link(p), t));
    sim.add(*gens.back());
  }
  // The memory side too, where FR-FCFS does not legally reorder R beats.
  if (!ooo) {
    monitors.push_back(
        std::make_unique<AxiMonitor>("mem_mon", hc.master_link()));
    monitors.back()->set_throw_on_violation(true);
    sim.add(*monitors.back());
  }
  sim.reset();

  ASSERT_TRUE(sim.run_until(
      [&] { return gens[0]->finished() && gens[1]->finished(); },
      3'000'000))
      << "ooo=" << ooo << " res=" << reservation << " eq=" << equalization;

  // Protocol legality survived the combination.
  for (const auto& m : monitors) EXPECT_TRUE(m->clean()) << m->name();

  // Conservation: every requested byte was delivered.
  for (PortIndex p = 0; p < 2; ++p) {
    const auto expected =
        40ull * (p == 0 ? 32 : 8) * 8;  // txns * beats * bytes
    EXPECT_EQ(gens[p]->stats().bytes_read + gens[p]->stats().bytes_written,
              expected)
        << "port " << p;
  }

  // Budget enforcement when reservation is on (checked over full windows).
  if (reservation) {
    sim.reset();  // fresh deterministic re-run, windows aligned to cycle 0
    std::uint64_t prev0 = 0;
    for (int w = 0; w < 6; ++w) {
      sim.run(1000);
      const auto c0 = hc.supervisor(0).subtransactions_issued();
      EXPECT_LE(c0 - prev0, 12u) << "window " << w;
      prev0 = c0;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, FeatureMatrix,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Bool()),
    [](const auto& param_info) {
      // No structured bindings here: commas inside [..] would split the
      // macro's arguments.
      std::string name;
      name += std::get<0>(param_info.param) ? "ooo_" : "inorder_";
      name += std::get<1>(param_info.param) ? "res_" : "nores_";
      name += std::get<2>(param_info.param) ? "eq" : "noeq";
      return name;
    });

}  // namespace
}  // namespace axihc
