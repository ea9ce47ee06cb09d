// SocSystem assembly details and remaining control-interface coverage:
// memory configuration, control-bus robustness.
#include <gtest/gtest.h>

#include "driver/hyperconnect_driver.hpp"
#include "ha/dma_engine.hpp"
#include "ha/traffic_gen.hpp"
#include "soc/soc.hpp"

namespace axihc {
namespace {

TEST(SocSystem, PropagatesMemoryConfig) {
  SocConfig cfg;
  cfg.mem.row_hit_latency = 3;
  cfg.mem.refresh_period = 1170;
  cfg.mem.refresh_duration = 53;
  SocSystem soc(cfg);
  EXPECT_EQ(soc.memory_controller().config().row_hit_latency, 3u);
  EXPECT_EQ(soc.memory_controller().config().refresh_period, 1170u);
  EXPECT_EQ(soc.memory_controller().config().refresh_duration, 53u);
}

TEST(SocSystem, NumPortsOverridesHcConfig) {
  SocConfig cfg;
  cfg.num_ports = 3;
  cfg.hc.num_ports = 7;  // must be overridden by SocConfig::num_ports
  SocSystem soc(cfg);
  EXPECT_EQ(soc.interconnect().num_ports(), 3u);
}

TEST(ControlInterface, InterleavedReadsAndWrites) {
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  HyperConnect hc("hc", cfg);
  MemoryController mem("ddr", hc.master_link(), store, {});
  RegisterMaster rm("rm", hc.control_link());
  hc.register_with(sim);
  sim.add(mem);
  sim.add(rm);
  sim.reset();

  // Queue a dense interleaving of writes and readbacks; all must complete
  // in order with coherent values.
  std::vector<std::uint64_t> readbacks;
  for (std::uint64_t v = 1; v <= 10; ++v) {
    rm.write_reg(hcregs::kNominalBurst, v);
    rm.read_reg(hcregs::kNominalBurst,
                [&](std::uint64_t x) { readbacks.push_back(x); });
  }
  ASSERT_TRUE(sim.run_until([&] { return rm.idle(); }, 10000));
  ASSERT_EQ(readbacks.size(), 10u);
  for (std::uint64_t v = 1; v <= 10; ++v) EXPECT_EQ(readbacks[v - 1], v);
  EXPECT_EQ(hc.runtime().nominal_burst, 10u);
}

TEST(ControlInterface, SurvivesConfigChurnUnderLoad) {
  // Hammer the control interface while data traffic flows: no deadlock, no
  // corruption, traffic keeps moving.
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  HyperConnect hc("hc", cfg);
  MemoryController mem("ddr", hc.master_link(), store, {});
  RegisterMaster rm("rm", hc.control_link());
  TrafficConfig t;
  t.direction = TrafficDirection::kMixed;
  t.burst_beats = 16;
  TrafficGenerator gen("gen", hc.port_link(0), t);
  hc.register_with(sim);
  sim.add(mem);
  sim.add(rm);
  sim.add(gen);
  sim.reset();

  for (int round = 0; round < 50; ++round) {
    rm.write_reg(hcregs::kNominalBurst, 4 + (round % 4) * 4);
    rm.write_reg(hcregs::kOutstandingLimit, 1 + (round % 4));
    sim.run(400);
  }
  ASSERT_TRUE(sim.run_until([&] { return rm.idle(); }, 10000));
  EXPECT_GT(gen.stats().reads_completed + gen.stats().writes_completed,
            200u);
}

}  // namespace
}  // namespace axihc
