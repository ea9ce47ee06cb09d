// AXI3 compatibility (§V-A: "The AXI HyperConnect is compatible with both
// AXI3 and AXI4 devices"): with a nominal burst <= 16, everything the
// HyperConnect emits downstream is AXI3-legal even when AXI4 masters issue
// 256-beat bursts upstream.
#include <gtest/gtest.h>

#include "axi/monitor.hpp"
#include "ha/traffic_gen.hpp"
#include "hyperconnect/hyperconnect.hpp"
#include "mem/backing_store.hpp"
#include "mem/memory_controller.hpp"
#include "sim/simulator.hpp"

namespace axihc {
namespace {

/// HyperConnect with an AXI3-mode protocol monitor on its master port: the
/// monitor rejects any downstream burst longer than 16 beats.
struct Axi3Fixture : ::testing::Test {
  explicit Axi3Fixture(BeatCount nominal = 16) {
    HyperConnectConfig cfg;
    cfg.num_ports = 2;
    cfg.nominal_burst = nominal;
    cfg.max_outstanding = 8;
    hc = std::make_unique<HyperConnect>("hc", cfg);
    monitor = std::make_unique<AxiMonitor>("axi3mon", hc->master_link(),
                                           /*axi3_mode=*/true);
    mem = std::make_unique<MemoryController>("ddr", hc->master_link(), store,
                                             MemoryControllerConfig{});
    hc->register_with(sim);
    sim.add(*monitor);
    sim.add(*mem);
  }

  Simulator sim;
  BackingStore store;
  std::unique_ptr<HyperConnect> hc;
  std::unique_ptr<AxiMonitor> monitor;
  std::unique_ptr<MemoryController> mem;
};

TEST_F(Axi3Fixture, Axi4MaxBurstsEqualizedToAxi3Legal) {
  monitor->set_throw_on_violation(true);
  TrafficConfig t;
  t.direction = TrafficDirection::kRead;
  t.burst_beats = kMaxAxi4BurstBeats;  // 256-beat AXI4 bursts upstream
  t.max_transactions = 10;
  TrafficGenerator gen("gen", hc->port_link(0), t);
  sim.add(gen);
  sim.reset();

  ASSERT_TRUE(sim.run_until([&] { return gen.finished(); }, 200000));
  EXPECT_TRUE(monitor->clean());
  // 10 x 256 beats at nominal 16 = 160 AXI3-legal sub-transactions.
  EXPECT_EQ(monitor->reads_completed(), 160u);
  EXPECT_EQ(gen.stats().reads_completed, 10u);
}

TEST_F(Axi3Fixture, MixedAxi3LegalWritesToo) {
  monitor->set_throw_on_violation(true);
  TrafficConfig t;
  t.direction = TrafficDirection::kMixed;
  t.burst_beats = 64;
  t.max_transactions = 8;
  TrafficGenerator gen("gen", hc->port_link(0), t);
  sim.add(gen);
  sim.reset();

  ASSERT_TRUE(sim.run_until([&] { return gen.finished(); }, 200000));
  EXPECT_TRUE(monitor->clean());
  EXPECT_EQ(monitor->reads_completed() + monitor->writes_completed(), 32u);
}

struct Axi3Wide : Axi3Fixture {
  Axi3Wide() : Axi3Fixture(/*nominal=*/64) {}
};

TEST_F(Axi3Wide, NominalAbove16ViolatesAxi3) {
  // Negative control: a nominal burst of 64 emits AXI3-illegal bursts — the
  // monitor must flag them. (An AXI3 deployment must configure the nominal
  // burst to at most 16.)
  TrafficConfig t;
  t.direction = TrafficDirection::kRead;
  t.burst_beats = 64;
  t.max_transactions = 2;
  TrafficGenerator gen("gen", hc->port_link(0), t);
  sim.add(gen);
  sim.reset();
  sim.run(5000);
  EXPECT_FALSE(monitor->clean());
}

TEST(Axi3Master, SixteenBeatMasterThroughHyperConnect) {
  // An AXI3 master (bursts <= 16) works unmodified through the default
  // HyperConnect — compatibility in the other direction.
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  HyperConnect hc("hc", cfg);
  MemoryController mem("ddr", hc.master_link(), store, {});
  hc.register_with(sim);
  sim.add(mem);

  TrafficConfig t;
  t.direction = TrafficDirection::kMixed;
  t.burst_beats = kMaxAxi3BurstBeats;
  t.max_transactions = 20;
  TrafficGenerator axi3_master("axi3", hc.port_link(0), t);
  sim.add(axi3_master);
  sim.reset();
  ASSERT_TRUE(sim.run_until([&] { return axi3_master.finished(); }, 200000));
  EXPECT_EQ(axi3_master.stats().reads_completed +
                axi3_master.stats().writes_completed,
            20u);
}

}  // namespace
}  // namespace axihc
