// AXI protocol monitor tests: clean traffic passes, violations are caught.
#include "axi/monitor.hpp"

#include <gtest/gtest.h>

#include "loopback_slave.hpp"
#include "ha/dma_engine.hpp"
#include "sim/simulator.hpp"

namespace axihc {
namespace {

struct MonitorFixture : ::testing::Test {
  MonitorFixture()
      : up("up"), down("down"), mon("mon", up, down), slave("slave", down) {
    up.register_with(sim);
    down.register_with(sim);
    sim.add(mon);
    sim.add(slave);
    sim.reset();
  }

  Simulator sim;
  AxiLink up;
  AxiLink down;
  AxiMonitor mon;
  LoopbackSlave slave;
};

TEST_F(MonitorFixture, CleanReadPasses) {
  AddrReq ar;
  ar.id = 1;
  ar.addr = 0x0;
  ar.beats = 4;
  up.ar.push(ar);
  std::size_t beats = 0;
  sim.run_until(
      [&] {
        while (up.r.can_pop()) {
          up.r.pop();
          ++beats;
        }
        return beats == 4;
      },
      200);
  EXPECT_EQ(beats, 4u);
  EXPECT_TRUE(mon.clean());
  EXPECT_EQ(mon.reads_started(), 1u);
  EXPECT_EQ(mon.reads_completed(), 1u);
  EXPECT_EQ(mon.r_beats(), 4u);
}

TEST_F(MonitorFixture, CleanWritePasses) {
  AddrReq aw;
  aw.id = 2;
  aw.addr = 0x100;
  aw.beats = 2;
  up.aw.push(aw);
  up.w.push({1, 0xff, false});
  up.w.push({2, 0xff, true});
  sim.run_until([&] { return up.b.can_pop(); }, 200);
  EXPECT_TRUE(up.b.can_pop());
  EXPECT_TRUE(mon.clean());
  EXPECT_EQ(mon.writes_completed(), 1u);
  EXPECT_EQ(mon.w_beats(), 2u);
}

TEST_F(MonitorFixture, OversizedBurstFlagged) {
  AddrReq ar;
  ar.beats = 0;  // illegal
  up.ar.push(ar);
  sim.run(10);
  ASSERT_FALSE(mon.clean());
  EXPECT_NE(mon.violations()[0].find("burst length"), std::string::npos);
}

TEST_F(MonitorFixture, FourKCrossingFlagged) {
  AddrReq ar;
  ar.addr = 0x0FF8;
  ar.beats = 4;  // crosses 0x1000
  up.ar.push(ar);
  sim.run(10);
  ASSERT_FALSE(mon.clean());
  EXPECT_NE(mon.violations()[0].find("4KiB"), std::string::npos);
}

TEST_F(MonitorFixture, IllegalWrapLengthFlagged) {
  AddrReq ar;
  ar.addr = 0x0;
  ar.beats = 6;
  ar.burst = BurstType::kWrap;
  up.ar.push(ar);
  sim.run(10);
  ASSERT_FALSE(mon.clean());
  EXPECT_NE(mon.violations()[0].find("WRAP"), std::string::npos);
}

TEST_F(MonitorFixture, EarlyWlastFlagged) {
  AddrReq aw;
  aw.beats = 4;
  up.aw.push(aw);
  up.w.push({1, 0xff, true});  // WLAST on beat 1 of 4
  sim.run(10);
  ASSERT_FALSE(mon.clean());
  EXPECT_NE(mon.violations()[0].find("WLAST"), std::string::npos);
}

TEST_F(MonitorFixture, Axi3ModeRestrictsBurstLength) {
  Simulator sim3;
  AxiLink up3("u3");
  AxiLink down3("d3");
  AxiMonitor mon3("m3", up3, down3, /*axi3_mode=*/true);
  up3.register_with(sim3);
  down3.register_with(sim3);
  sim3.add(mon3);
  sim3.reset();

  AddrReq ar;
  ar.beats = 32;  // legal in AXI4, illegal in AXI3
  up3.ar.push(ar);
  sim3.run(10);
  EXPECT_FALSE(mon3.clean());
}

TEST_F(MonitorFixture, ThrowModeRaises) {
  mon.set_throw_on_violation(true);
  AddrReq ar;
  ar.beats = 0;
  up.ar.push(ar);
  EXPECT_THROW(sim.run(10), ModelError);
}

TEST_F(MonitorFixture, EndToEndDmaTrafficIsClean) {
  DmaConfig cfg;
  cfg.mode = DmaMode::kReadWrite;
  cfg.bytes_per_job = 1024;
  cfg.burst_beats = 16;
  cfg.max_jobs = 1;
  DmaEngine dma("dma", up, cfg);
  sim.add(dma);
  sim.reset();
  mon.set_throw_on_violation(true);
  ASSERT_TRUE(sim.run_until([&] { return dma.finished(); }, 100000));
  EXPECT_TRUE(mon.clean());
  EXPECT_EQ(mon.reads_completed(), 8u);
  EXPECT_EQ(mon.writes_completed(), 8u);
}

}  // namespace
}  // namespace axihc
