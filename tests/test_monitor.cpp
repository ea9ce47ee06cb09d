// AXI protocol monitor tests: clean traffic passes, violations are caught.
#include "axi/monitor.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "loopback_slave.hpp"
#include "ha/dma_engine.hpp"
#include "hyperconnect/hyperconnect.hpp"
#include "mem/backing_store.hpp"
#include "mem/memory_controller.hpp"
#include "sim/simulator.hpp"

namespace axihc {
namespace {

/// A monitor on one link. The violation cases leave the link without a
/// slave (nothing downstream must see the illegal beats); serve() adds one.
struct MonitorFixture : ::testing::Test {
  MonitorFixture() : link("l"), mon("mon", link), slave("slave", link) {
    link.register_with(sim);
    sim.add(mon);
    sim.reset();
  }

  void serve() {
    sim.add(slave);
    sim.reset();
  }

  Simulator sim;
  AxiLink link;
  AxiMonitor mon;
  LoopbackSlave slave;
};

TEST_F(MonitorFixture, CleanReadPasses) {
  serve();
  AddrReq ar;
  ar.id = 1;
  ar.addr = 0x0;
  ar.beats = 4;
  link.ar.push(ar);
  std::size_t beats = 0;
  sim.run_until(
      [&] {
        while (link.r.can_pop()) {
          link.r.pop();
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
  serve();
  AddrReq aw;
  aw.id = 2;
  aw.addr = 0x100;
  aw.beats = 2;
  link.aw.push(aw);
  link.w.push({1, 0xff, false});
  link.w.push({2, 0xff, true});
  sim.run_until([&] { return link.b.can_pop(); }, 200);
  EXPECT_TRUE(link.b.can_pop());
  EXPECT_TRUE(mon.clean());
  EXPECT_EQ(mon.writes_completed(), 1u);
  EXPECT_EQ(mon.w_beats(), 2u);
}

TEST_F(MonitorFixture, OversizedBurstFlagged) {
  AddrReq ar;
  ar.beats = 0;  // illegal
  link.ar.push(ar);
  sim.run(10);
  ASSERT_FALSE(mon.clean());
  EXPECT_NE(mon.violations()[0].find("burst length"), std::string::npos);
}

TEST_F(MonitorFixture, FourKCrossingFlagged) {
  AddrReq ar;
  ar.addr = 0x0FF8;
  ar.beats = 4;  // crosses 0x1000
  link.ar.push(ar);
  sim.run(10);
  ASSERT_FALSE(mon.clean());
  EXPECT_NE(mon.violations()[0].find("4KiB"), std::string::npos);
}

TEST_F(MonitorFixture, IllegalWrapLengthFlagged) {
  AddrReq ar;
  ar.addr = 0x0;
  ar.beats = 6;
  ar.burst = BurstType::kWrap;
  link.ar.push(ar);
  sim.run(10);
  ASSERT_FALSE(mon.clean());
  EXPECT_NE(mon.violations()[0].find("WRAP"), std::string::npos);
}

TEST_F(MonitorFixture, EarlyWlastFlagged) {
  AddrReq aw;
  aw.beats = 4;
  link.aw.push(aw);
  link.w.push({1, 0xff, true});  // WLAST on beat 1 of 4
  sim.run(10);
  ASSERT_FALSE(mon.clean());
  EXPECT_NE(mon.violations()[0].find("WLAST"), std::string::npos);
}

TEST_F(MonitorFixture, WBeatBeforeItsAwFlagged) {
  // A W beat may become visible in the same cycle as its AW (CleanWrite
  // above), not earlier: a beat with no AW by the end of its cycle is
  // flagged on the monitor's next tick.
  link.w.push({1, 0xff, true});
  sim.run(2);
  ASSERT_FALSE(mon.clean());
  EXPECT_NE(mon.violations()[0].find("no AW"), std::string::npos);
}

TEST_F(MonitorFixture, Axi3ModeRestrictsBurstLength) {
  Simulator sim3;
  AxiLink link3("l3");
  AxiMonitor mon3("m3", link3, /*axi3_mode=*/true);
  link3.register_with(sim3);
  sim3.add(mon3);
  sim3.reset();

  AddrReq ar;
  ar.beats = 32;  // legal in AXI4, illegal in AXI3
  link3.ar.push(ar);
  sim3.run(10);
  EXPECT_FALSE(mon3.clean());
}

TEST_F(MonitorFixture, ThrowModeRaises) {
  mon.set_throw_on_violation(true);
  AddrReq ar;
  ar.beats = 0;
  link.ar.push(ar);
  EXPECT_THROW(sim.run(10), ModelError);
}

TEST_F(MonitorFixture, EndToEndDmaTrafficIsClean) {
  DmaConfig cfg;
  cfg.mode = DmaMode::kReadWrite;
  cfg.bytes_per_job = 1024;
  cfg.burst_beats = 16;
  cfg.max_jobs = 1;
  DmaEngine dma("dma", link, cfg);
  sim.add(dma);
  serve();
  mon.set_throw_on_violation(true);
  ASSERT_TRUE(sim.run_until([&] { return dma.finished(); }, 100000));
  EXPECT_TRUE(mon.clean());
  EXPECT_EQ(mon.reads_completed(), 8u);
  EXPECT_EQ(mon.writes_completed(), 8u);
}

/// A DMA through a splitting HyperConnect into DDR, run until it finishes;
/// `monitored` watches its port link and the memory-side link. Returns the
/// state digest, the final cycle and the DMA's statistics.
std::vector<std::uint64_t> run_hc_rig(bool monitored) {
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  cfg.nominal_burst = 8;
  HyperConnect hc("hc", cfg);
  MemoryController mem("ddr", hc.master_link(), store, {});
  DmaConfig d;
  d.mode = DmaMode::kReadWrite;
  d.bytes_per_job = 4096;
  d.burst_beats = 32;
  d.max_jobs = 2;
  DmaEngine dma("dma", hc.port_link(0), d);
  hc.register_with(sim);
  sim.add(mem);
  sim.add(dma);
  std::optional<AxiMonitor> port_mon;
  std::optional<AxiMonitor> mem_mon;
  if (monitored) {
    sim.add(port_mon.emplace("port_mon", hc.port_link(0)));
    sim.add(mem_mon.emplace("mem_mon", hc.master_link()));
  }
  sim.reset();

  EXPECT_TRUE(sim.run_until([&] { return dma.finished(); }, 1'000'000));
  if (monitored) {
    EXPECT_TRUE(port_mon->clean() && mem_mon->clean());
    EXPECT_EQ(port_mon->reads_completed(), 32u);  // 2 x 4096 B / 256 B
    EXPECT_EQ(mem_mon->reads_completed(), 128u);  // in 8-beat subs
  }
  const MasterStats& s = dma.stats();
  return {sim.state_digest(),      sim.now(),
          s.reads_completed,       s.writes_completed,
          s.bytes_read,            s.bytes_written,
          s.read_latency.sum(),    s.write_latency.sum()};
}

TEST(AxiMonitor, AttachingLeavesTheRunUnchanged) {
  EXPECT_EQ(run_hc_rig(false), run_hc_rig(true));
}

}  // namespace
}  // namespace axihc
