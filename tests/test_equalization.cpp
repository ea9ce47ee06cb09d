// Burst-equalization tests [11]: end-to-end split/merge correctness through
// the full HyperConnect. The fairness comparison against SmartConnect is
// PaperEqualization.VictimShareFollowsNominalBurst (tests/test_paper.cpp).
#include <gtest/gtest.h>

#include "axi/monitor.hpp"
#include "ha/dma_engine.hpp"
#include "ha/traffic_gen.hpp"
#include "hyperconnect/hyperconnect.hpp"
#include "mem/backing_store.hpp"
#include "mem/memory_controller.hpp"
#include "sim/simulator.hpp"

namespace axihc {
namespace {

TEST(Equalization, LongReadMergedTransparently) {
  // A 256-beat read through a nominal-16 HyperConnect: the HA sees one
  // transaction (one RLAST), memory sees 16 sub-transactions.
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  cfg.nominal_burst = 16;
  cfg.max_outstanding = 16;
  HyperConnect hc("hc", cfg);
  MemoryController mem("ddr", hc.master_link(), store, {});
  hc.register_with(sim);
  sim.add(mem);
  sim.reset();

  for (Addr a = 0; a < 2048; a += 8) store.write_word(0x1000 + a, a + 1);

  AddrReq ar;
  ar.id = 42;
  ar.addr = 0x1000;
  ar.beats = 256;
  hc.port_link(0).ar.push(ar);

  std::vector<RBeat> beats;
  ASSERT_TRUE(sim.run_until(
      [&] {
        while (hc.port_link(0).r.can_pop()) {
          beats.push_back(hc.port_link(0).r.pop());
        }
        return beats.size() >= 256;
      },
      100000));
  ASSERT_EQ(beats.size(), 256u);
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_EQ(beats[i].id, 42u);
    EXPECT_EQ(beats[i].data, i * 8 + 1);
    EXPECT_EQ(beats[i].last, i == 255) << "beat " << i;
  }
  EXPECT_EQ(mem.reads_served(), 16u);  // 16 sub-transactions at the memory
  EXPECT_EQ(hc.counters(0).ar_granted, 16u);
}

TEST(Equalization, LongWriteMergedTransparently) {
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  cfg.nominal_burst = 16;
  cfg.max_outstanding = 16;
  HyperConnect hc("hc", cfg);
  MemoryController mem("ddr", hc.master_link(), store, {});
  hc.register_with(sim);
  sim.add(mem);
  sim.reset();

  AddrReq aw;
  aw.id = 7;
  aw.addr = 0x4000;
  aw.beats = 64;
  hc.port_link(0).aw.push(aw);
  for (BeatCount i = 0; i < 64; ++i) {
    // Feed W data as channel capacity allows.
    while (!hc.port_link(0).w.can_push()) sim.step();
    hc.port_link(0).w.push({0xF00 + i, 0xff, i == 63});
  }

  std::size_t b_count = 0;
  ASSERT_TRUE(sim.run_until(
      [&] {
        while (hc.port_link(0).b.can_pop()) {
          EXPECT_EQ(hc.port_link(0).b.pop().id, 7u);
          ++b_count;
        }
        return b_count >= 1;
      },
      100000));
  sim.run(200);  // ensure no further (duplicate) B arrives
  while (hc.port_link(0).b.can_pop()) {
    hc.port_link(0).b.pop();
    ++b_count;
  }
  EXPECT_EQ(b_count, 1u) << "intermediate sub-burst Bs leaked to the HA";
  EXPECT_EQ(mem.writes_served(), 4u);
  for (BeatCount i = 0; i < 64; ++i) {
    EXPECT_EQ(store.read_word(0x4000 + 8 * i), 0xF00u + i);
  }
}

TEST(Equalization, ProtocolCleanThroughMonitorWithSplitting) {
  // HA-side monitor on the link from a DMA with 64-beat bursts into the
  // HyperConnect: the merge must reconstruct a protocol-correct stream.
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  cfg.nominal_burst = 8;
  HyperConnect hc("hc", cfg);
  MemoryController mem("ddr", hc.master_link(), store, {});
  hc.register_with(sim);
  sim.add(mem);

  AxiMonitor monitor("mon", hc.port_link(0));
  monitor.set_throw_on_violation(true);
  sim.add(monitor);

  DmaConfig dcfg;
  dcfg.mode = DmaMode::kReadWrite;
  dcfg.bytes_per_job = 4096;
  dcfg.burst_beats = 64;
  dcfg.max_jobs = 1;
  DmaEngine dma("dma", hc.port_link(0), dcfg);
  sim.add(dma);
  sim.reset();

  ASSERT_TRUE(sim.run_until([&] { return dma.finished(); }, 200000));
  EXPECT_TRUE(monitor.clean());
  // 4096B in 64-beat HA bursts = 8 each way; memory saw 8-beat subs = 64.
  EXPECT_EQ(monitor.reads_completed(), 8u);
  EXPECT_EQ(mem.reads_served(), 64u);
}

TEST(Equalization, NominalBurstReconfigurableAtRuntime) {
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  cfg.nominal_burst = 16;
  HyperConnect hc("hc", cfg);
  MemoryController mem("ddr", hc.master_link(), store, {});
  hc.register_with(sim);
  sim.add(mem);
  sim.reset();

  // First transaction: split 32 -> 2 subs of 16.
  AddrReq ar;
  ar.id = 1;
  ar.addr = 0x0;
  ar.beats = 32;
  hc.port_link(0).ar.push(ar);
  std::size_t beats = 0;
  sim.run_until(
      [&] {
        while (hc.port_link(0).r.can_pop()) {
          hc.port_link(0).r.pop();
          ++beats;
        }
        return beats >= 32;
      },
      100000);
  EXPECT_EQ(mem.reads_served(), 2u);

  // Reconfigure nominal burst to 8 over the register file; same request
  // now splits into 4 subs.
  hc.registers_backdoor().write(hcregs::kNominalBurst, 8);
  ar.id = 2;
  hc.port_link(0).ar.push(ar);
  beats = 0;
  sim.run_until(
      [&] {
        while (hc.port_link(0).r.can_pop()) {
          hc.port_link(0).r.pop();
          ++beats;
        }
        return beats >= 32;
      },
      100000);
  EXPECT_EQ(mem.reads_served(), 6u);  // 2 + 4
}

}  // namespace
}  // namespace axihc
