// Out-of-order completion extension (the paper's future work, §V-A): FR-FCFS
// memory scheduling + ID-extension routing in the HyperConnect.
#include <gtest/gtest.h>

#include "axi/monitor.hpp"
#include "ha/dma_engine.hpp"
#include "ha/traffic_gen.hpp"
#include "hyperconnect/hyperconnect.hpp"
#include "mem/backing_store.hpp"
#include "mem/memory_controller.hpp"
#include "sim/simulator.hpp"
#include "stats/stats.hpp"

namespace axihc {
namespace {

MemoryControllerConfig frfcfs_cfg() {
  MemoryControllerConfig c;
  c.scheduling = MemScheduling::kFrFcfs;
  c.id_order_mask = 0xFFFF0000;  // per-source-port ordering
  c.row_hit_latency = 4;
  c.row_miss_latency = 30;
  return c;
}

TEST(FrFcfs, RowHitOvertakesOlderMiss) {
  // Two reads queued: the older one misses its row, the younger hits the
  // open row. FR-FCFS serves the hit first.
  Simulator sim;
  AxiLink link("l");
  BackingStore store;
  MemoryControllerConfig cfg = frfcfs_cfg();
  MemoryController mem("ddr", link, store, cfg);
  link.register_with(sim);
  sim.add(mem);
  sim.reset();

  // Long warm-up read: opens the row at 0x0000 and keeps the controller
  // busy while the two contenders enqueue behind it.
  AddrReq warm;
  warm.id = 0x0003'0000;
  warm.addr = 0x0;
  warm.beats = 8;
  link.ar.push(warm);
  sim.run(5);

  // id A (older) targets a cold row (miss), id B (younger) the warm row.
  AddrReq miss;
  miss.id = 0x0001'0001;  // port 1
  miss.addr = 0x10000;
  miss.beats = 1;
  AddrReq hit;
  hit.id = 0x0002'0001;  // port 2
  hit.addr = 0x8;
  hit.beats = 1;
  link.ar.push(miss);
  sim.step();
  link.ar.push(hit);

  std::vector<TxnId> order;
  sim.run_until(
      [&] {
        while (link.r.can_pop()) {
          const RBeat beat = link.r.pop();
          if (beat.last) order.push_back(beat.id);
        }
        return order.size() >= 3;
      },
      500);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], warm.id);
  EXPECT_EQ(order[1], hit.id) << "row hit should have been served first";
  EXPECT_EQ(order[2], miss.id);
  EXPECT_EQ(mem.reordered(), 1u);
}

TEST(FrFcfs, PerIdOrderNeverViolated) {
  // Two reads with the SAME masked id: even if the younger is a row hit it
  // must not overtake.
  Simulator sim;
  AxiLink link("l");
  BackingStore store;
  MemoryController mem("ddr", link, store, frfcfs_cfg());
  link.register_with(sim);
  sim.add(mem);
  sim.reset();

  AddrReq warm;
  warm.id = 0x0003'0000;
  warm.addr = 0x0;
  warm.beats = 8;  // keeps the controller busy while both contenders queue
  link.ar.push(warm);
  sim.run(5);

  AddrReq first;
  first.id = 0x0001'0007;  // port 1
  first.addr = 0x20000;    // cold row
  first.beats = 1;
  AddrReq second;
  second.id = 0x0001'0008;  // port 1 again (same masked id)
  second.addr = 0x8;        // warm row
  second.beats = 1;
  link.ar.push(first);
  sim.step();
  link.ar.push(second);

  std::vector<TxnId> order;
  sim.run_until(
      [&] {
        while (link.r.can_pop()) {
          const RBeat beat = link.r.pop();
          if (beat.last) order.push_back(beat.id);
        }
        return order.size() >= 3;
      },
      500);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[1], first.id);
  EXPECT_EQ(order[2], second.id);
  EXPECT_EQ(mem.reordered(), 0u);
}

TEST(FrFcfs, WriteNeedsBufferedDataBeforeReordering) {
  // A write whose W data has not arrived cannot be picked even as a row
  // hit; a younger read proceeds.
  Simulator sim;
  AxiLink link("l");
  BackingStore store;
  MemoryController mem("ddr", link, store, frfcfs_cfg());
  link.register_with(sim);
  sim.add(mem);
  sim.reset();

  AddrReq aw;
  aw.id = 0x0001'0001;
  aw.addr = 0x0;
  aw.beats = 2;
  link.aw.push(aw);  // no W data yet
  sim.step();
  AddrReq ar;
  ar.id = 0x0002'0001;
  ar.addr = 0x40000;
  ar.beats = 1;
  link.ar.push(ar);

  sim.run_until([&] { return link.r.can_pop(); }, 500);
  ASSERT_TRUE(link.r.can_pop());
  EXPECT_FALSE(link.b.can_pop()) << "write finished without data";

  // Now deliver the data; the write completes.
  link.w.push({1, 0xff, false});
  link.w.push({2, 0xff, true});
  sim.run_until([&] { return link.b.can_pop(); }, 500);
  EXPECT_TRUE(link.b.can_pop());
  EXPECT_EQ(store.read_word(0x0), 1u);
  EXPECT_EQ(store.read_word(0x8), 2u);
}

struct OooSystem {
  OooSystem() {
    HyperConnectConfig cfg;
    cfg.num_ports = 2;
    cfg.out_of_order = true;
    hc = std::make_unique<HyperConnect>("hc", cfg);
    mem = std::make_unique<MemoryController>("ddr", hc->master_link(), store,
                                             frfcfs_cfg());
    hc->register_with(sim);
    sim.add(*mem);
  }

  Simulator sim;
  BackingStore store;
  std::unique_ptr<HyperConnect> hc;
  std::unique_ptr<MemoryController> mem;
};

TEST(OooHyperConnect, EndToEndDmaTrafficCompletes) {
  OooSystem sys;
  DmaConfig d;
  d.mode = DmaMode::kReadWrite;
  d.bytes_per_job = 4096;
  d.burst_beats = 16;
  d.max_jobs = 2;
  d.tolerate_out_of_order = true;
  DmaEngine dma0("dma0", sys.hc->port_link(0), d);
  d.read_base = 0x5000'0000;
  d.write_base = 0x6000'0000;
  DmaEngine dma1("dma1", sys.hc->port_link(1), d);
  sys.sim.add(dma0);
  sys.sim.add(dma1);
  sys.sim.reset();

  ASSERT_TRUE(sys.sim.run_until(
      [&] { return dma0.finished() && dma1.finished(); }, 500000));
  // 2 jobs x 4096 B at 128 B bursts = 64 transactions per direction.
  EXPECT_EQ(dma0.stats().reads_completed, 64u);
  EXPECT_EQ(dma1.stats().writes_completed, 64u);
}

TEST(OooHyperConnect, WriteDataIntegrityAcrossReordering) {
  OooSystem sys;
  DmaConfig d;
  d.mode = DmaMode::kWrite;
  d.bytes_per_job = 2048;
  d.burst_beats = 16;
  d.max_jobs = 1;
  d.tolerate_out_of_order = true;
  d.write_base = 0x1000;
  DmaEngine dma0("dma0", sys.hc->port_link(0), d);
  d.write_base = 0x9000;
  DmaEngine dma1("dma1", sys.hc->port_link(1), d);
  sys.sim.add(dma0);
  sys.sim.add(dma1);
  sys.sim.reset();

  ASSERT_TRUE(sys.sim.run_until(
      [&] { return dma0.finished() && dma1.finished(); }, 500000));
  for (Addr o = 0; o < 2048; o += 8) {
    ASSERT_EQ(sys.store.read_word(0x1000 + o), o - (o % 128) + (o % 128) / 8)
        << "dma0 offset " << o;
  }
}

TEST(OooHyperConnect, HaSideStreamsRemainProtocolClean) {
  // Per-port order is preserved even when the controller reorders across
  // ports, so an HA-side protocol monitor must stay clean.
  OooSystem sys;
  AxiMonitor monitor("mon", sys.hc->port_link(0));
  monitor.set_throw_on_violation(true);
  sys.sim.add(monitor);

  DmaConfig d;
  d.mode = DmaMode::kReadWrite;
  d.bytes_per_job = 8192;
  d.burst_beats = 32;  // split by the TS
  d.max_jobs = 1;
  d.tolerate_out_of_order = true;
  DmaEngine dma0("dma0", sys.hc->port_link(0), d);
  TrafficConfig t;
  t.direction = TrafficDirection::kRead;
  t.burst_beats = 16;
  t.tolerate_out_of_order = true;
  t.base = 0x7000'0000;
  TrafficGenerator g1("g1", sys.hc->port_link(1), t);
  sys.sim.add(dma0);
  sys.sim.add(g1);
  sys.sim.reset();

  ASSERT_TRUE(sys.sim.run_until([&] { return dma0.finished(); }, 500000));
  EXPECT_TRUE(monitor.clean());
}

TEST(OooHyperConnect, ReorderingActuallyHappens) {
  // Port 0 sprays cold rows (misses), port 1 streams one hot row (hits):
  // FR-FCFS must reorder, and both masters still complete.
  OooSystem sys;
  TrafficConfig cold;
  cold.direction = TrafficDirection::kRead;
  cold.burst_beats = 4;
  cold.base = 0x4000'0000;
  cold.region_bytes = 32 << 20;  // sweep far across rows
  cold.tolerate_out_of_order = true;
  cold.max_transactions = 50;
  TrafficGenerator misses("misses", sys.hc->port_link(0), cold);

  TrafficConfig hot;
  hot.direction = TrafficDirection::kRead;
  hot.burst_beats = 4;
  hot.base = 0x6000'0000;
  hot.region_bytes = 2048;  // stays within one row
  hot.tolerate_out_of_order = true;
  hot.max_transactions = 50;
  TrafficGenerator hits("hits", sys.hc->port_link(1), hot);

  sys.sim.add(misses);
  sys.sim.add(hits);
  sys.sim.reset();
  ASSERT_TRUE(sys.sim.run_until(
      [&] { return misses.finished() && hits.finished(); }, 500000));
  EXPECT_GT(sys.mem->reordered(), 0u);
}

TEST(OooHyperConnect, InOrderMasterOnOooFabricWouldThrow) {
  // Documentation-by-test of the compatibility constraint: a legacy
  // in-order master (tolerate_out_of_order = false) on an out-of-order
  // platform trips its ordering assertion once reordering occurs.
  OooSystem sys;
  TrafficConfig cold;
  cold.direction = TrafficDirection::kRead;
  cold.burst_beats = 4;
  cold.base = 0x4000'0000;
  cold.region_bytes = 32 << 20;
  cold.max_outstanding = 8;
  cold.tolerate_out_of_order = false;  // legacy master
  TrafficGenerator legacy("legacy", sys.hc->port_link(0), cold);
  TrafficConfig hot;
  hot.direction = TrafficDirection::kRead;
  hot.burst_beats = 4;
  hot.base = 0x6000'0000;
  hot.region_bytes = 2048;
  hot.tolerate_out_of_order = true;
  TrafficGenerator hits("hits", sys.hc->port_link(1), hot);
  sys.sim.add(legacy);
  sys.sim.add(hits);
  sys.sim.reset();

  // Per-port order is preserved by the id mask, so a single-port legacy
  // master is actually SAFE — this must NOT throw. (Cross-port reordering
  // is invisible to each port.)
  EXPECT_NO_THROW(sys.sim.run(50000));
  EXPECT_GT(legacy.stats().reads_completed, 0u);
}

TEST(OooHyperConnect, PaperAblationFrFcfsRaisesBandwidth) {
  // The future-work extension (§V-A) on a row-friendly streamer (16-beat
  // reads in a 4 KiB region) sharing the bus with a row-hostile scatterer
  // (4-beat reads over 64 MiB), in order vs FR-FCFS + ID extension.
  struct Result {
    double stream_mb_s = 0;
    double scatter_mb_s = 0;
    std::uint64_t row_hit_pct = 0;
    std::uint64_t reordered = 0;
  };
  const auto run = [](bool out_of_order) {
    Simulator sim;
    BackingStore store;
    HyperConnectConfig cfg;
    cfg.num_ports = 2;
    cfg.out_of_order = out_of_order;
    HyperConnect hc("hc", cfg);
    MemoryControllerConfig mc;
    if (out_of_order) {
      mc.scheduling = MemScheduling::kFrFcfs;
      mc.id_order_mask = 0xFFFF0000;
    }
    MemoryController mem("ddr", hc.master_link(), store, mc);
    hc.register_with(sim);
    sim.add(mem);

    TrafficConfig stream;
    stream.direction = TrafficDirection::kRead;
    stream.burst_beats = 16;
    stream.base = 0x6000'0000;
    stream.region_bytes = 4096;
    stream.tolerate_out_of_order = true;
    TrafficGenerator streamer("stream", hc.port_link(0), stream);
    TrafficConfig scatter;
    scatter.direction = TrafficDirection::kRead;
    scatter.burst_beats = 4;
    scatter.base = 0x4000'0000;
    scatter.region_bytes = 64ull << 20;
    scatter.tolerate_out_of_order = true;
    TrafficGenerator scatterer("scatter", hc.port_link(1), scatter);
    sim.add(streamer);
    sim.add(scatterer);
    sim.reset();
    sim.run(400000);

    const RateMeter meter(150e6);
    Result r;
    r.stream_mb_s =
        meter.bytes_per_second(streamer.stats().bytes_read, sim.now()) / 1e6;
    r.scatter_mb_s =
        meter.bytes_per_second(scatterer.stats().bytes_read, sim.now()) / 1e6;
    r.row_hit_pct =
        100 * mem.row_hits() / (mem.row_hits() + mem.row_misses());
    r.reordered = mem.reordered();
    return r;
  };
  const Result in_order = run(false);
  const Result ooo = run(true);
  EXPECT_NEAR(in_order.stream_mb_s + in_order.scatter_mb_s, 501.4, 0.05);
  EXPECT_NEAR(in_order.stream_mb_s, 401.1, 0.05);
  EXPECT_NEAR(in_order.scatter_mb_s, 100.3, 0.05);
  EXPECT_EQ(in_order.row_hit_pct, 86u);
  EXPECT_EQ(in_order.reordered, 0u);
  EXPECT_NEAR(ooo.stream_mb_s + ooo.scatter_mb_s, 682.6, 0.05);
  EXPECT_NEAR(ooo.stream_mb_s, 680.3, 0.05);
  EXPECT_NEAR(ooo.scatter_mb_s, 2.3, 0.05);
  EXPECT_EQ(ooo.row_hit_pct, 99u);
  EXPECT_EQ(ooo.reordered, 14340u);
  EXPECT_GT(ooo.stream_mb_s + ooo.scatter_mb_s,
            1.3 * (in_order.stream_mb_s + in_order.scatter_mb_s))
      << "FR-FCFS raises total bandwidth by >30%";
  EXPECT_LT(ooo.scatter_mb_s, in_order.scatter_mb_s / 10)
      << "at the cost of FR-FCFS fairness: the scatterer starves";
}

}  // namespace
}  // namespace axihc
