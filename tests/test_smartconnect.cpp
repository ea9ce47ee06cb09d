// SmartConnect baseline model tests: arbitration, routing, and the
// calibrated per-channel latencies.
#include "interconnect/smartconnect.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "ha/dma_engine.hpp"
#include "ha/traffic_gen.hpp"
#include "hyperconnect/hyperconnect.hpp"
#include "mem/backing_store.hpp"
#include "mem/memory_controller.hpp"
#include "sim/simulator.hpp"

namespace axihc {
namespace {

struct ScFixture : ::testing::Test {
  explicit ScFixture(std::uint32_t ports = 2, SmartConnectConfig cfg = {})
      : sc("sc", ports, cfg), mem("ddr", sc.master_link(), store, mem_cfg()) {
    sc.register_with(sim);
    sim.add(mem);
  }

  static MemoryControllerConfig mem_cfg() {
    MemoryControllerConfig c;
    c.row_hit_latency = 4;
    c.row_miss_latency = 8;
    return c;
  }

  Simulator sim;
  BackingStore store;
  SmartConnect sc;
  MemoryController mem;
};

TEST_F(ScFixture, SingleMasterReadCompletes) {
  DmaConfig cfg;
  cfg.mode = DmaMode::kRead;
  cfg.bytes_per_job = 1024;
  cfg.burst_beats = 16;
  cfg.max_jobs = 1;
  DmaEngine dma("dma", sc.port_link(0), cfg);
  sim.add(dma);
  sim.reset();
  ASSERT_TRUE(sim.run_until([&] { return dma.finished(); }, 100000));
  EXPECT_EQ(dma.stats().reads_completed, 8u);
  EXPECT_EQ(sc.counters(0).ar_granted, 8u);
  EXPECT_EQ(sc.counters(0).r_beats, 128u);
}

TEST_F(ScFixture, WriteDataRoutedByAwOrder) {
  DmaConfig c0;
  c0.mode = DmaMode::kWrite;
  c0.bytes_per_job = 512;
  c0.burst_beats = 8;
  c0.max_jobs = 1;
  c0.write_base = 0x1000;
  DmaEngine m0("m0", sc.port_link(0), c0);
  DmaConfig c1 = c0;
  c1.write_base = 0x8000;
  DmaEngine m1("m1", sc.port_link(1), c1);
  sim.add(m0);
  sim.add(m1);
  sim.reset();

  ASSERT_TRUE(sim.run_until([&] { return m0.finished() && m1.finished(); },
                            100000));
  // Each wrote 512 bytes; both destinations fully written, no cross-talk.
  EXPECT_EQ(store.read_word(0x1000), 0u);       // fill seed 0 at offset 0
  EXPECT_EQ(store.read_word(0x1000 + 8), 1u);   // fill pattern advances
  EXPECT_EQ(store.read_word(0x8000 + 8), 1u);
  EXPECT_EQ(sc.counters(0).w_beats, 64u);
  EXPECT_EQ(sc.counters(1).w_beats, 64u);
}

TEST_F(ScFixture, RoundRobinSharesBetweenEqualGreedyMasters) {
  TrafficConfig greedy;
  greedy.direction = TrafficDirection::kRead;
  greedy.burst_beats = 16;
  TrafficGenerator g0("g0", sc.port_link(0), greedy);
  TrafficGenerator g1("g1", sc.port_link(1), greedy);
  sim.add(g0);
  sim.add(g1);
  sim.reset();

  sim.run(50000);
  const double a = static_cast<double>(g0.stats().bytes_read);
  const double b = static_cast<double>(g1.stats().bytes_read);
  ASSERT_GT(a + b, 0);
  EXPECT_NEAR(a / (a + b), 0.5, 0.05);
}

TEST_F(ScFixture, HeterogeneousBurstsAreUnfair) {
  // The unfairness of [11]: transaction-granular round-robin gives the
  // long-burst master most of the *byte* bandwidth.
  TrafficConfig small;
  small.direction = TrafficDirection::kRead;
  small.burst_beats = 4;
  small.base = 0x4000'0000;
  TrafficConfig big = TrafficGenerator::bandwidth_stealer(0x6000'0000);
  TrafficGenerator victim("victim", sc.port_link(0), small);
  TrafficGenerator stealer("stealer", sc.port_link(1), big);
  sim.add(victim);
  sim.add(stealer);
  sim.reset();

  sim.run(100000);
  const double v = static_cast<double>(victim.stats().bytes_read);
  const double s = static_cast<double>(stealer.stats().bytes_read);
  ASSERT_GT(v + s, 0);
  // 4-beat vs 256-beat bursts: the stealer gets the lion's share.
  EXPECT_GT(s / (v + s), 0.9);
}

TEST_F(ScFixture, IdenticalMastersGetEqualShares) {
  // Two identical greedy masters: round-robin gives each half the service.
  TrafficConfig cfg;
  cfg.direction = TrafficDirection::kRead;
  cfg.burst_beats = 16;
  TrafficGenerator a_gen("a", sc.port_link(0), cfg);
  TrafficGenerator b_gen("b", sc.port_link(1), cfg);
  sim.add(a_gen);
  sim.add(b_gen);
  sim.reset();
  sim.run(50000);
  const double a = static_cast<double>(a_gen.stats().bytes_read);
  const double b = static_cast<double>(b_gen.stats().bytes_read);
  EXPECT_NEAR(a / (a + b), 0.5, 0.05);
}

TEST(SmartConnectGranularity, VariableGranularityBatchesGrants) {
  // With granularity g and both masters backlogged, the arbiter hands out
  // up to g consecutive grants per master. Observable as g-sized batches in
  // the grant sequence; here we check the aggregate effect: with g=4 a
  // master with queued requests is served in bursts (its counter advances
  // by >= 2 while the other's stalls at least once).
  SmartConnectConfig cfg;
  cfg.grant_granularity = 4;
  Simulator sim;
  BackingStore store;
  SmartConnect sc("sc", 2, cfg);
  MemoryController mem("ddr", sc.master_link(), store, {});
  sc.register_with(sim);
  sim.add(mem);

  TrafficConfig greedy;
  greedy.direction = TrafficDirection::kRead;
  greedy.burst_beats = 16;
  greedy.max_outstanding = 16;
  TrafficGenerator g0("g0", sc.port_link(0), greedy);
  TrafficGenerator g1("g1", sc.port_link(1), greedy);
  sim.add(g0);
  sim.add(g1);
  sim.reset();

  // Sample the grant counters every cycle and look for a batch of 2+
  // consecutive grants to the same port while the other has backlog.
  bool saw_batch = false;
  std::uint64_t prev0 = 0;
  std::uint64_t prev1 = 0;
  std::uint64_t run0 = 0;
  for (int i = 0; i < 5000 && !saw_batch; ++i) {
    sim.step();
    const std::uint64_t d0 = sc.counters(0).ar_granted - prev0;
    const std::uint64_t d1 = sc.counters(1).ar_granted - prev1;
    prev0 += d0;
    prev1 += d1;
    if (d0 > 0 && d1 == 0) {
      run0 += d0;
      if (run0 >= 2 && prev1 > 0) saw_batch = true;
    } else if (d1 > 0) {
      run0 = 0;
    }
  }
  EXPECT_TRUE(saw_batch);
}

struct GranularityResult {
  std::uint64_t worst_interference_txns = 0;
  Cycle worst_read_latency = 0;
};

/// The paper's interference bound observed directly: a sparse single-beat
/// victim on port 0 against a greedy 16-beat interferer on port 1. For each
/// victim request, counts the interferer grants between the victim's issue
/// and its own grant.
GranularityResult measure_granularity(std::unique_ptr<Interconnect> icn) {
  Simulator sim;
  BackingStore store;
  MemoryController mem("ddr", icn->master_link(), store, {});
  icn->register_with(sim);
  sim.add(mem);

  TrafficConfig victim_cfg;
  victim_cfg.direction = TrafficDirection::kRead;
  victim_cfg.burst_beats = 1;
  victim_cfg.gap_cycles = 120;
  victim_cfg.max_outstanding = 1;
  victim_cfg.base = 0x4000'0000;
  TrafficGenerator victim("victim", icn->port_link(0), victim_cfg);
  TrafficConfig greedy;
  greedy.direction = TrafficDirection::kRead;
  greedy.burst_beats = 16;
  greedy.max_outstanding = 16;
  greedy.base = 0x6000'0000;
  TrafficGenerator interferer("greedy", icn->port_link(1), greedy);
  sim.add(victim);
  sim.add(interferer);
  sim.reset();

  GranularityResult res;
  bool waiting = false;
  std::uint64_t interferer_grants_at_issue = 0;
  std::uint64_t victim_grants_seen = 0;
  std::uint64_t victim_issued_seen = 0;
  for (int i = 0; i < 150000; ++i) {
    sim.step();
    if (!waiting && victim.transactions_issued() > victim_issued_seen) {
      waiting = true;
      victim_issued_seen = victim.transactions_issued();
      interferer_grants_at_issue = icn->counters(1).ar_granted;
    }
    if (waiting && icn->counters(0).ar_granted > victim_grants_seen) {
      waiting = false;
      victim_grants_seen = icn->counters(0).ar_granted;
      res.worst_interference_txns =
          std::max(res.worst_interference_txns,
                   icn->counters(1).ar_granted - interferer_grants_at_issue);
    }
  }
  res.worst_read_latency = victim.stats().read_latency.max();
  return res;
}

TEST(SmartConnectGranularity, PaperAblationInterferenceIsGTimesNMinus1) {
  // §V-B: SmartConnect's variable round-robin granularity g lets g x (N-1)
  // interferer transactions pass a pending request; the EXBAR fixes g = 1.
  struct Row {
    std::uint32_t g;
    Cycle worst_latency;
  };
  for (const Row row :
       {Row{1, 306}, Row{2, 334}, Row{4, 390}, Row{8, 502}}) {
    SmartConnectConfig cfg;
    cfg.grant_granularity = row.g;
    cfg.max_outstanding_reads = 8;  // bound memory queueing
    const GranularityResult r =
        measure_granularity(std::make_unique<SmartConnect>("sc", 2, cfg));
    EXPECT_EQ(r.worst_read_latency, row.worst_latency) << "g=" << row.g;
    EXPECT_EQ(r.worst_interference_txns, row.g * (2 - 1))
        << "observed SC interference equals the g x (N-1) bound, g="
        << row.g;
  }

  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  cfg.route_capacity = 8;
  const GranularityResult hc =
      measure_granularity(std::make_unique<HyperConnect>("hc", cfg));
  EXPECT_EQ(hc.worst_interference_txns, 0u);
  EXPECT_EQ(hc.worst_read_latency, 166u);
  EXPECT_LE(hc.worst_interference_txns, 1u)
      << "the EXBAR's fixed g = 1 admits at most one interferer";
}

TEST(SmartConnectPorts, FourPortFairness) {
  Simulator sim;
  BackingStore store;
  SmartConnect sc("sc", 4, {});
  MemoryController mem("ddr", sc.master_link(), store, {});
  sc.register_with(sim);
  sim.add(mem);

  std::vector<std::unique_ptr<TrafficGenerator>> gens;
  TrafficConfig cfg;
  cfg.direction = TrafficDirection::kRead;
  cfg.burst_beats = 16;
  for (PortIndex i = 0; i < 4; ++i) {
    cfg.base = 0x4000'0000 + (static_cast<Addr>(i) << 24);
    gens.push_back(std::make_unique<TrafficGenerator>(
        "g" + std::to_string(i), sc.port_link(i), cfg));
    sim.add(*gens.back());
  }
  sim.reset();
  sim.run(80000);

  double total = 0;
  for (const auto& g : gens) total += static_cast<double>(g->stats().bytes_read);
  ASSERT_GT(total, 0);
  for (const auto& g : gens) {
    EXPECT_NEAR(static_cast<double>(g->stats().bytes_read) / total, 0.25,
                0.05);
  }
}

}  // namespace
}  // namespace axihc
