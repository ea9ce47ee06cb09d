// Stress and failure-injection tests: long pseudo-random multi-master runs
// with protocol monitors everywhere, extreme backpressure configurations,
// mid-flight resets, and hostile traffic — the suite that earns trust in
// the model's structural invariants.
#include <gtest/gtest.h>

#include <memory>

#include "axi/monitor.hpp"
#include "ha/dma_engine.hpp"
#include "ha/trace_player.hpp"
#include "ha/traffic_gen.hpp"
#include "hyperconnect/hyperconnect.hpp"
#include "mem/backing_store.hpp"
#include "mem/memory_controller.hpp"
#include "sim/simulator.hpp"

namespace axihc {
namespace {

/// Deterministic 64-bit LCG (no std::random: runs must be reproducible
/// across standard libraries).
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed * 2 + 1) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 11;
  }
  std::uint64_t next(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// Builds a random but legal trace: sorted issue cycles, 1..256-beat
/// bursts, 4KiB-safe addresses.
std::vector<TraceEntry> random_trace(std::uint64_t seed, std::size_t count,
                                     Addr base) {
  Lcg rng(seed);
  std::vector<TraceEntry> trace;
  Cycle t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    t += rng.next(40);
    TraceEntry e;
    e.issue_at = t;
    e.is_write = rng.next(2) == 1;
    const BeatCount pow2[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
    e.beats = pow2[rng.next(9)];
    // Align the start so the burst cannot cross a 4KiB boundary.
    const std::uint64_t burst_bytes = std::uint64_t{e.beats} * 8;
    e.addr = base + rng.next(1024) * 4096 + rng.next(4096 / burst_bytes) *
                                                burst_bytes;
    trace.push_back(e);
  }
  return trace;
}

class RandomStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomStress, MonitoredRandomTrafficStaysClean) {
  const std::uint64_t seed = GetParam();
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 3;
  cfg.nominal_burst = 16;
  cfg.max_outstanding = 6;
  HyperConnect hc("hc", cfg);
  MemoryControllerConfig mc;
  mc.row_hit_latency = 6;
  mc.row_miss_latency = 18;
  MemoryController mem("ddr", hc.master_link(), store, mc);
  hc.register_with(sim);
  sim.add(mem);

  std::vector<std::unique_ptr<AxiMonitor>> monitors;
  std::vector<std::unique_ptr<TracePlayer>> players;
  for (PortIndex p = 0; p < 3; ++p) {
    monitors.push_back(std::make_unique<AxiMonitor>(
        "mon" + std::to_string(p), hc.port_link(p)));
    monitors.back()->set_throw_on_violation(true);
    sim.add(*monitors.back());
    players.push_back(std::make_unique<TracePlayer>(
        "p" + std::to_string(p), hc.port_link(p),
        random_trace(seed + p, 120, 0x4000'0000 + (static_cast<Addr>(p)
                                                   << 26))));
    sim.add(*players.back());
  }
  sim.reset();

  ASSERT_TRUE(sim.run_until(
      [&] {
        for (const auto& p : players) {
          if (!p->finished()) return false;
        }
        return true;
      },
      3'000'000));
  std::uint64_t total_txns = 0;
  for (PortIndex p = 0; p < 3; ++p) {
    EXPECT_TRUE(monitors[p]->clean());
    total_txns += players[p]->stats().reads_completed +
                  players[p]->stats().writes_completed;
  }
  EXPECT_EQ(total_txns, 3u * 120u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStress,
                         ::testing::Values(1, 7, 42, 1234, 98765));

TEST(Stress, TinyChannelDepthsStillComplete) {
  // Every queue at its minimum workable depth: progress must still be made
  // (slowly), with nothing lost.
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  AxiLinkConfig tiny;
  tiny.ar_depth = 1;
  tiny.aw_depth = 1;
  tiny.w_depth = 2;
  tiny.r_depth = 2;
  tiny.b_depth = 1;
  cfg.port_link_cfg = tiny;
  cfg.master_link_cfg = tiny;
  cfg.ts_stage_depth = 1;
  cfg.xbar_stage_depth = 1;
  cfg.route_capacity = 2;
  HyperConnect hc("hc", cfg);
  MemoryController mem("ddr", hc.master_link(), store, {});
  hc.register_with(sim);
  sim.add(mem);

  DmaConfig d;
  d.mode = DmaMode::kReadWrite;
  d.bytes_per_job = 2048;
  d.burst_beats = 16;
  d.max_jobs = 1;
  DmaEngine dma0("dma0", hc.port_link(0), d);
  d.read_base = 0x5000'0000;
  d.write_base = 0x6000'0000;
  DmaEngine dma1("dma1", hc.port_link(1), d);
  sim.add(dma0);
  sim.add(dma1);
  sim.reset();

  ASSERT_TRUE(sim.run_until(
      [&] { return dma0.finished() && dma1.finished(); }, 2'000'000));
  EXPECT_EQ(dma0.stats().bytes_read, 2048u);
  EXPECT_EQ(dma1.stats().bytes_written, 2048u);
}

TEST(Stress, RepeatedMidFlightResets) {
  // Reset the whole system at arbitrary points; behaviour after each reset
  // must match a fresh run (prefix determinism).
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  cfg.reservation_period = 500;
  cfg.initial_budgets = {10, 10};
  HyperConnect hc("hc", cfg);
  MemoryController mem("ddr", hc.master_link(), store, {});
  hc.register_with(sim);
  sim.add(mem);
  TrafficConfig t;
  t.direction = TrafficDirection::kMixed;
  t.burst_beats = 16;
  TrafficGenerator gen("gen", hc.port_link(0), t);
  sim.add(gen);

  std::uint64_t reference = 0;
  for (const Cycle horizon : {100u, 777u, 2048u, 5000u}) {
    sim.reset();
    sim.run(horizon);
    if (horizon == 5000u) reference = gen.stats().bytes_read;
  }
  // A final fresh run must reproduce the last measurement exactly.
  sim.reset();
  sim.run(5000);
  EXPECT_EQ(gen.stats().bytes_read, reference);
}

TEST(Stress, MalformedMasterIsContainedByMonitor) {
  // A hostile master pushes requests AxLEN can encode but AXI forbids into
  // port 0 (4 KiB-crossing INCR bursts, 6-beat WRAP bursts) and never takes
  // its read data. The passive monitor on its link flags them, the
  // protection unit contains the port, legal traffic on the other port is
  // unaffected, and nothing crashes.
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  // Until the timeout fires, the hostile port's full R queue blocks the
  // shared read path (FaultCause::kReadStall).
  cfg.prot_timeout = 100;
  HyperConnect hc("hc", cfg);
  MemoryController mem("ddr", hc.master_link(), store, {});
  hc.register_with(sim);
  sim.add(mem);

  AxiLink& hostile_link = hc.port_link(0);
  AxiMonitor guard("guard", hostile_link);
  sim.add(guard);

  TrafficConfig t;
  t.direction = TrafficDirection::kRead;
  t.burst_beats = 8;
  TrafficGenerator good("good", hc.port_link(1), t);
  sim.add(good);
  sim.reset();

  // Inject illegal requests over 2000 cycles.
  Lcg rng(99);
  for (int i = 0; i < 40; ++i) {
    AddrReq bad;
    bad.id = static_cast<TxnId>(rng.next(100));
    if (rng.next(2) == 0) {
      bad.addr = 0x0FF0 + rng.next(8) * 8;  // INCR across 0x1000
      bad.beats = static_cast<BeatCount>(16 + rng.next(241));
    } else {
      bad.addr = 0x2000;
      bad.beats = 6;
      bad.burst = BurstType::kWrap;
    }
    if (hostile_link.ar.can_push()) hostile_link.ar.push(bad);
    sim.run(50);
  }
  EXPECT_FALSE(guard.clean());
  EXPECT_GT(good.stats().reads_completed, 80u);
  EXPECT_TRUE(hc.port_fault(0).faulted);
  EXPECT_FALSE(hc.port_fault(1).faulted);
}

TEST(Stress, LongRunIdWraparound) {
  // Master IDs wrap at 2^16; a long single-master run crossing the wrap
  // boundary must stay consistent. Force the wrap quickly with single-beat
  // transactions and a fast memory.
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 1;
  cfg.nominal_burst = 0;  // no splitting: maximize transaction rate
  cfg.max_outstanding = 8;
  HyperConnect hc("hc", cfg);
  MemoryControllerConfig mc;
  mc.row_hit_latency = 1;
  mc.row_miss_latency = 2;
  mc.turnaround = 0;
  MemoryController mem("ddr", hc.master_link(), store, mc);
  hc.register_with(sim);
  sim.add(mem);

  TrafficConfig t;
  t.direction = TrafficDirection::kRead;
  t.burst_beats = 1;
  t.max_outstanding = 8;
  TrafficGenerator gen("gen", hc.port_link(0), t);
  sim.add(gen);
  sim.reset();

  // ~70k transactions cross the 65535 id wrap at least once.
  sim.run_until([&] { return gen.stats().reads_completed > 70'000; },
                2'000'000);
  EXPECT_GT(gen.stats().reads_completed, 70'000u);
}

}  // namespace
}  // namespace axihc
