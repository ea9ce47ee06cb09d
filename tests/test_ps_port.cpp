// The DDR controller's PS port: correctness on both ports, PS-priority
// arbitration, the CPU-protection effect of FPGA-side reservation, and
// fast-forward identity of the CPU-protection rig.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"
#include "ha/dma_engine.hpp"
#include "ha/traffic_gen.hpp"
#include "hyperconnect/hyperconnect.hpp"
#include "mem/memory_controller.hpp"
#include "obs/latency_audit.hpp"
#include "sim/simulator.hpp"
#include "stats/stats.hpp"

namespace axihc {
namespace {

/// Plain rig (not a gtest fixture) so both fixtures and standalone tests
/// can instantiate it with either arbitration mode.
struct DualRig {
  explicit DualRig(bool ps_priority = true)
      : ps_link("ps"),
        fpga_link("fpga"),
        ddr("ddr", fpga_link, store, make_cfg(ps_priority), &ps_link) {
    ps_link.register_with(sim);
    fpga_link.register_with(sim);
    sim.add(ddr);
  }

  static MemoryControllerConfig make_cfg(bool ps_priority) {
    MemoryControllerConfig c;
    c.row_hit_latency = 4;
    c.row_miss_latency = 10;
    c.ps_priority = ps_priority;
    return c;
  }

  Simulator sim;
  AxiLink ps_link;
  AxiLink fpga_link;
  BackingStore store;
  MemoryController ddr;
};

struct DualFixture : ::testing::Test, DualRig {};

TEST_F(DualFixture, ServesBothPortsCorrectly) {
  DmaConfig d;
  d.mode = DmaMode::kWrite;
  d.bytes_per_job = 512;
  d.burst_beats = 8;
  d.max_jobs = 1;
  d.write_base = 0x1000;
  DmaEngine cpu_side("cpu", ps_link, d);
  d.write_base = 0x9000;
  DmaEngine fpga_side("fpga", fpga_link, d);
  sim.add(cpu_side);
  sim.add(fpga_side);
  sim.reset();

  ASSERT_TRUE(sim.run_until(
      [&] { return cpu_side.finished() && fpga_side.finished(); }, 100000));
  for (Addr o = 0; o < 512; o += 64) {
    EXPECT_EQ(store.read_word(0x1000 + o), o);
    EXPECT_EQ(store.read_word(0x9000 + o), o);
  }
  EXPECT_EQ(cpu_side.stats().writes_completed, 8u);
  EXPECT_EQ(fpga_side.stats().writes_completed, 8u);
  EXPECT_EQ(ddr.writes_served(), 16u);
}

TEST_F(DualFixture, PsPriorityJumpsTheQueue) {
  // Fill the queue with FPGA work, then inject one PS read: with priority
  // it must be served before the queued FPGA backlog drains.
  TrafficConfig flood;
  flood.direction = TrafficDirection::kRead;
  flood.burst_beats = 16;
  flood.max_outstanding = 8;
  flood.base = 0x4000'0000;
  TrafficGenerator fpga("fpga", fpga_link, flood);
  sim.add(fpga);

  TrafficConfig probe;
  probe.direction = TrafficDirection::kRead;
  probe.burst_beats = 1;
  probe.gap_cycles = 400;
  probe.max_outstanding = 1;
  probe.base = 0x0100'0000;
  TrafficGenerator cpu("cpu", ps_link, probe);
  sim.add(cpu);
  sim.reset();
  sim.run(60000);

  ASSERT_GT(cpu.stats().read_latency.count(), 10u);
  // With PS priority, a CPU read waits at most the in-service FPGA burst
  // (non-preemptive blocking) + its own service: well under two bursts.
  EXPECT_LE(cpu.stats().read_latency.max(), 70u);
}

TEST(DualPortFair, FifoArbitrationMakesCpuWaitBehindBacklog) {
  // Negative control: without PS priority, the CPU read queues behind the
  // full FPGA backlog and its worst-case latency blows up.
  DualRig fair_rig(false);
  TrafficConfig flood;
  flood.direction = TrafficDirection::kRead;
  flood.burst_beats = 16;
  flood.max_outstanding = 8;
  flood.base = 0x4000'0000;
  TrafficGenerator fpga("fpga", fair_rig.fpga_link, flood);
  fair_rig.sim.add(fpga);
  TrafficConfig probe;
  probe.direction = TrafficDirection::kRead;
  probe.burst_beats = 1;
  probe.gap_cycles = 400;
  probe.max_outstanding = 1;
  probe.base = 0x0100'0000;
  TrafficGenerator cpu("cpu", fair_rig.ps_link, probe);
  fair_rig.sim.add(cpu);
  fair_rig.sim.reset();
  fair_rig.sim.run(60000);

  ASSERT_GT(cpu.stats().read_latency.count(), 10u);
  EXPECT_GT(cpu.stats().read_latency.max(), 100u);
}

TEST(PsPort, NeedsInOrderSchedulingAndNoLatencyAuditor) {
  // FR-FCFS buffers W data from the FPGA link only, and the auditor matches
  // one port's commands positionally: neither fits a PS port.
  AxiLink ps_link("ps");
  AxiLink fpga_link("fpga");
  BackingStore store;
  MemoryControllerConfig fr;
  fr.scheduling = MemScheduling::kFrFcfs;
  EXPECT_THROW(MemoryController("ddr", fpga_link, store, fr, &ps_link),
               ModelError);
  MemoryController ddr("ddr", fpga_link, store, {}, &ps_link);
  LatencyAudit audit(1, 16);
  EXPECT_THROW(ddr.set_latency_audit(&audit), ModelError);
}

struct CpuResult {
  double cpu_mean_latency = 0;
  Cycle cpu_max_latency = 0;
  std::uint64_t cpu_reads = 0;
  std::uint64_t fpga_bytes = 0;
  double fpga_mb_s = 0;
  Cycle final_cycle = 0;
  std::uint64_t digest = 0;
};

/// A CPU-like master reading one cache line every 150 cycles on the DDRC's
/// PS port while two greedy 1 MiB read+write DMAs flood it through a
/// HyperConnect on the FPGA port. `fpga_budget` is the total transactions
/// per 2000-cycle window, split evenly (0 = reservation off).
CpuResult run_cpu_protection(std::uint32_t fpga_budget, bool ps_priority,
                             bool fast_forward = true) {
  Simulator sim;
  sim.set_fast_forward(fast_forward);
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  cfg.nominal_burst = 16;
  if (fpga_budget != 0) {
    cfg.reservation_period = 2000;
    cfg.initial_budgets = {fpga_budget / 2, fpga_budget / 2};
  }
  HyperConnect hc("hc", cfg);
  AxiLink cpu_link("cpu");
  cpu_link.register_with(sim);
  MemoryControllerConfig mc;
  mc.ps_priority = ps_priority;
  MemoryController ddr("ddr", hc.master_link(), store, mc, &cpu_link);
  hc.register_with(sim);
  sim.add(ddr);

  TrafficConfig probe;
  probe.direction = TrafficDirection::kRead;
  probe.burst_beats = 8;  // one 64-byte cache line
  probe.gap_cycles = 150;
  probe.max_outstanding = 1;
  probe.base = 0x0100'0000;
  TrafficGenerator cpu("cpu", cpu_link, probe);
  sim.add(cpu);
  DmaConfig d;
  d.mode = DmaMode::kReadWrite;
  d.bytes_per_job = 1u << 20;
  DmaEngine dma0("dma0", hc.port_link(0), d);
  d.read_base = 0x5000'0000;
  d.write_base = 0x6000'0000;
  DmaEngine dma1("dma1", hc.port_link(1), d);
  sim.add(dma0);
  sim.add(dma1);
  sim.reset();
  sim.run(300000);

  CpuResult r;
  r.cpu_mean_latency = cpu.stats().read_latency.mean();
  r.cpu_max_latency = cpu.stats().read_latency.max();
  r.cpu_reads = cpu.stats().read_latency.count();
  r.fpga_bytes = dma0.stats().bytes_read + dma0.stats().bytes_written +
                 dma1.stats().bytes_read + dma1.stats().bytes_written;
  r.fpga_mb_s =
      RateMeter(150e6).bytes_per_second(r.fpga_bytes, sim.now()) / 1e6;
  r.final_cycle = sim.now();
  r.digest = sim.state_digest();
  return r;
}

TEST(CpuProtection, PaperAblationFpgaBudgetRestoresCpuLatency) {
  // §V-A: reservation also "controls the overall memory traffic coming from
  // the FPGA", which delays software on the PS. Budget 2 is a near-idle
  // FPGA; 0 is reservation off.
  struct Row {
    std::uint32_t budget;
    double mean;
    Cycle max;
    double fpga_mb_s;
  };
  const Row fair[] = {{2, 22.3, 110, 19.2},
                      {16, 82.3, 654, 153.6},
                      {32, 211.3, 705, 307.2},
                      {48, 691.3, 705, 442.6},
                      {0, 691.8, 705, 442.3}};
  const Row prio[] = {{2, 21.5, 69, 19.2},
                      {16, 29.6, 75, 153.6},
                      {32, 38.1, 75, 307.2},
                      {48, 43.1, 75, 388.3},
                      {0, 43.1, 75, 388.3}};
  for (const bool ps_priority : {false, true}) {
    std::vector<CpuResult> results;
    for (const Row& row : ps_priority ? prio : fair) {
      const CpuResult r = run_cpu_protection(row.budget, ps_priority);
      const std::string label =
          std::string(ps_priority ? "PS-priority" : "fair") +
          " DDRC, budget " + std::to_string(row.budget);
      EXPECT_NEAR(r.cpu_mean_latency, row.mean, 0.05) << label;
      EXPECT_EQ(r.cpu_max_latency, row.max) << label;
      EXPECT_NEAR(r.fpga_mb_s, row.fpga_mb_s, 0.05) << label;
      results.push_back(r);
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_GE(results[i].cpu_mean_latency, results[i - 1].cpu_mean_latency)
          << "tightening the FPGA budget walks CPU latency back";
    }
    if (ps_priority) {
      EXPECT_LE(results.back().cpu_max_latency, 75u)
          << "PS priority bounds the CPU's worst case";
      EXPECT_LT(results[1].fpga_mb_s, results.back().fpga_mb_s / 2)
          << "under PS priority the budget still caps FPGA bandwidth";
    } else {
      EXPECT_GT(results.back().cpu_mean_latency,
                10 * results.front().cpu_mean_latency)
          << "on a fair DDRC unlimited FPGA traffic inflates CPU latency "
             ">10x";
    }
  }
}

TEST(KernelFastPath, CpuProtectionRigIsBitIdenticalToNaiveStepping) {
  // The CPU master's gaps let the kernel skip whole stretches, so the PS
  // port's AR/AW must wake the controller like the FPGA port's do.
  for (const bool ps_priority : {false, true}) {
    for (const std::uint32_t budget : {16u, 0u}) {
      SCOPED_TRACE(std::string(ps_priority ? "PS-priority" : "fair") +
                   ", budget " + std::to_string(budget));
      const CpuResult fast = run_cpu_protection(budget, ps_priority, true);
      const CpuResult naive = run_cpu_protection(budget, ps_priority, false);
      EXPECT_EQ(fast.digest, naive.digest);
      EXPECT_EQ(fast.final_cycle, naive.final_cycle);
      EXPECT_EQ(fast.cpu_reads, naive.cpu_reads);
      EXPECT_EQ(fast.cpu_mean_latency, naive.cpu_mean_latency);
      EXPECT_EQ(fast.cpu_max_latency, naive.cpu_max_latency);
      EXPECT_EQ(fast.fpga_bytes, naive.fpga_bytes);
    }
  }
}

}  // namespace
}  // namespace axihc
