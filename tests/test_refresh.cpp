// DRAM refresh model (tREFI/tRFC) and its worst-case analysis term.
#include <gtest/gtest.h>

#include "analysis/wcla.hpp"
#include "ha/traffic_gen.hpp"
#include "hyperconnect/hyperconnect.hpp"
#include "mem/memory_controller.hpp"
#include "platform/platform.hpp"
#include "sim/simulator.hpp"

namespace axihc {
namespace {

MemoryControllerConfig refresh_cfg() {
  MemoryControllerConfig c;
  c.row_hit_latency = 4;
  c.row_miss_latency = 10;
  c.refresh_period = 200;
  c.refresh_duration = 20;
  return c;
}

TEST(Refresh, BlocksServiceDuringWindow) {
  Simulator sim;
  AxiLink link("l");
  BackingStore store;
  MemoryController mem("ddr", link, store, refresh_cfg());
  link.register_with(sim);
  sim.add(mem);
  sim.reset();

  // Greedy single-beat reads; throughput loses ~10% (20/200) plus the
  // cold-row penalty after each refresh closes the rows.
  TrafficConfig t;
  t.direction = TrafficDirection::kRead;
  t.burst_beats = 1;
  t.region_bytes = 64;  // one row: all hits between refreshes
  TrafficGenerator gen("gen", link, t);
  sim.add(gen);
  sim.reset();
  sim.run(10000);
  EXPECT_EQ(mem.refreshes(), 50u);  // every 200 cycles

  // Compare against a refresh-free run.
  Simulator sim2;
  AxiLink link2("l2");
  BackingStore store2;
  MemoryControllerConfig no_refresh = refresh_cfg();
  no_refresh.refresh_period = 0;
  MemoryController mem2("ddr2", link2, store2, no_refresh);
  TrafficGenerator gen2("gen2", link2, t);
  link2.register_with(sim2);
  sim2.add(mem2);
  sim2.add(gen2);
  sim2.reset();
  sim2.run(10000);

  EXPECT_LT(gen.stats().reads_completed, gen2.stats().reads_completed);
  EXPECT_GT(gen.stats().reads_completed,
            gen2.stats().reads_completed * 8 / 10);
}

TEST(Refresh, ClosesOpenRows) {
  Simulator sim;
  AxiLink link("l");
  BackingStore store;
  MemoryController mem("ddr", link, store, refresh_cfg());
  link.register_with(sim);
  sim.add(mem);
  sim.reset();

  // Two accesses to the same row, straddling a refresh: both miss.
  AddrReq a;
  a.id = 1;
  a.addr = 0x0;
  a.beats = 1;
  link.ar.push(a);
  sim.run_until([&] { return link.r.can_pop(); }, 300);
  link.r.pop();
  // Skip past the next refresh window.
  while (sim.now() % 200 != 25) sim.step();
  a.id = 2;
  link.ar.push(a);
  sim.run_until([&] { return link.r.can_pop(); }, 300);
  EXPECT_EQ(mem.row_misses(), 2u);
  EXPECT_EQ(mem.row_hits(), 0u);
}

TEST(Refresh, WithRefreshBoundFixedPoint) {
  AnalysisPlatform p;
  p.refresh_period = 100;
  p.refresh_duration = 10;
  // A 0-cycle span needs no refresh slack.
  EXPECT_EQ(with_refresh(p, 0), 0u);
  // A 50-cycle span can overlap one refresh: 50 + 10 = 60.
  EXPECT_EQ(with_refresh(p, 50), 60u);
  // A 95-cycle span: +10 -> 105, which spans two intervals -> +20 = 115.
  EXPECT_EQ(with_refresh(p, 95), 115u);
  // Refresh disabled: identity.
  AnalysisPlatform off;
  EXPECT_EQ(with_refresh(off, 1234), 1234u);
}

TEST(Refresh, WcrtBoundDominatesObservedWorstCaseWithRefresh) {
  // The headline soundness check, now with refresh enabled end to end.
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  cfg.nominal_burst = 16;
  cfg.max_outstanding = 4;
  HyperConnect hc("hc", cfg);
  MemoryControllerConfig mc;
  mc.row_hit_latency = 10;
  mc.row_miss_latency = 24;
  mc.refresh_period = 500;
  mc.refresh_duration = 40;
  MemoryController mem("ddr", hc.master_link(), store, mc);
  hc.register_with(sim);
  sim.add(mem);

  TrafficConfig vcfg;
  vcfg.direction = TrafficDirection::kRead;
  vcfg.burst_beats = 16;
  vcfg.gap_cycles = 93;
  vcfg.max_outstanding = 1;
  vcfg.base = 0x4000'0000;
  TrafficGenerator victim("victim", hc.port_link(0), vcfg);
  TrafficConfig acfg;
  acfg.direction = TrafficDirection::kRead;
  acfg.burst_beats = 16;
  acfg.base = 0x6000'0000;
  TrafficGenerator adversary("adv", hc.port_link(1), acfg);
  sim.add(victim);
  sim.add(adversary);
  sim.reset();
  sim.run(300000);
  ASSERT_GT(victim.stats().read_latency.count(), 0u);
  const Cycle observed = victim.stats().read_latency.max();

  HcAnalysisConfig a;
  a.num_ports = 2;
  a.nominal_burst = 16;
  a.competitor_backlog = 4;
  const AnalysisPlatform p = analysis_platform(mc);
  const Cycle bound = wcrt_read(a, p, 0, 16);
  EXPECT_LE(observed, bound);

  // And the refresh term matters: the refresh-free bound may be exceeded.
  AnalysisPlatform p_no_refresh = p;
  p_no_refresh.refresh_period = 0;
  EXPECT_GT(bound, wcrt_read(a, p_no_refresh, 0, 16));
}

}  // namespace
}  // namespace axihc
