// Per-channel propagation latency: the cycle-exact reproduction of the
// paper's Fig. 3(a) claims.
//
//   HyperConnect : dAR = dAW = 4,  dR = dW = 2,  dB = 2
//   SmartConnect : dAR = dAW = 12, dR = 11, dW = 3, dB = 2
//
// Method: attach an instrumented zero-latency slave (LoopbackSlave) to the
// interconnect's master port, drive the HA-side channels directly at known
// cycles, and compare push cycles to arrival cycles.
#include <gtest/gtest.h>

#include "loopback_slave.hpp"
#include "hyperconnect/hyperconnect.hpp"
#include "interconnect/smartconnect.hpp"
#include "sim/simulator.hpp"

namespace axihc {
namespace {

/// Measures the five channel latencies through `icn`.
struct ChannelLatencies {
  Cycle ar = 0;
  Cycle aw = 0;
  Cycle r = 0;
  Cycle w = 0;
  Cycle b = 0;
};

ChannelLatencies measure(Interconnect& icn, Simulator& sim,
                         LoopbackSlave& slave) {
  ChannelLatencies lat;
  AxiLink& port = icn.port_link(0);
  sim.reset();

  // --- read transaction: AR downstream, R upstream -----------------------
  AddrReq ar;
  ar.id = 1;
  ar.addr = 0x100;
  ar.beats = 1;
  const Cycle ar_pushed = sim.now();
  port.ar.push(ar);
  const bool got_r = sim.run_until([&] { return port.r.can_pop(); }, 200);
  EXPECT_TRUE(got_r);
  EXPECT_EQ(slave.ar_arrivals.size(), 1u);
  lat.ar = slave.ar_arrivals[0] - ar_pushed;
  lat.r = sim.now() - slave.r_first_push[0];
  port.r.pop();

  // --- write transaction: AW alone, then W on the established route,
  // then B upstream -------------------------------------------------------
  AddrReq aw;
  aw.id = 2;
  aw.addr = 0x200;
  aw.beats = 1;
  const Cycle aw_pushed = sim.now();
  port.aw.push(aw);
  EXPECT_TRUE(
      sim.run_until([&] { return !slave.aw_arrivals.empty(); }, 200));
  lat.aw = slave.aw_arrivals.at(0) - aw_pushed;
  const Cycle w_pushed = sim.now();
  port.w.push({0xAB, 0xff, true});
  EXPECT_TRUE(
      sim.run_until([&] { return !slave.w_first_beat.empty(); }, 200));
  lat.w = slave.w_first_beat.at(0) - w_pushed;
  // The slave emits B with the last W beat.
  EXPECT_TRUE(sim.run_until([&] { return port.b.can_pop(); }, 200));
  lat.b = sim.now() - slave.b_pushes.at(0);
  port.b.pop();
  return lat;
}

TEST(ChannelLatency, HyperConnectMatchesPaperFig3a) {
  Simulator sim;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  HyperConnect hc("hc", cfg);
  LoopbackSlave slave("slave", hc.master_link());
  hc.register_with(sim);
  sim.add(slave);

  const ChannelLatencies lat = measure(hc, sim, slave);
  // eFIFO(1) + TS(1) + EXBAR(1) + eFIFO(1) on address channels.
  EXPECT_EQ(lat.ar, 4u);
  EXPECT_EQ(lat.aw, 4u);
  // eFIFO(1) + eFIFO(1) on data/response channels (TS/EXBAR proactive).
  EXPECT_EQ(lat.r, 2u);
  EXPECT_EQ(lat.w, 2u);
  EXPECT_EQ(lat.b, 2u);
}

TEST(ChannelLatency, HyperConnectWriteDataTravelsWithItsAddress) {
  // W pushed together with its AW can only be pulled after the AW grant, so
  // the first W beat reaches the slave at most one cycle after the AW.
  Simulator sim;
  HyperConnect hc("hc", {});
  LoopbackSlave slave("slave", hc.master_link());
  hc.register_with(sim);
  sim.add(slave);
  sim.reset();

  AddrReq aw;
  aw.id = 2;
  aw.addr = 0x200;
  aw.beats = 1;
  hc.port_link(0).aw.push(aw);
  hc.port_link(0).w.push({0xAB, 0xff, true});
  ASSERT_TRUE(
      sim.run_until([&] { return !slave.w_first_beat.empty(); }, 200));
  ASSERT_EQ(slave.aw_arrivals.size(), 1u);
  EXPECT_LE(slave.w_first_beat[0] - slave.aw_arrivals[0], 1u);
}

TEST(ChannelLatency, SmartConnectMatchesPaperFig3a) {
  Simulator sim;
  SmartConnect sc("sc", 2, {});
  LoopbackSlave slave("slave", sc.master_link());
  sc.register_with(sim);
  sim.add(slave);

  const ChannelLatencies lat = measure(sc, sim, slave);
  EXPECT_EQ(lat.ar, 12u);
  EXPECT_EQ(lat.aw, 12u);
  EXPECT_EQ(lat.r, 11u);
  EXPECT_EQ(lat.w, 3u);
  EXPECT_EQ(lat.b, 2u);
}

TEST(ChannelLatency, ImprovementPercentagesMatchPaper) {
  Simulator sim_hc;
  HyperConnect hc("hc", {});
  LoopbackSlave sl_hc("s1", hc.master_link());
  hc.register_with(sim_hc);
  sim_hc.add(sl_hc);
  const ChannelLatencies l_hc = measure(hc, sim_hc, sl_hc);

  Simulator sim_sc;
  SmartConnect sc("sc", 2, {});
  LoopbackSlave sl_sc("s2", sc.master_link());
  sc.register_with(sim_sc);
  sim_sc.add(sl_sc);
  const ChannelLatencies l_sc = measure(sc, sim_sc, sl_sc);

  auto improvement = [](Cycle ours, Cycle theirs) {
    return 100.0 * (1.0 - static_cast<double>(ours) /
                              static_cast<double>(theirs));
  };
  // Paper: 66% on AR/AW, 82% on R, 33% on W, equal on B.
  EXPECT_NEAR(improvement(l_hc.ar, l_sc.ar), 66.0, 2.0);
  EXPECT_NEAR(improvement(l_hc.aw, l_sc.aw), 66.0, 2.0);
  EXPECT_NEAR(improvement(l_hc.r, l_sc.r), 82.0, 2.0);
  EXPECT_NEAR(improvement(l_hc.w, l_sc.w), 33.0, 1.0);
  EXPECT_EQ(l_hc.b, l_sc.b);

  // Whole transactions: read AR+R is 6 vs 23 cycles (the paper's 74%);
  // write AW+W+B is 8 vs 17. The paper prints 41% for the write, but its
  // own per-channel numbers give 1 - 8/17 = 53%.
  const Cycle read_hc = l_hc.ar + l_hc.r;
  const Cycle read_sc = l_sc.ar + l_sc.r;
  const Cycle write_hc = l_hc.aw + l_hc.w + l_hc.b;
  const Cycle write_sc = l_sc.aw + l_sc.w + l_sc.b;
  EXPECT_EQ(read_hc, 6u);
  EXPECT_EQ(read_sc, 23u);
  EXPECT_EQ(write_hc, 8u);
  EXPECT_EQ(write_sc, 17u);
  EXPECT_NEAR(improvement(read_hc, read_sc), 74.0, 1.0)
      << "HC read transaction 74% faster than SC";
  EXPECT_NEAR(improvement(write_hc, write_sc), 53.0, 1.0)
      << "HC write transaction 53% faster than SC";
}

TEST(ChannelLatency, HyperConnectLatencyIndependentOfBurstSize) {
  // The TS adds one cycle per address request regardless of burst length
  // (§V-B): AR propagation is constant in beats.
  for (BeatCount beats : {1u, 4u, 16u}) {
    Simulator sim;
    HyperConnect hc("hc", {});
    LoopbackSlave slave("slave", hc.master_link());
    hc.register_with(sim);
    sim.add(slave);
    sim.reset();

    AddrReq ar;
    ar.id = 1;
    ar.addr = 0x0;
    ar.beats = beats;
    const Cycle pushed = sim.now();
    hc.port_link(0).ar.push(ar);
    ASSERT_TRUE(
        sim.run_until([&] { return !slave.ar_arrivals.empty(); }, 100));
    EXPECT_EQ(slave.ar_arrivals[0] - pushed, 4u) << "beats=" << beats;
  }
}

TEST(ChannelLatency, HyperConnectWorstCaseArbitrationBound) {
  // With N=2 greedy ports, a request waits at most (N-1) = 1 extra
  // transaction slot at the EXBAR (fixed granularity 1): the second port's
  // AR arrives at most one grant-cycle after the first.
  Simulator sim;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  HyperConnect hc("hc", cfg);
  LoopbackSlave slave("slave", hc.master_link());
  hc.register_with(sim);
  sim.add(slave);
  sim.reset();

  AddrReq a;
  a.id = 1;
  a.addr = 0x0;
  a.beats = 1;
  hc.port_link(0).ar.push(a);
  AddrReq b;
  b.id = 2;
  b.addr = 0x80;
  b.beats = 1;
  hc.port_link(1).ar.push(b);
  const Cycle pushed = sim.now();

  ASSERT_TRUE(sim.run_until([&] { return slave.ar_arrivals.size() == 2; },
                            100));
  EXPECT_EQ(slave.ar_arrivals[0] - pushed, 4u);
  EXPECT_EQ(slave.ar_arrivals[1] - pushed, 5u);  // +1 grant slot, no more
}

}  // namespace
}  // namespace axihc
