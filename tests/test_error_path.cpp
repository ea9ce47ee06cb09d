// End-to-end error-response propagation: SLVERR/DECERR raised at the memory
// controller must survive the HyperConnect's burst equalization — sticky
// across the R beats of a merged read, worst-of across the B responses of a
// merged write — and reach the HA with correct RLAST/B framing.
#include <gtest/gtest.h>

#include "axi/monitor.hpp"
#include "ha/traffic_gen.hpp"
#include "hyperconnect/hyperconnect.hpp"
#include "mem/backing_store.hpp"
#include "mem/memory_controller.hpp"
#include "sim/simulator.hpp"

namespace axihc {
namespace {

struct ErrorPathFixture : ::testing::Test {
  // 64-beat HA bursts over a nominal-16 HyperConnect: 4 sub-bursts each.
  // The memory synthesizes SLVERR for the second sub-burst's address range
  // and DECERR beyond 256 MiB.
  ErrorPathFixture() : hc("hc", hc_cfg()), mem("ddr", hc.master_link(), store, mem_cfg()) {
    hc.register_with(sim);
    sim.add(mem);
    sim.reset();
  }

  static HyperConnectConfig hc_cfg() {
    HyperConnectConfig cfg;
    cfg.num_ports = 2;
    cfg.nominal_burst = 16;
    cfg.max_outstanding = 8;
    return cfg;
  }

  static MemoryControllerConfig mem_cfg() {
    MemoryControllerConfig cfg;
    cfg.mapped_ranges = {{0, 0x1000'0000}};
    cfg.slverr_ranges = {{kSlvErrBase, 0x80}};  // beats 16..31 of the burst
    return cfg;
  }

  static constexpr Addr kReadBase = 0x1000;
  static constexpr Addr kSlvErrBase = 0x1080;
  static constexpr Addr kUnmapped = 0x2000'0000;

  std::vector<RBeat> collect_read(Addr addr, BeatCount beats) {
    AddrReq ar;
    ar.id = 5;
    ar.addr = addr;
    ar.beats = beats;
    hc.port_link(0).ar.push(ar);
    std::vector<RBeat> out;
    EXPECT_TRUE(sim.run_until(
        [&] {
          while (hc.port_link(0).r.can_pop()) {
            out.push_back(hc.port_link(0).r.pop());
          }
          return out.size() >= beats;
        },
        100000));
    return out;
  }

  BResp do_write(Addr addr, BeatCount beats) {
    AddrReq aw;
    aw.id = 9;
    aw.addr = addr;
    aw.beats = beats;
    hc.port_link(0).aw.push(aw);
    for (BeatCount i = 0; i < beats; ++i) {
      while (!hc.port_link(0).w.can_push()) sim.step();
      hc.port_link(0).w.push({0xAB00u + i, 0xff, i + 1 == beats});
    }
    BResp resp;
    EXPECT_TRUE(sim.run_until(
        [&] {
          if (!hc.port_link(0).b.can_pop()) return false;
          resp = hc.port_link(0).b.pop();
          return true;
        },
        100000));
    return resp;
  }

  Simulator sim;
  BackingStore store;
  HyperConnect hc;
  MemoryController mem;
};

TEST_F(ErrorPathFixture, ReadSlvErrStickyAcrossMergedSubBursts) {
  for (Addr a = 0; a < 64 * 8; a += 8) store.write_word(kReadBase + a, a);

  const auto beats = collect_read(kReadBase, 64);
  ASSERT_EQ(beats.size(), 64u);
  // Sub-burst 1 (beats 0..15) completes before the error: OKAY. From the
  // first SLVERR beat on, the merged response is sticky — the HA must see
  // the error even if it only checks the tail of the burst.
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(beats[i].resp, Resp::kOkay) << "beat " << i;
    EXPECT_EQ(beats[i].data, i * 8) << "beat " << i;
  }
  for (std::size_t i = 16; i < 64; ++i) {
    EXPECT_EQ(beats[i].resp, Resp::kSlvErr) << "beat " << i;
    EXPECT_FALSE(beats[i].last && i != 63) << "beat " << i;
  }
  EXPECT_TRUE(beats[63].last);
  EXPECT_EQ(mem.slv_errors(), 1u);  // only the one sub-burst hit the window
}

TEST_F(ErrorPathFixture, StickyErrorClearsForNextTransaction) {
  (void)collect_read(kReadBase, 64);  // poisons the sticky accumulator
  const auto beats = collect_read(kReadBase, 16);  // clean range
  ASSERT_EQ(beats.size(), 16u);
  for (const RBeat& b : beats) EXPECT_EQ(b.resp, Resp::kOkay);
}

TEST_F(ErrorPathFixture, WriteSlvErrWorstOfMerge) {
  const BResp resp = do_write(kReadBase, 64);
  EXPECT_EQ(resp.id, 9u);
  EXPECT_EQ(resp.resp, Resp::kSlvErr);  // one bad sub-burst poisons the B
  // The error window was skipped; the clean sub-bursts were written.
  EXPECT_EQ(store.read_word(kReadBase), 0xAB00u);
  EXPECT_EQ(store.read_word(kSlvErrBase), 0u);          // beat 16 dropped
  EXPECT_EQ(store.read_word(kReadBase + 32 * 8), 0xAB20u);
}

TEST_F(ErrorPathFixture, WriteAfterErrorGetsCleanB) {
  (void)do_write(kReadBase, 64);
  const BResp resp = do_write(kReadBase + 0x8000, 64);
  EXPECT_EQ(resp.resp, Resp::kOkay) << "worst-of accumulator leaked";
}

TEST_F(ErrorPathFixture, ReadDecErrForUnmappedAddress) {
  const auto beats = collect_read(kUnmapped, 64);
  ASSERT_EQ(beats.size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(beats[i].resp, Resp::kDecErr) << "beat " << i;
  }
  EXPECT_TRUE(beats[63].last);
  EXPECT_EQ(mem.decode_errors(), 4u);  // every sub-burst missed decode
}

TEST_F(ErrorPathFixture, WriteDecErrForUnmappedAddress) {
  const BResp resp = do_write(kUnmapped, 64);
  EXPECT_EQ(resp.resp, Resp::kDecErr);
}

TEST_F(ErrorPathFixture, DecodeBoundaryStraddleFlagged) {
  // A burst half inside the mapped range: no single slave decodes all of
  // it, so the whole transaction is DECERR (and nothing is stored).
  const BResp resp = do_write(0x1000'0000 - 8 * 8, 16);
  EXPECT_EQ(resp.resp, Resp::kDecErr);
  EXPECT_EQ(store.read_word(0x1000'0000 - 8 * 8), 0u);
}

TEST(ErrorPathMaster, FailedTransactionsCountedInMasterStats) {
  // A traffic generator whose whole region sits in an SLVERR window: every
  // transaction completes (protocol-wise) but fails (response-wise).
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  cfg.nominal_burst = 16;
  HyperConnect hc("hc", cfg);
  MemoryControllerConfig mcfg;
  mcfg.slverr_ranges = {{0x4000'0000, 1u << 20}};
  MemoryController mem("ddr", hc.master_link(), store, mcfg);
  hc.register_with(sim);
  sim.add(mem);

  TrafficConfig tcfg;
  tcfg.direction = TrafficDirection::kMixed;
  tcfg.base = 0x4000'0000;
  tcfg.region_bytes = 1u << 20;
  tcfg.max_transactions = 20;
  TrafficGenerator gen("gen", hc.port_link(0), tcfg);
  sim.add(gen);
  sim.reset();

  ASSERT_TRUE(sim.run_until([&] { return gen.idle() && gen.stats().reads_issued +
                                         gen.stats().writes_issued >= 20; },
                            200000));
  const MasterStats& s = gen.stats();
  EXPECT_EQ(s.reads_failed, s.reads_completed);
  EXPECT_EQ(s.writes_failed, s.writes_completed);
  EXPECT_GT(s.reads_failed + s.writes_failed, 0u);
}

TEST(ErrorPathMonitor, ErrorsAreCountedNotViolations) {
  // Error responses are legal AXI: a monitor on the HA link must count them
  // without reporting a protocol violation.
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  cfg.nominal_burst = 8;
  HyperConnect hc("hc", cfg);
  MemoryControllerConfig mcfg;
  mcfg.slverr_ranges = {{0x9000, 0x100}};
  MemoryController mem("ddr", hc.master_link(), store, mcfg);
  hc.register_with(sim);
  sim.add(mem);

  AxiMonitor monitor("mon", hc.port_link(0));
  monitor.set_throw_on_violation(true);
  sim.add(monitor);

  TrafficConfig tcfg;
  tcfg.direction = TrafficDirection::kMixed;
  tcfg.base = 0x9000;
  tcfg.region_bytes = 0x100;
  tcfg.burst_beats = 16;  // split into two sub-bursts each
  tcfg.max_transactions = 8;
  TrafficGenerator gen("gen", hc.port_link(0), tcfg);
  sim.add(gen);
  sim.reset();

  ASSERT_TRUE(sim.run_until([&] { return gen.idle() && gen.stats().reads_issued +
                                         gen.stats().writes_issued >= 8; },
                            200000));
  EXPECT_TRUE(monitor.clean());
  EXPECT_GT(monitor.r_errors() + monitor.b_errors(), 0u);
}

}  // namespace
}  // namespace axihc
