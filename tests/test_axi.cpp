// AXI payload helper tests: burst arithmetic and 4KiB-boundary rules, and
// link depths.
#include "axi/axi.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace axihc {
namespace {

AddrReq make_req(Addr addr, BeatCount beats, std::uint8_t size_log2 = 3,
                 BurstType burst = BurstType::kIncr) {
  AddrReq req;
  req.addr = addr;
  req.beats = beats;
  req.size_log2 = size_log2;
  req.burst = burst;
  return req;
}

TEST(AxiBurst, BytesForSingleBeat) {
  EXPECT_EQ(burst_bytes(make_req(0, 1)), 8u);
  EXPECT_EQ(burst_bytes(make_req(0, 1, 2)), 4u);
}

TEST(AxiBurst, BytesForFullBurst) {
  EXPECT_EQ(burst_bytes(make_req(0, 16)), 128u);
  EXPECT_EQ(burst_bytes(make_req(0, 256)), 2048u);
}

TEST(AxiBurst, EndAddressIncr) {
  EXPECT_EQ(burst_end(make_req(0x1000, 16)), 0x1080u);
}

TEST(AxiBurst, EndAddressFixedStaysAtOneBeat) {
  EXPECT_EQ(burst_end(make_req(0x1000, 16, 3, BurstType::kFixed)), 0x1008u);
}

TEST(AxiBurst, Crosses4kDetected) {
  EXPECT_FALSE(crosses_4k(make_req(0x0F80, 16)));   // ends exactly at 0x1000
  EXPECT_TRUE(crosses_4k(make_req(0x0F88, 16)));    // spills past 0x1000
  EXPECT_FALSE(crosses_4k(make_req(0x1000, 256)));  // 2KiB aligned inside 4KiB
  EXPECT_FALSE(crosses_4k(make_req(0x1800, 256)));  // ends exactly at 0x2000
  EXPECT_TRUE(crosses_4k(make_req(0x1808, 256)));   // spills into next page
}

TEST(AxiBurst, FixedNeverCrosses4k) {
  EXPECT_FALSE(crosses_4k(make_req(0x0FF8, 16, 3, BurstType::kFixed)));
}

TEST(AxiLink, ChannelsAreIndependent) {
  Simulator sim;
  AxiLink link("l");
  link.register_with(sim);
  sim.reset();

  link.ar.push(make_req(0x0, 4));
  link.r.push(RBeat{1, 0xabc, true, Resp::kOkay});
  link.b.push(BResp{2, Resp::kSlvErr});
  sim.step();

  EXPECT_TRUE(link.ar.can_pop());
  EXPECT_TRUE(link.r.can_pop());
  EXPECT_TRUE(link.b.can_pop());
  EXPECT_FALSE(link.aw.can_pop());
  EXPECT_FALSE(link.w.can_pop());

  EXPECT_EQ(link.r.front().data, 0xabcu);
  EXPECT_EQ(link.b.front().resp, Resp::kSlvErr);
}

TEST(AxiLink, ConfiguredDepthsApply) {
  AxiLinkConfig cfg;
  cfg.ar_depth = 1;
  cfg.w_depth = 2;
  AxiLink link("l", cfg);
  EXPECT_EQ(link.ar.capacity(), 1u);
  EXPECT_EQ(link.w.capacity(), 2u);
  EXPECT_EQ(link.r.capacity(), 32u);  // default
}

}  // namespace
}  // namespace axihc
