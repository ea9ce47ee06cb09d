// Resource-estimation tests: Table I calibration and scaling shape.
#include "resources/resources.hpp"

#include <gtest/gtest.h>

namespace axihc {
namespace {

TEST(Resources, HyperConnectMatchesTable1) {
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  const ResourceUsage u = estimate_hyperconnect(cfg);
  // Paper Table I (ZCU102, Vivado 2018.2): 3020 LUT, 1289 FF, 0 BRAM/DSP.
  // The model is calibrated on this instance, so it reproduces it exactly.
  EXPECT_EQ(u.lut, 3020u);
  EXPECT_EQ(u.ff, 1289u);
  EXPECT_EQ(u.bram, 0u);
  EXPECT_EQ(u.dsp, 0u);
}

TEST(Resources, SmartConnectMatchesTable1) {
  const ResourceUsage u = estimate_smartconnect(2);
  EXPECT_EQ(u.lut, 3785u);
  EXPECT_EQ(u.ff, 7137u);
  EXPECT_EQ(u.bram, 0u);
  EXPECT_EQ(u.dsp, 0u);
}

TEST(Resources, HyperConnectUsesFewerResourcesThanSmartConnect) {
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  const ResourceUsage hc = estimate_hyperconnect(cfg);
  const ResourceUsage sc = estimate_smartconnect(2);
  EXPECT_LT(hc.lut, sc.lut);
  EXPECT_LT(hc.ff, sc.ff);
  // The FF gap is the headline: slim 4-stage pipeline vs deep pipelines.
  EXPECT_LT(hc.ff * 4, sc.ff);
}

TEST(Resources, ScalesWithPortCount) {
  HyperConnectConfig small;
  small.num_ports = 2;
  HyperConnectConfig big;
  big.num_ports = 8;
  const ResourceUsage s = estimate_hyperconnect(small);
  const ResourceUsage b = estimate_hyperconnect(big);
  EXPECT_GT(b.lut, s.lut);
  EXPECT_GT(b.ff, s.ff);
  // Sub-linear in ports is wrong; super-quadratic would be too: sanity band.
  EXPECT_LT(b.lut, s.lut * 4);
}

TEST(Resources, PaperTable1PortScaling) {
  // Beyond the paper: the calibrated model extrapolated to more ports.
  struct Row {
    std::uint32_t ports;
    ResourceUsage hc;
    ResourceUsage sc;
  };
  const Row rows[] = {{4, {5064, 2093, 0, 0}, {5685, 12337, 0, 0}},
                      {8, {9152, 3701, 0, 0}, {9485, 22737, 0, 0}},
                      {16, {17328, 6917, 0, 0}, {17085, 43537, 0, 0}}};
  for (const Row& row : rows) {
    HyperConnectConfig cfg;
    cfg.num_ports = row.ports;
    const ResourceUsage hc = estimate_hyperconnect(cfg);
    const ResourceUsage sc = estimate_smartconnect(row.ports);
    EXPECT_EQ(hc.lut, row.hc.lut) << row.ports << " ports";
    EXPECT_EQ(hc.ff, row.hc.ff) << row.ports << " ports";
    EXPECT_EQ(sc.lut, row.sc.lut) << row.ports << " ports";
    EXPECT_EQ(sc.ff, row.sc.ff) << row.ports << " ports";
    EXPECT_LT(hc.ff * 4, sc.ff)
        << "HC keeps >4x fewer flip-flops than SC at " << row.ports
        << " ports";
  }
}

TEST(Resources, ScalesWithFifoDepth) {
  HyperConnectConfig shallow;
  shallow.num_ports = 2;
  HyperConnectConfig deep = shallow;
  deep.port_link_cfg.r_depth = 256;
  deep.port_link_cfg.w_depth = 256;
  EXPECT_GT(estimate_hyperconnect(deep).lut,
            estimate_hyperconnect(shallow).lut);
}

TEST(Resources, EfifoStorageDominatedByDataQueues) {
  AxiLinkConfig cfg;
  const ResourceUsage base = estimate_efifo(cfg);
  AxiLinkConfig deeper = cfg;
  deeper.b_depth *= 2;  // B queue is 8 bits wide: negligible
  AxiLinkConfig deeper_r = cfg;
  deeper_r.r_depth *= 2;  // R queue is 73 bits wide: significant
  EXPECT_LE(estimate_efifo(deeper).lut - base.lut, 1u);
  EXPECT_GT(estimate_efifo(deeper_r).lut, base.lut + 20u);
}

TEST(Resources, UtilizationFormatting) {
  EXPECT_EQ(utilization(3020, 274080), "3020 (1.1%)");
  EXPECT_EQ(utilization(7137, 548160), "7137 (1.3%)");
}

TEST(Resources, DeviceBudgets) {
  EXPECT_EQ(zcu102().lut, 274080u);
  EXPECT_EQ(zcu102().ff, 548160u);
  EXPECT_GT(zcu102().lut, zynq7020().lut);
}

TEST(Resources, UsageAddition) {
  ResourceUsage a{10, 20, 1, 2};
  ResourceUsage b{1, 2, 3, 4};
  const ResourceUsage c = a + b;
  EXPECT_EQ(c.lut, 11u);
  EXPECT_EQ(c.ff, 22u);
  EXPECT_EQ(c.bram, 4u);
  EXPECT_EQ(c.dsp, 6u);
}

}  // namespace
}  // namespace axihc
