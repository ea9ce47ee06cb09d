// Platform presets: both of the paper's boards, and the "similar results"
// claim — every comparison shape holds on both platforms.
#include "platform/platform.hpp"

#include <gtest/gtest.h>

#include "ha/traffic_gen.hpp"
#include "hyperconnect/hyperconnect.hpp"
#include "interconnect/smartconnect.hpp"
#include "sim/simulator.hpp"

namespace axihc {
namespace {

TEST(Platform, PresetsDiffer) {
  const Platform zu = zcu102_platform();
  const Platform z7 = zynq7020_platform();
  EXPECT_GT(zu.clock_hz, z7.clock_hz);
  EXPECT_GT(zu.device.lut, z7.device.lut);
  EXPECT_LT(zu.mem.row_miss_latency, z7.mem.row_miss_latency);
}

TEST(Platform, AnalysisPlatformTracksMemoryTiming) {
  Platform z7 = zynq7020_platform();
  z7.mem.refresh_period = 3900;
  z7.mem.refresh_duration = 180;
  const AnalysisPlatform a = analysis_platform(z7.mem);
  EXPECT_EQ(a.mem_latency, z7.mem.row_miss_latency);
  EXPECT_EQ(a.turnaround, z7.mem.turnaround);
  EXPECT_EQ(a.refresh_period, z7.mem.refresh_period);
  EXPECT_EQ(a.refresh_duration, z7.mem.refresh_duration);
}

TEST(Platform, RateMeterUsesPlatformClock) {
  const Platform z7 = zynq7020_platform();
  // 100 completions in 1e6 cycles at 100 MHz = 10k/s.
  EXPECT_DOUBLE_EQ(z7.rate_meter().per_second(100, 1'000'000), 10000.0);
}

/// The paper's §VI-A: "experiments conducted on both platforms, obtaining
/// similar results". Re-run the headline fairness comparison on each
/// platform preset and check the SHAPE is platform-independent.
class PlatformShape : public ::testing::TestWithParam<bool> {};

TEST_P(PlatformShape, EqualizationFairnessShapeHoldsOnBothBoards) {
  const Platform platform =
      GetParam() ? zcu102_platform() : zynq7020_platform();

  auto victim_share = [&](bool use_hc) {
    Simulator sim;
    BackingStore store;
    std::unique_ptr<Interconnect> icn;
    if (use_hc) {
      HyperConnectConfig cfg;
      cfg.num_ports = 2;
      cfg.nominal_burst = 16;
      icn = std::make_unique<HyperConnect>("hc", cfg);
    } else {
      icn = std::make_unique<SmartConnect>("sc", 2, SmartConnectConfig{});
    }
    MemoryController mem("ddr", icn->master_link(), store, platform.mem);
    icn->register_with(sim);
    sim.add(mem);

    TrafficConfig small;
    small.direction = TrafficDirection::kRead;
    small.burst_beats = 4;
    small.base = 0x4000'0000;
    TrafficGenerator victim("victim", icn->port_link(0), small);
    TrafficGenerator stealer("stealer", icn->port_link(1),
                             TrafficGenerator::bandwidth_stealer(0x6000'0000));
    sim.add(victim);
    sim.add(stealer);
    sim.reset();
    sim.run(120000);
    const double v = static_cast<double>(victim.stats().bytes_read);
    const double s = static_cast<double>(stealer.stats().bytes_read);
    return v / (v + s);
  };

  const double sc = victim_share(false);
  const double hc = victim_share(true);
  EXPECT_LT(sc, 0.10) << platform.name;
  EXPECT_GT(hc, 0.15) << platform.name;
}

INSTANTIATE_TEST_SUITE_P(Boards, PlatformShape, ::testing::Bool(),
                         [](const auto& param_info) {
                           return param_info.param ? "zcu102" : "zynq7020";
                         });

}  // namespace
}  // namespace axihc
