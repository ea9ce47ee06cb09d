// Full-stack integration tests: the paper's case study in miniature —
// CHaiDNN-like accelerator + DMA through both interconnects, reservation
// reprogramming at run time, the watchdog, SocSystem assembly.
#include <gtest/gtest.h>

#include "driver/hyperconnect_driver.hpp"
#include "ha/dma_engine.hpp"
#include "ha/dnn_accelerator.hpp"
#include "ha/traffic_gen.hpp"
#include "hypervisor/hypervisor.hpp"
#include "hypervisor/reservation_plan.hpp"
#include "recovery/recovery_manager.hpp"
#include "soc/soc.hpp"

namespace axihc {
namespace {

/// A scaled-down GoogleNet (1/16 of the traffic) so integration tests run
/// in milliseconds while keeping the phase structure.
std::vector<DnnLayer> tiny_dnn() {
  std::vector<DnnLayer> layers = googlenet_layers();
  for (auto& l : layers) {
    l.weight_bytes /= 16;
    l.ifmap_bytes /= 16;
    l.ofmap_bytes /= 16;
    l.macs /= 16;
  }
  return layers;
}

DnnConfig tiny_dnn_cfg(std::uint64_t frames) {
  DnnConfig cfg;
  cfg.layers = tiny_dnn();
  cfg.macs_per_cycle = 256;
  cfg.max_frames = frames;
  return cfg;
}

DmaConfig small_dma_cfg() {
  DmaConfig cfg;
  cfg.mode = DmaMode::kReadWrite;
  cfg.bytes_per_job = 256 * 1024;
  cfg.burst_beats = 16;
  cfg.max_outstanding = 8;
  return cfg;
}

TEST(SocSystem, BuildsHyperConnectVariant) {
  SocConfig cfg;
  cfg.kind = InterconnectKind::kHyperConnect;
  cfg.num_ports = 2;
  SocSystem soc(cfg);
  EXPECT_NE(soc.hyperconnect(), nullptr);
  EXPECT_EQ(soc.interconnect().num_ports(), 2u);
}

TEST(SocSystem, BuildsSmartConnectVariant) {
  SocConfig cfg;
  cfg.kind = InterconnectKind::kSmartConnect;
  SocSystem soc(cfg);
  EXPECT_EQ(soc.hyperconnect(), nullptr);
}

TEST(Integration, DnnPlusDmaRunsOnBothInterconnects) {
  for (const auto kind :
       {InterconnectKind::kHyperConnect, InterconnectKind::kSmartConnect}) {
    SocConfig cfg;
    cfg.kind = kind;
    cfg.num_ports = 2;
    SocSystem soc(cfg);
    DnnAccelerator dnn("dnn", soc.port(0), tiny_dnn_cfg(1));
    DmaEngine dma("dma", soc.port(1), small_dma_cfg());
    soc.add(dnn);
    soc.add(dma);
    soc.sim().reset();
    ASSERT_TRUE(soc.sim().run_until([&] { return dnn.finished(); },
                                    20'000'000))
        << "kind=" << static_cast<int>(kind);
    EXPECT_EQ(dnn.frames_completed(), 1u);
    EXPECT_GT(dma.jobs_completed(), 0u);
  }
}

TEST(Integration, ReservationProtectsDnnFromDma) {
  // The Fig. 5 mechanism end-to-end: frame time with a greedy DMA under
  // plain HC (no reservation) vs HC-90-10. The reserved run must be faster
  // for the DNN.
  auto frame_cycles = [](bool reserve) -> Cycle {
    SocConfig cfg;
    cfg.kind = InterconnectKind::kHyperConnect;
    cfg.num_ports = 2;
    if (reserve) {
      cfg.hc.reservation_period = 2000;
      // ~2000/28 = 71 sub-txn capacity; 90% / 10%.
      cfg.hc.initial_budgets = {64, 7};
    }
    SocSystem soc(cfg);
    DnnAccelerator dnn("dnn", soc.port(0), tiny_dnn_cfg(1));
    DmaEngine dma("dma", soc.port(1), small_dma_cfg());
    soc.add(dnn);
    soc.add(dma);
    soc.sim().reset();
    if (!soc.sim().run_until([&] { return dnn.finished(); }, 50'000'000)) {
      ADD_FAILURE() << "DNN frame did not finish";
      return 0;
    }
    return dnn.frame_completion_cycles()[0];
  };

  const Cycle unprotected = frame_cycles(false);
  const Cycle protected_run = frame_cycles(true);
  EXPECT_LT(protected_run, unprotected);
}

TEST(Integration, HypervisorReconfiguresLiveSystem) {
  // Start with DMA hogging the bus, then a 90/10 reservation plan is
  // programmed at runtime over the control bus; the DNN's layer progress
  // speeds up after the switch.
  SocConfig cfg;
  cfg.kind = InterconnectKind::kHyperConnect;
  cfg.num_ports = 2;
  SocSystem soc(cfg);
  HyperConnect* hc = soc.hyperconnect();
  ASSERT_NE(hc, nullptr);

  DnnAccelerator dnn("dnn", soc.port(0), tiny_dnn_cfg(0));
  DmaEngine dma("dma", soc.port(1), small_dma_cfg());
  RegisterMaster rm("rm", hc->control_link());
  HyperConnectDriver driver(rm, 2);
  soc.add(dnn);
  soc.add(dma);
  soc.add(rm);
  soc.sim().reset();

  soc.sim().run(200'000);
  const auto dnn_bytes_before = dnn.stats().bytes_read;

  const ReservationPlan plan =
      plan_bandwidth_split(/*period=*/2000, /*cycles_per_txn=*/28.0,
                           {0.9, 0.1});
  driver.apply_reservation(plan.period, plan.budgets);
  ASSERT_TRUE(soc.sim().run_until([&] { return driver.idle(); }, 10'000));
  EXPECT_EQ(hc->runtime().reservation_period, 2000u);

  soc.sim().run(200'000);
  const auto dnn_bytes_after = dnn.stats().bytes_read - dnn_bytes_before;
  // With 90% of the bandwidth reserved, the DNN reads strictly more than in
  // the first (contended) phase.
  EXPECT_GT(dnn_bytes_after, dnn_bytes_before);
}

TEST(Integration, EndToEndWatchdogScenario) {
  // A low-criticality HA goes rogue (greedy max-burst reads); the watchdog
  // detects the overrun and decouples it; the high-criticality DNN keeps
  // running. The watchdog polices every port alike, so the DNN's 10-txn
  // reservation budget per 1000 cycles keeps it at most 60 txns into any
  // 5000-cycle poll, under the limit of 100 the rogue overruns.
  SocConfig cfg;
  cfg.kind = InterconnectKind::kHyperConnect;
  cfg.num_ports = 2;
  cfg.hc.reservation_period = 1000;
  cfg.hc.initial_budgets = {10, 100};
  SocSystem soc(cfg);
  HyperConnect* hc = soc.hyperconnect();

  DnnAccelerator dnn("dnn", soc.port(0), tiny_dnn_cfg(0));
  TrafficGenerator rogue("rogue", soc.port(1),
                         TrafficGenerator::bandwidth_stealer(0x6000'0000));
  RegisterMaster rm("rm", hc->control_link());
  HyperConnectDriver driver(rm, 2);
  // One recouple attempt, then retire for good. No baseline split is set,
  // so the manager leaves the reservation budgets as they are.
  RecoveryPolicy retire;
  retire.max_attempts = 1;
  retire.probation_window = 5000;
  RecoveryManager recovery("recovery", driver, retire);
  recovery.set_ha_reset([&](PortIndex p) {
    if (p == 1) rogue.abandon_in_flight();
  });
  Hypervisor hv("hv", driver, recovery,
                {/*poll_period=*/5000, /*max_txns_per_poll=*/100});
  soc.add(dnn);
  soc.add(rogue);
  soc.add(rm);
  soc.add(hv);
  soc.add(recovery);
  soc.sim().reset();

  soc.sim().run(100'000);
  EXPECT_FALSE(hv.isolation_events().empty());
  EXPECT_TRUE(hv.port_isolated(1));
  EXPECT_FALSE(hv.port_isolated(0));
  EXPECT_EQ(recovery.state(1), RecoveryState::kPermanentlyIsolated);
  const auto rogue_bytes = rogue.stats().bytes_read;
  soc.sim().run(100'000);
  EXPECT_EQ(rogue.stats().bytes_read, rogue_bytes);
  EXPECT_GT(dnn.stats().bytes_read, 0u);
}

TEST(Integration, DeterministicAcrossRuns) {
  // The whole stack is bit-deterministic: two identical runs produce
  // identical statistics.
  auto run_once = [] {
    SocConfig cfg;
    cfg.kind = InterconnectKind::kHyperConnect;
    cfg.num_ports = 2;
    cfg.hc.reservation_period = 1000;
    cfg.hc.initial_budgets = {20, 10};
    SocSystem soc(cfg);
    DnnAccelerator dnn("dnn", soc.port(0), tiny_dnn_cfg(0));
    DmaEngine dma("dma", soc.port(1), small_dma_cfg());
    soc.add(dnn);
    soc.add(dma);
    soc.sim().reset();
    soc.sim().run(300'000);
    return std::tuple{dnn.stats().bytes_read, dma.stats().bytes_read,
                      dma.stats().bytes_written, dnn.frames_completed(),
                      dma.jobs_completed()};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace axihc
