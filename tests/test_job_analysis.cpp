// Job-level WCRT analysis: frame/job bounds validated against adversarial
// simulation, and the reservation-sizing inverse.
#include "analysis/job_analysis.hpp"

#include <gtest/gtest.h>

#include "ha/traffic_gen.hpp"
#include "hypervisor/reservation_plan.hpp"
#include "hyperconnect/hyperconnect.hpp"
#include "mem/backing_store.hpp"
#include "mem/memory_controller.hpp"
#include "platform/platform.hpp"
#include "sim/simulator.hpp"

namespace axihc {
namespace {

TEST(JobProfile, DnnProfileCoversAllLayers) {
  DnnConfig cfg;
  cfg.layers = {{"a", 1024, 512, 256, 10'000}, {"b", 2048, 0, 0, 5'000}};
  cfg.macs_per_cycle = 100;
  const JobProfile job = profile_of(cfg);
  // Layer a: load + compute + store; layer b: load + compute (no store).
  ASSERT_EQ(job.phases.size(), 5u);
  EXPECT_EQ(job.phases[0].read_bytes, 1536u);
  EXPECT_EQ(job.phases[1].compute_cycles, 100u);
  EXPECT_EQ(job.phases[2].write_bytes, 256u);
  EXPECT_EQ(job.total_bytes(), 1024u + 512 + 256 + 2048);
}

TEST(JobProfile, DmaProfileRespectsMode) {
  DmaConfig cfg;
  cfg.bytes_per_job = 4096;
  cfg.mode = DmaMode::kRead;
  EXPECT_EQ(profile_of(cfg).phases[0].read_bytes, 4096u);
  EXPECT_EQ(profile_of(cfg).phases[0].write_bytes, 0u);
  cfg.mode = DmaMode::kReadWrite;
  const JobProfile both = profile_of(cfg);
  EXPECT_EQ(both.total_bytes(), 8192u);
}

TEST(JobAnalysis, SubsForBytes) {
  HcAnalysisConfig cfg;
  cfg.nominal_burst = 16;  // 128 B units
  EXPECT_EQ(subs_for_bytes(cfg, 16, 0), 0u);
  EXPECT_EQ(subs_for_bytes(cfg, 16, 128), 1u);
  EXPECT_EQ(subs_for_bytes(cfg, 16, 129), 2u);
  EXPECT_EQ(subs_for_bytes(cfg, 4, 128), 4u);  // HA bursts smaller: 32 B units
  cfg.nominal_burst = 0;
  EXPECT_EQ(subs_for_bytes(cfg, 16, 1280), 10u);
}

TEST(JobAnalysis, BoundGrowsWithContention) {
  AnalysisPlatform p;
  JobProfile job;
  job.phases.push_back({64 << 10, 0, 0});
  HcAnalysisConfig two;
  two.num_ports = 2;
  HcAnalysisConfig four;
  four.num_ports = 4;
  EXPECT_LT(job_wcrt(two, p, 0, job), job_wcrt(four, p, 0, job));
}

/// Cycle at which a one-frame DNN on port 0 finishes, under a 2-port
/// HyperConnect with `budgets` per `period` and a flooding 16-beat reader on
/// port 1 (0 when it does not finish).
Cycle simulate_frame(DnnConfig dnn_cfg, Cycle period,
                     std::vector<std::uint32_t> budgets) {
  Simulator sim;
  BackingStore store;
  HyperConnectConfig cfg;
  cfg.num_ports = 2;
  cfg.nominal_burst = 16;
  cfg.reservation_period = period;
  cfg.initial_budgets = std::move(budgets);
  HyperConnect hc("hc", cfg);
  MemoryController mem("ddr", hc.master_link(), store, {});
  hc.register_with(sim);
  sim.add(mem);

  dnn_cfg.max_frames = 1;
  DnnAccelerator dnn("dnn", hc.port_link(0), dnn_cfg);
  TrafficConfig adversary;
  adversary.direction = TrafficDirection::kRead;
  adversary.burst_beats = 16;
  adversary.base = 0x6000'0000;
  TrafficGenerator flood("flood", hc.port_link(1), adversary);
  sim.add(dnn);
  sim.add(flood);
  sim.reset();
  if (!sim.run_until([&] { return dnn.finished(); }, 1'000'000'000ull)) {
    return 0;
  }
  return dnn.frame_completion_cycles()[0];
}

/// The analysis view of the default memory controller.
AnalysisPlatform default_platform() { return analysis_platform({}); }

/// A two-layer DNN-like job for the simulated-frame checks.
DnnConfig two_layer_dnn() {
  DnnConfig dnn_cfg;
  dnn_cfg.layers = {
      {"l0", 8192, 4096, 2048, 200'000},
      {"l1", 16384, 2048, 1024, 100'000},
  };
  dnn_cfg.macs_per_cycle = 256;
  dnn_cfg.burst_beats = 16;
  return dnn_cfg;
}

/// The analysis view of simulate_frame's system.
HcAnalysisConfig frame_analysis(Cycle period,
                                std::vector<std::uint32_t> budgets) {
  HcAnalysisConfig a;
  a.num_ports = 2;
  a.nominal_burst = 16;
  a.reservation_period = period;
  a.budgets = std::move(budgets);
  a.competitor_backlog = 4;
  return a;
}

TEST(JobAnalysis, ReservationBoundDominatesSimulatedFrame) {
  // A DNN-like job under reservation, with a flooding adversary: the
  // analytical frame bound must dominate the measured frame time.
  const DnnConfig dnn_cfg = two_layer_dnn();
  const Cycle period = 2000;
  const std::vector<std::uint32_t> budgets = {30, 15};  // 45 * S(16)=41 <= 2000
  const Cycle measured = simulate_frame(dnn_cfg, period, budgets);
  ASSERT_GT(measured, 0u);

  const HcAnalysisConfig a = frame_analysis(period, budgets);
  const AnalysisPlatform p = default_platform();
  ASSERT_TRUE(reservation_feasible(a, p));
  const Cycle bound = job_wcrt(a, p, 0, profile_of(dnn_cfg));

  EXPECT_LE(measured, bound);
  EXPECT_LE(bound, measured * 30) << "uselessly loose job bound";
}

TEST(JobAnalysis, OvercommittedBoundDominatesSimulatedFrame) {
  // An overcommitted plan (34 * S(16)=41 > 1000): the port's own small
  // budget throttles the frame far past any arbitration-only bound, so the
  // job bound must charge the supply term on top of arbitration.
  const DnnConfig dnn_cfg = two_layer_dnn();
  const Cycle period = 1000;
  const AnalysisPlatform p = default_platform();
  for (const std::uint32_t budget : {4u, 2u, 1u}) {
    const std::vector<std::uint32_t> budgets = {budget, 30};
    SCOPED_TRACE("budget " + std::to_string(budget));
    const Cycle measured = simulate_frame(dnn_cfg, period, budgets);
    ASSERT_GT(measured, 0u);
    const HcAnalysisConfig a = frame_analysis(period, budgets);
    ASSERT_FALSE(reservation_feasible(a, p));
    EXPECT_LE(measured, job_wcrt(a, p, 0, profile_of(dnn_cfg)));
  }
}

TEST(ReservationSizing, PaperAblationSizedBudgetsMeetDeadlines) {
  // The job-level analysis inverted: the smallest DNN budget (txns per
  // 2000 cycles) that meets a GoogleNet frame deadline whatever a flooding
  // adversary with 4 txns per window does. GoogleNet runs at 1/4 scale.
  DnnConfig dnn_cfg;
  dnn_cfg.layers = googlenet_layers();
  for (DnnLayer& l : dnn_cfg.layers) {
    l.weight_bytes /= 4;
    l.ifmap_bytes /= 4;
    l.ofmap_bytes /= 4;
    l.macs /= 4;
  }
  const JobProfile job = profile_of(dnn_cfg);
  EXPECT_EQ(job.total_bytes() / 1024, 2786u);

  const AnalysisPlatform p = default_platform();
  HcAnalysisConfig a;
  a.num_ports = 2;
  a.nominal_burst = 16;
  a.reservation_period = 2000;
  a.budgets = {0, 4};
  a.competitor_backlog = 4;

  const RateMeter meter(150e6);
  const auto ms = [&](Cycle c) { return meter.to_us(c) / 1000.0; };
  struct Row {
    double deadline_ms;
    std::uint32_t budget;
    double bound_ms;
    double simulated_ms;
  };
  std::uint32_t prev_budget = 0;
  for (const Row row : {Row{120, 3, 109.8, 109.2}, Row{90, 4, 85.0, 84.4},
                        Row{70, 6, 60.3, 59.7}, Row{60, 7, 53.2, 52.6},
                        Row{55, 7, 53.2, 52.6}}) {
    const auto deadline =
        static_cast<Cycle>(row.deadline_ms / 1000.0 * meter.clock_hz());
    const std::uint32_t budget =
        min_budget_for_deadline(a, p, 0, job, deadline);
    HcAnalysisConfig sized = a;
    sized.budgets[0] = budget;
    const Cycle bound = job_wcrt(sized, p, 0, job);
    const Cycle simulated = simulate_frame(dnn_cfg, 2000, {budget, 4});
    const std::string label = std::to_string(row.deadline_ms) + " ms";
    EXPECT_EQ(budget, row.budget) << label;
    EXPECT_NEAR(ms(bound), row.bound_ms, 0.05) << label;
    EXPECT_NEAR(ms(simulated), row.simulated_ms, 0.05) << label;
    EXPECT_GT(simulated, 0u) << label;
    EXPECT_LE(simulated, deadline)
        << "every sized budget's simulated frame meets its deadline: "
        << label;
    EXPECT_GE(budget, prev_budget)
        << "tighter deadlines demand larger budgets: " << label;
    prev_budget = budget;
    if (budget == 3) {
      EXPECT_LT(bound - simulated, simulated / 100)
          << "in the reservation-dominated regime the bound is tight to <1%";
    }
  }
}

TEST(JobAnalysis, MinBudgetForDeadlineIsTightAndSound) {
  DnnConfig dnn_cfg;
  dnn_cfg.layers = {{"l0", 32768, 8192, 4096, 400'000}};
  dnn_cfg.macs_per_cycle = 256;
  const JobProfile job = profile_of(dnn_cfg);

  HcAnalysisConfig cfg;
  cfg.num_ports = 2;
  cfg.nominal_burst = 16;
  cfg.reservation_period = 2000;
  cfg.budgets = {0, 7};
  AnalysisPlatform p;

  const Cycle deadline = 40'000;
  const std::uint32_t budget =
      min_budget_for_deadline(cfg, p, 0, job, deadline);
  ASSERT_GT(budget, 0u);

  // Sound: the returned budget meets the deadline...
  cfg.budgets[0] = budget;
  EXPECT_LE(job_wcrt(cfg, p, 0, job), deadline);
  // ...and minimal: one less budget unit misses it (or is infeasible).
  if (budget > 1) {
    cfg.budgets[0] = budget - 1;
    const bool feasible = reservation_feasible(cfg, p);
    EXPECT_TRUE(!feasible || job_wcrt(cfg, p, 0, job) > deadline);
  }
}

TEST(JobAnalysis, ImpossibleDeadlineReturnsZero) {
  JobProfile job;
  job.phases.push_back({1 << 20, 0, 0});  // 1 MB
  HcAnalysisConfig cfg;
  cfg.num_ports = 2;
  cfg.reservation_period = 2000;
  cfg.budgets = {0, 0};
  AnalysisPlatform p;
  EXPECT_EQ(min_budget_for_deadline(cfg, p, 0, job, /*deadline=*/100), 0u);
}

}  // namespace
}  // namespace axihc
