// The paper's evaluation (§VI) as assertions: Fig. 3(b), Fig. 4, Fig. 5 and
// the burst-equalization ablation, each system built from INI text with
// build_system() exactly as `axihc` builds it. Workloads run at 1/4 of the
// paper's data sizes (`scale = 4`, 1 MiB DMA jobs); rates are normalized
// back to full-size frames and jobs. For paper-size runs put `scale = 1`
// and `bytes_per_job = 4194304` in the INI.
//
// Rates and shares are checked to the precision EXPERIMENTS.md prints them
// with; each paper claim also gets one shape assertion whose message names
// the claim.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "config/system_builder.hpp"
#include "hypervisor/reservation_plan.hpp"
#include "stats/stats.hpp"

namespace axihc {
namespace {

/// Workload scale divisor (DNN traffic and MACs, DMA bytes per job).
constexpr double kScale = 4;

/// Steady-state completions per second: with two or more completions the
/// first one is warm-up.
double rate_per_second(const std::vector<Cycle>& completions,
                       const RateMeter& meter) {
  if (completions.empty()) return 0.0;
  if (completions.size() == 1) return meter.per_second(1, completions[0]);
  return meter.per_second(completions.size() - 1,
                          completions.back() - completions.front());
}

template <typename Ha>
const Ha* find_ha(const ConfiguredSystem& sys) {
  for (std::size_t i = 0; i < sys.ha_count(); ++i) {
    if (const auto* ha = dynamic_cast<const Ha*>(&sys.ha(i))) return ha;
  }
  return nullptr;
}

struct Rates {
  double dnn_fps = 0;
  double dma_jobs_per_s = 0;
};

/// Runs until the DNN has finished its frames and the DMA its jobs (or,
/// when it loops forever, two jobs for a rate sample), then returns both
/// steady-state rates in full-size frames and jobs per second.
Rates run_rates(const std::string& ini) {
  auto sys = build_system(ini);
  const auto* dnn = find_ha<DnnAccelerator>(*sys);
  const auto* dma = find_ha<DmaEngine>(*sys);
  const bool done = sys->soc().sim().run_until(
      [&] {
        const bool dnn_done = dnn == nullptr || dnn->finished();
        const bool dma_done =
            dma == nullptr || dma->finished() ||
            (dma->config().max_jobs == 0 && dma->jobs_completed() >= 2);
        return dnn_done && dma_done;
      },
      4'000'000'000ull);
  EXPECT_TRUE(done) << "workload did not finish:\n" << ini;
  const RateMeter meter(sys->platform().clock_hz);
  Rates r;
  if (dnn != nullptr) {
    r.dnn_fps = rate_per_second(dnn->frame_completion_cycles(), meter) /
                kScale;
  }
  if (dma != nullptr) {
    r.dma_jobs_per_s =
        rate_per_second(dma->job_completion_cycles(), meter) / kScale;
  }
  return r;
}

// The paper's setup (§VI-A) as INI sections: two ports on the ZCU102
// platform; CHaiDNN running GoogleNet and HA_DMA moving 4 MB of reads and
// 4 MB of writes per job.

std::string system_section(const std::string& interconnect) {
  return "[system]\ninterconnect = " + interconnect + "\nports = 2\n";
}

std::string dnn_section(int index, int frames) {
  return "[ha" + std::to_string(index) +
         "]\ntype = dnn\nnetwork = googlenet\nscale = 4\nmax_frames = " +
         std::to_string(frames) + "\n";
}

/// `jobs = 0` loops forever.
std::string dma_section(int index, int jobs) {
  return "[ha" + std::to_string(index) +
         "]\ntype = dma\nmode = readwrite\nbytes_per_job = 1048576\n"
         "max_jobs = " +
         std::to_string(jobs) + "\n";
}

/// HC-X-Y: the DNN gets `x` percent of a 2000-cycle reservation period,
/// split at 27 cycles per nominal 16-beat transaction (row hit, streaming,
/// turnaround).
std::string reservation_section(int x) {
  const ReservationPlan plan =
      plan_bandwidth_split(2000, 27.0, {x / 100.0, 1.0 - x / 100.0});
  return "[hyperconnect]\nreservation_period = " +
         std::to_string(plan.period) + "\nbudgets = " +
         std::to_string(plan.budgets.at(0)) + " " +
         std::to_string(plan.budgets.at(1)) + "\n";
}

double isolation_dnn_fps(const std::string& interconnect) {
  return run_rates(system_section(interconnect) + dnn_section(0, 3)).dnn_fps;
}

double isolation_dma_jobs_per_s(const std::string& interconnect) {
  return run_rates(system_section(interconnect) + dma_section(0, 4))
      .dma_jobs_per_s;
}

Rates contention(const std::string& head) {
  return run_rates(head + dnn_section(0, 2) + dma_section(1, 0));
}

// --- Fig. 3(b): maximum memory access time vs data size --------------------

struct AccessTime {
  Cycle max_cycles = 0;
  double mean_cycles = 0;
};

/// Per-job times of `jobs` back-to-back DMA reads of `bytes` each.
AccessTime access_time(const std::string& interconnect, std::uint64_t bytes,
                       int jobs) {
  auto sys = build_system(system_section(interconnect) +
                          "[ha0]\ntype = dma\nmode = read\nbytes_per_job = " +
                          std::to_string(bytes) +
                          "\nmax_jobs = " + std::to_string(jobs) + "\n");
  const auto* dma = find_ha<DmaEngine>(*sys);
  EXPECT_TRUE(sys->soc().sim().run_until([&] { return dma->finished(); },
                                         2'000'000'000ull));
  AccessTime t;
  Cycle prev = 0;
  for (const Cycle done : dma->job_completion_cycles()) {
    t.max_cycles = std::max(t.max_cycles, done - prev);
    t.mean_cycles += static_cast<double>(done - prev);
    prev = done;
  }
  t.mean_cycles /= jobs;
  return t;
}

double improvement(Cycle hc, Cycle sc) {
  return 1.0 - static_cast<double>(hc) / static_cast<double>(sc);
}

TEST(PaperFig3b, ShortTransfersAreFasterThroughHyperConnect) {
  const AccessTime word_hc = access_time("hyperconnect", 8, 64);
  const AccessTime word_sc = access_time("smartconnect", 8, 64);
  const AccessTime burst_hc = access_time("hyperconnect", 128, 64);
  const AccessTime burst_sc = access_time("smartconnect", 128, 64);
  EXPECT_EQ(word_hc.max_cycles, 31u);
  EXPECT_EQ(word_sc.max_cycles, 48u);
  EXPECT_EQ(burst_hc.max_cycles, 46u);
  EXPECT_EQ(burst_sc.max_cycles, 63u);
  EXPECT_NEAR(word_hc.mean_cycles, 18.2, 0.05);
  EXPECT_NEAR(word_sc.mean_cycles, 35.2, 0.05);
  EXPECT_NEAR(burst_hc.mean_cycles, 33.2, 0.05);
  EXPECT_NEAR(burst_sc.mean_cycles, 50.2, 0.05);
  EXPECT_GE(improvement(word_hc.max_cycles, word_sc.max_cycles), 0.25)
      << "HC single-word access >= 25% faster than SC";
  EXPECT_GE(improvement(burst_hc.max_cycles, burst_sc.max_cycles), 0.25)
      << "HC 16-word burst access >= 25% faster than SC";
}

TEST(PaperFig3b, LargeTransfersAreThroughputBound) {
  const AccessTime kb16_hc = access_time("hyperconnect", 16 << 10, 16);
  const AccessTime kb16_sc = access_time("smartconnect", 16 << 10, 16);
  const AccessTime mb_hc = access_time("hyperconnect", 1 << 20, 3);
  const AccessTime mb_sc = access_time("smartconnect", 1 << 20, 3);
  EXPECT_EQ(kb16_hc.max_cycles, 3700u);
  EXPECT_EQ(kb16_sc.max_cycles, 3717u);
  EXPECT_EQ(mb_hc.max_cycles, 236549u);
  EXPECT_EQ(mb_sc.max_cycles, 236566u);
  EXPECT_NEAR(kb16_hc.mean_cycles, 3595.9, 0.05);
  EXPECT_NEAR(kb16_sc.mean_cycles, 3612.9, 0.05);
  EXPECT_NEAR(mb_hc.mean_cycles, 236548.7, 0.05);
  EXPECT_NEAR(mb_sc.mean_cycles, 236565.7, 0.05);
  const RateMeter meter(150e6);
  const auto mb_per_s = [&](const AccessTime& t) {
    return meter.bytes_per_second(1 << 20,
                                  static_cast<Cycle>(t.mean_cycles)) /
           1e6;
  };
  EXPECT_NEAR(mb_per_s(mb_hc), 664.9, 0.05);
  EXPECT_NEAR(mb_per_s(mb_sc), 664.9, 0.05);
  EXPECT_LT(improvement(kb16_hc.max_cycles, kb16_sc.max_cycles), 0.01)
      << "16 KB transfers are throughput-bound: HC within 1% of SC";
  EXPECT_LT(improvement(mb_hc.max_cycles, mb_sc.max_cycles), 0.01)
      << "4 MB transfers are throughput-bound: HC within 1% of SC";
}

// --- Fig. 4: CHaiDNN and HA_DMA in isolation -------------------------------

TEST(PaperFig4, IsolationHyperConnectMatchesSmartConnect) {
  const double dnn_hc = isolation_dnn_fps("hyperconnect");
  const double dnn_sc = isolation_dnn_fps("smartconnect");
  const double dma_hc = isolation_dma_jobs_per_s("hyperconnect");
  const double dma_sc = isolation_dma_jobs_per_s("smartconnect");
  EXPECT_NEAR(dnn_hc, 17.10, 0.005);
  EXPECT_NEAR(dnn_sc, 17.10, 0.005);
  EXPECT_NEAR(dma_hc, 54.50, 0.005);
  EXPECT_NEAR(dma_sc, 54.49, 0.005);
  EXPECT_NEAR(dnn_hc / dnn_sc, 1.000, 0.0005);
  EXPECT_NEAR(dma_hc / dma_sc, 1.000, 0.0005);
  EXPECT_NEAR(dnn_hc / dnn_sc, 1.0, 0.01)
      << "CHaiDNN HC/SC isolation ratio within 1%";
  EXPECT_NEAR(dma_hc / dma_sc, 1.0, 0.01)
      << "HA_DMA HC/SC isolation ratio within 1%";
}

// --- Fig. 5: CHaiDNN + HA_DMA under contention ------------------------------
// The isolation baseline is Fig. 4's HyperConnect row.

TEST(PaperFig5, SmartConnectLetsDmaStarveDnn) {
  const double iso_fps = isolation_dnn_fps("hyperconnect");
  const Rates sc = contention(system_section("smartconnect"));
  EXPECT_NEAR(sc.dnn_fps, 6.31, 0.005);
  EXPECT_NEAR(sc.dma_jobs_per_s, 48.59, 0.005);
  EXPECT_NEAR(100 * sc.dnn_fps / iso_fps, 37, 0.5);
  EXPECT_LE(sc.dnn_fps, 0.40 * iso_fps)
      << "SC contention <= 40% of isolation";
}

TEST(PaperFig5, ReservationStaircase) {
  const double iso_fps = isolation_dnn_fps("hyperconnect");
  struct Row {
    int x;
    double dnn_fps;
    double dma_jobs_per_s;
    double pct_of_isolation;
  };
  const Row rows[] = {{90, 16.53, 8.01, 97},
                      {70, 13.96, 25.17, 82},
                      {50, 12.41, 42.26, 73},
                      {30, 9.19, 48.10, 54},
                      {10, 4.75, 50.01, 28}};
  std::vector<Rates> measured;
  for (const Row& row : rows) {
    const Rates r = contention(system_section("hyperconnect") +
                               reservation_section(row.x));
    const std::string label = "HC-" + std::to_string(row.x) + "-" +
                              std::to_string(100 - row.x);
    EXPECT_NEAR(r.dnn_fps, row.dnn_fps, 0.005) << label;
    EXPECT_NEAR(r.dma_jobs_per_s, row.dma_jobs_per_s, 0.005) << label;
    EXPECT_NEAR(100 * r.dnn_fps / iso_fps, row.pct_of_isolation, 0.5)
        << label;
    measured.push_back(r);
  }
  EXPECT_GE(measured[0].dnn_fps, 0.90 * iso_fps) << "HC-90-10 >= 90%";
  for (std::size_t i = 1; i < measured.size(); ++i) {
    EXPECT_LT(measured[i].dnn_fps, measured[i - 1].dnn_fps)
        << "the HC-X-Y staircase is monotone";
    EXPECT_GT(measured[i].dma_jobs_per_s, measured[i - 1].dma_jobs_per_s)
        << "the HC-X-Y staircase is monotone";
  }
}

// --- Ablation: burst equalization [11] --------------------------------------
// A 4-beat victim against a 256-beat bandwidth stealer, both greedy readers.

double victim_share(const std::string& head) {
  auto sys = build_system(
      head +
      "[ha0]\ntype = traffic\ndirection = read\nburst = 4\noutstanding = 8\n"
      "base = 0x40000000\n"
      "[ha1]\ntype = traffic\ndirection = read\nburst = 256\n"
      "outstanding = 16\nbase = 0x60000000\n");
  sys->run(300000);
  const double v = static_cast<double>(sys->ha(0).stats().bytes_read);
  const double s = static_cast<double>(sys->ha(1).stats().bytes_read);
  return v / (v + s);
}

double hc_victim_share(int nominal_burst) {
  return victim_share(system_section("hyperconnect") +
                      "[hyperconnect]\nmax_outstanding = 8\nnominal_burst = " +
                      std::to_string(nominal_burst) + "\n");
}

TEST(PaperEqualization, VictimShareFollowsNominalBurst) {
  const double sc = victim_share(system_section("smartconnect"));
  const double off = hc_victim_share(0);
  const double n64 = hc_victim_share(64);
  const double n16 = hc_victim_share(16);
  const double n4 = hc_victim_share(4);
  EXPECT_NEAR(100 * sc, 0.8, 0.05);
  EXPECT_NEAR(100 * off, 1.5, 0.05);
  EXPECT_NEAR(100 * n64, 5.9, 0.05);
  EXPECT_NEAR(100 * n16, 20.0, 0.05);
  EXPECT_NEAR(100 * n4, 50.0, 0.05);
  EXPECT_LT(off, 0.05) << "without equalization the stealer takes >95%";
  EXPECT_NEAR(n16, 4.0 / (4 + 16), 0.005)
      << "equalized shares follow the 4/(4+nominal) request ratio";
  EXPECT_TRUE(off < n64 && n64 < n16 && n16 < n4)
      << "a smaller nominal burst restores the victim's share";
}

}  // namespace
}  // namespace axihc
