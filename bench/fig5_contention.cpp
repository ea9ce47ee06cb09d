// Fig. 5: CHaiDNN + HA_DMA under contention.
//
// Paper scenario: HA_CHaiDNN (GoogleNet inference) and HA_DMA (4 MB reads +
// 4 MB writes, looping) share the interconnect.
//  * Under SmartConnect, the greedy DMA takes most of the bandwidth and
//    CHaiDNN's frame rate collapses — and there is no way to redistribute.
//  * Under HyperConnect, the reservation mechanism assigns X% of the bus to
//    CHaiDNN and Y=100-X% to the DMA (HC-90-10 ... HC-10-90); HC-90-10
//    brings CHaiDNN close to its isolation performance.
#include <functional>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "hypervisor/domain.hpp"
#include "sim/parallel_jobs.hpp"
#include "stats/table.hpp"

namespace axihc {
namespace {

struct PairResult {
  double dnn_fps = 0;
  double dma_rate = 0;
};

/// Memory service time of one nominal 16-beat transaction (row hit +
/// streaming + turnaround) — the capacity estimate behind the budget split.
constexpr double kCyclesPerTxn = 27.0;
constexpr Cycle kPeriod = 2000;

PairResult run_pair(InterconnectKind kind, std::uint64_t scale,
                    double dnn_share, std::uint64_t frames) {
  SocConfig cfg = bench::bench_soc_cfg(kind);
  if (kind == InterconnectKind::kHyperConnect && dnn_share > 0) {
    const ReservationPlan plan = plan_bandwidth_split(
        kPeriod, kCyclesPerTxn, {dnn_share, 1.0 - dnn_share});
    cfg.hc.reservation_period = plan.period;
    cfg.hc.initial_budgets = plan.budgets;
  }
  SocSystem soc(cfg);
  DnnAccelerator dnn("chaidnn", soc.port(0),
                     bench::scaled_googlenet(scale, frames));
  DmaEngine dma("ha_dma", soc.port(1), bench::paper_dma(scale, 0));
  soc.add(dnn);
  soc.add(dma);
  soc.sim().reset();

  PairResult res;
  // Run until the DNN finished its frames AND the (possibly heavily
  // throttled) DMA completed enough jobs for a rate sample.
  if (!soc.sim().run_until(
          [&] { return dnn.finished() && dma.jobs_completed() >= 2; },
          4'000'000'000ull)) {
    return res;
  }
  res.dnn_fps = bench::rate_per_second(dnn.frame_completion_cycles()) /
                static_cast<double>(scale);
  res.dma_rate = bench::rate_per_second(dma.job_completion_cycles()) /
                 static_cast<double>(scale);
  return res;
}

PairResult run_isolation(std::uint64_t scale, std::uint64_t frames) {
  // Each HA alone on a HyperConnect (Fig. 4 shows HC == SC in isolation).
  PairResult res;
  {
    SocSystem soc(bench::bench_soc_cfg(InterconnectKind::kHyperConnect));
    DnnAccelerator dnn("chaidnn", soc.port(0),
                       bench::scaled_googlenet(scale, frames));
    soc.add(dnn);
    soc.sim().reset();
    if (soc.sim().run_until([&] { return dnn.finished(); },
                            4'000'000'000ull)) {
      res.dnn_fps = bench::rate_per_second(dnn.frame_completion_cycles()) /
                    static_cast<double>(scale);
    }
  }
  {
    SocSystem soc(bench::bench_soc_cfg(InterconnectKind::kHyperConnect));
    DmaEngine dma("ha_dma", soc.port(1), bench::paper_dma(scale, 4));
    soc.add(dma);
    soc.sim().reset();
    if (soc.sim().run_until([&] { return dma.finished(); },
                            4'000'000'000ull)) {
      res.dma_rate = bench::rate_per_second(dma.job_completion_cycles()) /
                     static_cast<double>(scale);
    }
  }
  return res;
}

void run(std::uint64_t scale) {
  bench::print_header("Fig. 5: CHaiDNN + HA_DMA under contention", scale);
  const std::uint64_t frames = 2;

  // Every configuration is an independent simulation; fan them out across
  // threads and print in fixed order afterwards.
  std::vector<std::string> labels{"isolation", "SmartConnect (contention)"};
  std::vector<std::function<PairResult()>> jobs;
  jobs.emplace_back([=] { return run_isolation(scale, frames); });
  jobs.emplace_back([=] {
    return run_pair(InterconnectKind::kSmartConnect, scale, 0, frames);
  });
  for (const double share : {0.9, 0.7, 0.5, 0.3, 0.1}) {
    const int x = static_cast<int>(share * 100);
    labels.push_back("HC-" + std::to_string(x) + "-" +
                     std::to_string(100 - x));
    jobs.emplace_back([=] {
      return run_pair(InterconnectKind::kHyperConnect, scale, share, frames);
    });
  }
  const std::vector<PairResult> results = run_parallel_jobs(std::move(jobs));

  const PairResult& iso = results[0];
  Table t({"configuration", "CHaiDNN (fps)", "HA_DMA (jobs/s)",
           "CHaiDNN vs isolation"});
  t.add_row({labels[0], Table::num(iso.dnn_fps, 2),
             Table::num(iso.dma_rate, 2), "100%"});
  for (std::size_t i = 1; i < results.size(); ++i) {
    t.add_row({labels[i], Table::num(results[i].dnn_fps, 2),
               Table::num(results[i].dma_rate, 2),
               Table::num(100.0 * results[i].dnn_fps / iso.dnn_fps, 0) +
                   "%"});
  }
  t.print_markdown(std::cout);
  std::cout << "\nPaper shape: SmartConnect lets the DMA starve CHaiDNN; "
               "HC-90-10 restores CHaiDNN\nto near-isolation performance, "
               "with a monotone trade-off across HC-X-Y.\n";
}

}  // namespace
}  // namespace axihc

int main(int argc, char** argv) {
  axihc::run(axihc::bench::parse_scale(argc, argv));
  return 0;
}
