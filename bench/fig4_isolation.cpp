// Fig. 4: performance of CHaiDNN (frames/s) and HA_DMA (4 MB moves/s) in
// ISOLATION, AXI HyperConnect vs AXI SmartConnect.
//
// Paper claim: "no performance degradation is experienced when using the
// AXI HyperConnect with respect to the use of the AXI SmartConnect" — the
// two interconnects deliver the same isolated throughput for both HAs (the
// extra propagation latency of SmartConnect is hidden by pipelining once a
// single master streams continuously).
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "sim/parallel_jobs.hpp"
#include "stats/table.hpp"

namespace axihc {
namespace {

double dnn_fps(InterconnectKind kind, std::uint64_t scale) {
  SocSystem soc(bench::bench_soc_cfg(kind));
  DnnAccelerator dnn("chaidnn", soc.port(0),
                     bench::scaled_googlenet(scale, 3));
  soc.add(dnn);
  soc.sim().reset();
  if (!soc.sim().run_until([&] { return dnn.finished(); },
                           2'000'000'000ull)) {
    return 0;
  }
  // Rate is per *scaled* frame; normalize back to full GoogleNet frames.
  return bench::rate_per_second(dnn.frame_completion_cycles()) /
         static_cast<double>(scale);
}

double dma_rate(InterconnectKind kind, std::uint64_t scale) {
  SocSystem soc(bench::bench_soc_cfg(kind));
  DmaEngine dma("ha_dma", soc.port(1), bench::paper_dma(scale, 4));
  soc.add(dma);
  soc.sim().reset();
  if (!soc.sim().run_until([&] { return dma.finished(); },
                           2'000'000'000ull)) {
    return 0;
  }
  return bench::rate_per_second(dma.job_completion_cycles()) /
         static_cast<double>(scale);
}

void run(std::uint64_t scale) {
  bench::print_header("Fig. 4: CHaiDNN and HA_DMA in isolation", scale);

  // Four independent simulations — fan them out across threads.
  const std::vector<double> r =
      run_parallel_jobs<double>(
          {[=] { return dnn_fps(InterconnectKind::kHyperConnect, scale); },
           [=] { return dnn_fps(InterconnectKind::kSmartConnect, scale); },
           [=] { return dma_rate(InterconnectKind::kHyperConnect, scale); },
           [=] { return dma_rate(InterconnectKind::kSmartConnect, scale); }});
  const double fps_hc = r[0];
  const double fps_sc = r[1];
  const double dma_hc = r[2];
  const double dma_sc = r[3];

  Table t({"HA (metric)", "HyperConnect", "SmartConnect", "HC/SC ratio",
           "paper"});
  t.add_row({"CHaiDNN GoogleNet (frames/s)", Table::num(fps_hc, 2),
             Table::num(fps_sc, 2), Table::num(fps_hc / fps_sc, 3),
             "~1.0 (no degradation)"});
  t.add_row({"HA_DMA 4MB+4MB moves (jobs/s)", Table::num(dma_hc, 2),
             Table::num(dma_sc, 2), Table::num(dma_hc / dma_sc, 3),
             "~1.0 (no degradation)"});
  t.print_markdown(std::cout);
}

}  // namespace
}  // namespace axihc

int main(int argc, char** argv) {
  axihc::run(axihc::bench::parse_scale(argc, argv));
  return 0;
}
