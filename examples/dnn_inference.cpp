// DNN inference under bus contention — the paper's §VI-C case study as a
// runnable example.
//
// A CHaiDNN-class accelerator runs GoogleNet inference while a high-
// throughput DMA floods the bus. We print the frame rate in isolation,
// under contention with no protection, and under HC-90-10 reservation, so
// you can see the Fig. 5 effect directly.
//
//   $ ./dnn_inference          (1/16-scale GoogleNet, well under a second)
//
// The Fig. 5 numbers themselves are asserted by tests/test_paper.cpp.
#include <iostream>

#include "ha/dma_engine.hpp"
#include "ha/dnn_accelerator.hpp"
#include "hypervisor/domain.hpp"
#include "soc/soc.hpp"
#include "stats/stats.hpp"
#include "stats/table.hpp"

namespace {

/// Workload scale divisor: GoogleNet traffic and MACs, DMA bytes per job.
constexpr std::uint64_t kScale = 16;

axihc::DnnConfig make_dnn(std::uint64_t frames) {
  axihc::DnnConfig cfg;
  cfg.layers = axihc::googlenet_layers();
  for (auto& l : cfg.layers) {
    l.weight_bytes /= kScale;
    l.ifmap_bytes /= kScale;
    l.ofmap_bytes /= kScale;
    l.macs /= kScale;
  }
  cfg.max_frames = frames;
  return cfg;
}

double run_config(bool with_dma, double dnn_share) {
  using namespace axihc;
  SocConfig cfg;
  cfg.kind = InterconnectKind::kHyperConnect;
  cfg.num_ports = 2;
  if (dnn_share > 0) {
    const ReservationPlan plan =
        plan_bandwidth_split(2000, 27.0, {dnn_share, 1.0 - dnn_share});
    cfg.hc.reservation_period = plan.period;
    cfg.hc.initial_budgets = plan.budgets;
  }
  SocSystem soc(cfg);
  DnnAccelerator dnn("chaidnn", soc.port(0), make_dnn(2));
  DmaConfig dma_cfg;
  dma_cfg.mode = DmaMode::kReadWrite;
  dma_cfg.bytes_per_job = (4ull << 20) / kScale;
  DmaEngine dma("ha_dma", soc.port(1), dma_cfg);
  soc.add(dnn);
  if (with_dma) soc.add(dma);
  soc.sim().reset();
  if (!soc.sim().run_until([&] { return dnn.finished(); },
                           4'000'000'000ull)) {
    return 0.0;
  }
  const auto& frames = dnn.frame_completion_cycles();
  const RateMeter meter(150e6);
  const Cycle span = frames.back() - frames.front();
  return meter.per_second(frames.size() - 1, span) /
         static_cast<double>(kScale);
}

}  // namespace

int main() {
  std::cout << "CHaiDNN GoogleNet inference under contention (scale 1/"
            << kScale << ")\n\n";

  axihc::Table t({"configuration", "GoogleNet frames/s",
                  "% of isolation"});
  const double iso = run_config(false, 0);
  t.add_row({"isolation (DNN alone)", axihc::Table::num(iso, 2), "100%"});
  const double contended = run_config(true, 0);
  t.add_row({"+ DMA, no reservation", axihc::Table::num(contended, 2),
             axihc::Table::num(100 * contended / iso, 0) + "%"});
  const double protected_fps = run_config(true, 0.9);
  t.add_row({"+ DMA, HC-90-10 reservation",
             axihc::Table::num(protected_fps, 2),
             axihc::Table::num(100 * protected_fps / iso, 0) + "%"});
  t.print_markdown(std::cout);

  std::cout << "\nThe reservation mechanism restores the DNN close to its "
               "isolation frame rate\nwhile the DMA keeps the leftover "
               "bandwidth — the paper's Fig. 5 in miniature.\n";
  return 0;
}
