// Shared helpers for the reproduction benches: the paper's experimental
// setup (§VI-A) expressed once.
//
// Platform model: ZCU102-like — 64-bit FPGA-PS data path at 150 MHz, DDR
// controller with open-row tracking. Both interconnects are instantiated
// with N = 2 ports as in the paper unless a bench says otherwise.
//
// Every bench accepts `--fast` (scale the workload down ~16x, for smoke
// runs) and `--full` (the paper's full workload sizes). The default is a
// 4x-scaled workload: same shapes, minutes -> seconds.
#pragma once

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "ha/dma_engine.hpp"
#include "ha/dnn_accelerator.hpp"
#include "soc/soc.hpp"
#include "stats/stats.hpp"
#include "stats/table.hpp"

namespace axihc::bench {

/// Workload scale divisor parsed from argv: 1 (--full), 4 (default),
/// 16 (--fast).
inline std::uint64_t parse_scale(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") return 1;
    if (arg == "--fast") return 16;
  }
  return 4;
}

/// The paper's fabric clock (a common CHaiDNN/DMA design point on ZCU102).
inline RateMeter rate_meter() { return RateMeter(150e6); }

/// Memory configuration used by all benches (one DDR channel, open rows).
inline MemoryControllerConfig bench_mem_cfg() {
  MemoryControllerConfig c;
  c.row_hit_latency = 10;
  c.row_miss_latency = 24;
  c.turnaround = 1;
  return c;
}

/// SocConfig for the paper's N=2 setup on either interconnect.
inline SocConfig bench_soc_cfg(InterconnectKind kind) {
  SocConfig cfg;
  cfg.kind = kind;
  cfg.num_ports = 2;
  cfg.mem = bench_mem_cfg();
  return cfg;
}

/// GoogleNet schedule scaled down by `scale` (traffic and MACs alike).
inline DnnConfig scaled_googlenet(std::uint64_t scale,
                                  std::uint64_t max_frames) {
  DnnConfig cfg;
  cfg.layers = googlenet_layers();
  for (auto& l : cfg.layers) {
    l.weight_bytes /= scale;
    l.ifmap_bytes /= scale;
    l.ofmap_bytes /= scale;
    l.macs /= scale;
  }
  cfg.macs_per_cycle = 256;
  cfg.burst_beats = 16;
  cfg.max_outstanding = 4;
  cfg.max_frames = max_frames;
  return cfg;
}

/// The paper's HA_DMA: move 4 MB of reads and 4 MB of writes per job.
inline DmaConfig paper_dma(std::uint64_t scale, std::uint64_t max_jobs) {
  DmaConfig cfg;
  cfg.mode = DmaMode::kReadWrite;
  cfg.bytes_per_job = (4ull << 20) / scale;
  cfg.burst_beats = 16;
  cfg.max_outstanding = 8;
  cfg.max_jobs = max_jobs;
  return cfg;
}

/// Completions-per-second from recorded completion cycles (steady state:
/// first completion is treated as warm-up when there are >= 2 samples).
inline double rate_per_second(const std::vector<Cycle>& completions) {
  if (completions.empty()) return 0.0;
  const RateMeter meter = rate_meter();
  if (completions.size() == 1) {
    return meter.per_second(1, completions[0]);
  }
  const Cycle span = completions.back() - completions.front();
  return meter.per_second(completions.size() - 1, span);
}

inline void print_header(const std::string& title, std::uint64_t scale) {
  std::cout << "\n==== " << title << " ====\n";
  std::cout << "(workload scale 1/" << scale
            << "; pass --full for paper-size workloads, --fast for smoke)\n\n";
}

}  // namespace axihc::bench
