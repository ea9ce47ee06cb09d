#include "platform/platform.hpp"

namespace axihc {

AnalysisPlatform analysis_platform(const MemoryControllerConfig& mem) {
  AnalysisPlatform p;
  p.mem_latency = mem.row_miss_latency;
  p.turnaround = mem.turnaround;
  p.refresh_period = mem.refresh_period;
  p.refresh_duration = mem.refresh_duration;
  return p;
}

Platform zcu102_platform() {
  Platform p;
  p.name = "ZCU102 (Zynq UltraScale+)";
  p.clock_hz = 150e6;
  p.mem.row_hit_latency = 10;
  p.mem.row_miss_latency = 24;
  p.mem.banks = 16;       // DDR4: 16 banks (4 groups x 4)
  p.mem.row_bytes_log2 = 11;
  p.mem.turnaround = 1;
  p.device = zcu102();
  return p;
}

Platform zynq7020_platform() {
  Platform p;
  p.name = "Zynq Z-7020";
  p.clock_hz = 100e6;
  p.mem.row_hit_latency = 14;   // DDR3 path, slower relative to fabric
  p.mem.row_miss_latency = 34;
  p.mem.banks = 8;
  p.mem.row_bytes_log2 = 11;
  p.mem.turnaround = 2;
  p.device = zynq7020();
  return p;
}

}  // namespace axihc
