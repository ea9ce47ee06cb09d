// Platform presets for the two FPGA SoCs the paper evaluates (§VI-A):
// the Zynq UltraScale+ ZCU102 and the Zynq-7000 Z-7020.
//
// A preset bundles the fabric clock, the memory-path timing calibration
// and the device resource budget, so benches and applications can select
// a platform in one line; analysis_platform() gives its WCLA timing. The
// paper reports "similar results" on both; the Z-7020 preset has a slower
// clock and a slower DDR3 path, so absolute rates drop while every
// comparison shape is preserved — which this library's tests verify.
#pragma once

#include <string>

#include "analysis/wcla.hpp"
#include "mem/memory_controller.hpp"
#include "resources/resources.hpp"
#include "stats/stats.hpp"

namespace axihc {

struct Platform {
  std::string name;
  /// FPGA-fabric clock feeding the interconnect and HAs.
  double clock_hz = 150e6;
  /// Memory-path timing (FPGA-PS interface + DDR controller + DRAM).
  MemoryControllerConfig mem{};
  /// Device resource budget (for Table-I style utilization).
  DeviceBudget device{};

  [[nodiscard]] RateMeter rate_meter() const { return RateMeter(clock_hz); }
};

/// The analysis view of a memory controller's timing: worst-case (row-miss)
/// first-word latency, turnaround and refresh, with the HyperConnect's
/// pipeline latencies. The one mapping from memory timing to WCLA timing.
[[nodiscard]] AnalysisPlatform analysis_platform(
    const MemoryControllerConfig& mem);

/// ZCU102 (XCZU9EG): 150 MHz fabric, DDR4-2666 behind the FPGA-PS port.
[[nodiscard]] Platform zcu102_platform();

/// Zynq-7000 Z-7020: 100 MHz fabric, DDR3-1066; smaller device.
[[nodiscard]] Platform zynq7020_platform();

}  // namespace axihc
