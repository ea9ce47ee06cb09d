// FPGA resource estimation (Table I substitute).
//
// We cannot run Vivado synthesis, so resource consumption is estimated with
// a parametric structural model: LUTRAM storage for the circular buffers,
// per-port supervisor/pipeline logic, crossbar muxing that grows with port
// count, and fixed control overhead. The per-component constants are
// calibrated so that the paper's exact configuration (2-port, 64-bit data,
// default depths, Vivado 2018.2 on the ZCU102) reproduces Table I:
//
//                LUT   FF    BRAM  DSP
//   HyperConnect 3020  1289  0     0
//   SmartConnect 3785  7137  0     0
//
// The value of the model is the *comparison and scaling shape*: the
// HyperConnect is LUT-comparable but dramatically lighter in flip-flops
// (its slim 4-stage pipeline vs. SmartConnect's deep per-channel pipelines),
// and neither uses BRAM or DSP blocks.
#pragma once

#include <cstdint>
#include <string>

#include "hyperconnect/config.hpp"
#include "interconnect/smartconnect.hpp"

namespace axihc {

struct ResourceUsage {
  std::uint32_t lut = 0;
  std::uint32_t ff = 0;
  std::uint32_t bram = 0;
  std::uint32_t dsp = 0;

  ResourceUsage& operator+=(const ResourceUsage& other);
  friend ResourceUsage operator+(ResourceUsage a, const ResourceUsage& b) {
    a += b;
    return a;
  }
};

/// Resource capacity of a target device.
struct DeviceBudget {
  std::string name;
  std::uint32_t lut = 0;
  std::uint32_t ff = 0;
  std::uint32_t bram = 0;
  std::uint32_t dsp = 0;
};

/// The ZCU102's XCZU9EG (the paper's reported platform).
[[nodiscard]] DeviceBudget zcu102();

/// The Zynq-7020 (the paper's second platform).
[[nodiscard]] DeviceBudget zynq7020();

/// Estimates one eFIFO module's cost given its five queue depths.
[[nodiscard]] ResourceUsage estimate_efifo(const AxiLinkConfig& depths);

/// Estimates a full AXI HyperConnect instance.
[[nodiscard]] ResourceUsage estimate_hyperconnect(
    const HyperConnectConfig& cfg);

/// Estimates an AXI SmartConnect instance with `num_ports` inputs.
[[nodiscard]] ResourceUsage estimate_smartconnect(std::uint32_t num_ports);

/// "1234 (0.45%)" — count and share of the device budget.
[[nodiscard]] std::string utilization(std::uint32_t used,
                                      std::uint32_t available);

}  // namespace axihc
