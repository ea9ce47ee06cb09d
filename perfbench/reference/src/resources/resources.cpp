#include "resources/resources.hpp"

#include <cmath>
#include <sstream>

#include "common/check.hpp"

namespace axihc {

ResourceUsage& ResourceUsage::operator+=(const ResourceUsage& other) {
  lut += other.lut;
  ff += other.ff;
  bram += other.bram;
  dsp += other.dsp;
  return *this;
}

DeviceBudget zcu102() { return {"ZCU102 (XCZU9EG)", 274080, 548160, 912, 2520}; }

DeviceBudget zynq7020() { return {"Zynq Z-7020", 53200, 106400, 140, 220}; }

namespace {

// Payload widths in bits on a 64-bit data bus (address 40 + id 6 + len 8 +
// size 3 + burst 2 + qos 4 ≈ 64 for AR/AW; data 64 + strb 8 + last 1 for W;
// data 64 + id 6 + resp 2 + last 1 for R; id 6 + resp 2 for B).
constexpr std::uint32_t kArWidth = 64;
constexpr std::uint32_t kAwWidth = 64;
constexpr std::uint32_t kWWidth = 73;
constexpr std::uint32_t kRWidth = 73;
constexpr std::uint32_t kBWidth = 8;

// A LUT6 used as distributed RAM stores 64 bits.
constexpr std::uint32_t kBitsPerLutram = 64;
// Read/write pointer + occupancy logic per queue.
constexpr std::uint32_t kQueueControlLut = 12;

// Per-port Transaction Supervisor: split/merge state machines, outstanding
// and budget counters. Calibrated against Table I.
constexpr std::uint32_t kTsLutPerPort = 700;
constexpr std::uint32_t kTsFfPerPort = 330;

// EXBAR: arbitration base cost, per-port mux slice, routing memories.
constexpr std::uint32_t kExbarBaseLut = 180;
constexpr std::uint32_t kExbarMuxLutPerPort = 180;
constexpr std::uint32_t kExbarBaseFf = 40;
constexpr std::uint32_t kExbarFfPerPort = 10;
constexpr std::uint32_t kRouteEntryBits = 10;  // port index + beat counter

// Central unit + control slave interface + configuration registers.
constexpr std::uint32_t kControlLut = 624;
constexpr std::uint32_t kControlFf = 383;

// SmartConnect: behavioural totals (the IP is closed; constants match the
// Vivado 2018.2 utilization the paper reports for the 2-port instance and
// Xilinx's published per-port growth).
constexpr std::uint32_t kScBaseLut = 1885;
constexpr std::uint32_t kScLutPerPort = 950;
constexpr std::uint32_t kScBaseFf = 1937;
constexpr std::uint32_t kScFfPerPort = 2600;

std::uint32_t queue_ff(std::size_t depth) {
  const auto bits = static_cast<std::uint32_t>(
      std::ceil(std::log2(static_cast<double>(depth < 2 ? 2 : depth))));
  return 2 * bits + 6;
}

std::uint32_t div_ceil(std::uint32_t a, std::uint32_t b) {
  return (a + b - 1) / b;
}

}  // namespace

ResourceUsage estimate_efifo(const AxiLinkConfig& depths) {
  const std::uint32_t storage_bits =
      kArWidth * static_cast<std::uint32_t>(depths.ar_depth) +
      kAwWidth * static_cast<std::uint32_t>(depths.aw_depth) +
      kWWidth * static_cast<std::uint32_t>(depths.w_depth) +
      kRWidth * static_cast<std::uint32_t>(depths.r_depth) +
      kBWidth * static_cast<std::uint32_t>(depths.b_depth);
  ResourceUsage usage;
  usage.lut = div_ceil(storage_bits, kBitsPerLutram) + 5 * kQueueControlLut;
  usage.ff = queue_ff(depths.ar_depth) + queue_ff(depths.aw_depth) +
             queue_ff(depths.w_depth) + queue_ff(depths.r_depth) +
             queue_ff(depths.b_depth);
  // Distributed RAM only — no BRAM, no DSP (as in Table I).
  return usage;
}

ResourceUsage estimate_hyperconnect(const HyperConnectConfig& cfg) {
  ResourceUsage usage;
  // N slave eFIFOs + 1 master eFIFO.
  for (std::uint32_t i = 0; i < cfg.num_ports; ++i) {
    usage += estimate_efifo(cfg.port_link_cfg);
  }
  usage += estimate_efifo(cfg.master_link_cfg);

  usage.lut += kTsLutPerPort * cfg.num_ports;
  usage.ff += kTsFfPerPort * cfg.num_ports;

  usage.lut += kExbarBaseLut + kExbarMuxLutPerPort * cfg.num_ports +
               div_ceil(3 * cfg.route_capacity * kRouteEntryBits,
                        kBitsPerLutram);
  usage.ff += kExbarBaseFf + kExbarFfPerPort * cfg.num_ports;

  usage.lut += kControlLut;
  usage.ff += kControlFf;
  return usage;
}

ResourceUsage estimate_smartconnect(std::uint32_t num_ports) {
  AXIHC_CHECK(num_ports >= 1);
  ResourceUsage usage;
  usage.lut = kScBaseLut + kScLutPerPort * num_ports;
  usage.ff = kScBaseFf + kScFfPerPort * num_ports;
  return usage;
}

std::string utilization(std::uint32_t used, std::uint32_t available) {
  AXIHC_CHECK(available > 0);
  std::ostringstream os;
  const double pct = 100.0 * used / available;
  os << used << " (";
  os.precision(pct < 10 ? 2 : 3);
  os << pct << "%)";
  return os.str();
}

}  // namespace axihc
