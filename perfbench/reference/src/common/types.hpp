// Fundamental scalar types shared by every module of the AXI HyperConnect
// simulation library.
#pragma once

#include <cstdint>
#include <limits>

namespace axihc {

/// Simulation time, in clock cycles of the FPGA-fabric clock domain.
using Cycle = std::uint64_t;

/// Byte address on the AXI bus (the paper's platforms use 32/40-bit physical
/// addresses; 64 bits cover both).
using Addr = std::uint64_t;

/// AXI transaction identifier (the AxID signal).
using TxnId = std::uint32_t;

/// Index of a slave input port on an interconnect (which HA it serves).
using PortIndex = std::uint32_t;

/// Number of data beats in a burst (AXI4 INCR allows 1..256).
using BeatCount = std::uint32_t;

/// Sentinel for "no cycle recorded yet".
inline constexpr Cycle kNoCycle = std::numeric_limits<Cycle>::max();

/// Maximum burst length allowed by AXI4 for INCR bursts.
inline constexpr BeatCount kMaxAxi4BurstBeats = 256;

/// Maximum burst length allowed by AXI3.
inline constexpr BeatCount kMaxAxi3BurstBeats = 16;

/// Half-open byte range [base, base + bytes) in the physical address space.
/// Used by the memory path for address decode (mapped / error-synthesizing
/// windows).
struct AddrRange {
  Addr base = 0;
  std::uint64_t bytes = 0;

  [[nodiscard]] constexpr bool contains(Addr addr) const {
    return addr >= base && addr - base < bytes;
  }
  /// True if [addr, addr + len) lies entirely inside the range.
  [[nodiscard]] constexpr bool contains_span(Addr addr,
                                             std::uint64_t len) const {
    return addr >= base && len <= bytes && addr - base <= bytes - len;
  }
  /// True if [addr, addr + len) overlaps the range anywhere.
  [[nodiscard]] constexpr bool overlaps(Addr addr, std::uint64_t len) const {
    return addr < base + bytes && base < addr + len;
  }
};

}  // namespace axihc
