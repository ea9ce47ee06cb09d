// Memory-mapped register file of the AXI HyperConnect control interface
// (§V-A "Runtime reconfiguration").
//
// The HyperConnect exports a control AXI slave interface so its
// configuration can be changed from the PS at run time; in the considered
// framework this interface is managed exclusively by the hypervisor. This
// file defines the register map (also implemented by the open-source driver
// in src/driver) and the register-access semantics.
//
// Register map (64-bit registers, byte offsets):
//   0x000 CTRL                rw  bit0 = global enable
//   0x008 NOMINAL_BURST       rw  equalization burst size in beats; 0 = off
//   0x010 RESERVATION_PERIOD  rw  budget recharge period in cycles; 0 = off
//   0x018 OUTSTANDING_LIMIT   rw  per-port, per-direction sub-txn limit
//   0x020 NUM_PORTS           ro
//   0x028 ID                  ro  0xA81C0001
//   0x030 PROT_TIMEOUT        rw  protection-unit timeout in cycles; 0 = off
//   0x100 + 8*i BUDGET[i]     rw  transactions per period for port i
//   0x200 + 8*i PORT_CTRL[i]  rw  bit0 = coupled (0 decouples the port)
//   0x300 + 8*i TXN_COUNT[i]  ro  sub-transactions issued by port i
//   0x400 + 8*i FAULT_STATUS[i] rw1c bit0 = faulted, bits[3:1] = cause
//                                  (FaultCause); any write clears the latch
//                                  and re-arms the port
//   0x500 + 8*i FAULT_COUNT[i]  ro faults latched on port i since reset
//   0x600 + 8*i FAULT_CYCLE[i]  ro cycle of port i's most recent fault
//   0x700 + 8*i INFLIGHT[i]     ro sub-transactions of port i still pending
//                                  downstream (reads + writes); the recovery
//                                  FSM's drain gate
#pragma once

#include <cstdint>
#include <functional>

#include "common/types.hpp"
#include "hyperconnect/config.hpp"

namespace axihc::hcregs {

inline constexpr Addr kCtrl = 0x000;
inline constexpr Addr kNominalBurst = 0x008;
inline constexpr Addr kReservationPeriod = 0x010;
inline constexpr Addr kOutstandingLimit = 0x018;
inline constexpr Addr kNumPorts = 0x020;
inline constexpr Addr kId = 0x028;
inline constexpr Addr kProtTimeout = 0x030;
inline constexpr Addr kBudgetBase = 0x100;
inline constexpr Addr kPortCtrlBase = 0x200;
inline constexpr Addr kTxnCountBase = 0x300;
inline constexpr Addr kFaultStatusBase = 0x400;
inline constexpr Addr kFaultCountBase = 0x500;
inline constexpr Addr kFaultCycleBase = 0x600;
inline constexpr Addr kInflightBase = 0x700;
inline constexpr Addr kRegStride = 8;

inline constexpr std::uint64_t kIdValue = 0xA81C0001;

/// FAULT_STATUS layout: bit 0 = faulted, bits [3:1] = FaultCause.
inline constexpr std::uint64_t kFaultStatusFaultedBit = 1;
inline constexpr std::uint32_t kFaultStatusCauseShift = 1;

[[nodiscard]] inline Addr budget(PortIndex i) {
  return kBudgetBase + kRegStride * i;
}
[[nodiscard]] inline Addr port_ctrl(PortIndex i) {
  return kPortCtrlBase + kRegStride * i;
}
[[nodiscard]] inline Addr txn_count(PortIndex i) {
  return kTxnCountBase + kRegStride * i;
}
[[nodiscard]] inline Addr fault_status(PortIndex i) {
  return kFaultStatusBase + kRegStride * i;
}
[[nodiscard]] inline Addr fault_count(PortIndex i) {
  return kFaultCountBase + kRegStride * i;
}
[[nodiscard]] inline Addr fault_cycle(PortIndex i) {
  return kFaultCycleBase + kRegStride * i;
}
[[nodiscard]] inline Addr inflight(PortIndex i) {
  return kInflightBase + kRegStride * i;
}

}  // namespace axihc::hcregs

namespace axihc {

/// Decodes register reads/writes against the HcRuntime it supervises.
/// TXN_COUNT and INFLIGHT reads are served through callbacks into the
/// TS/PU counters.
class HcRegisterFile {
 public:
  /// `runtime` is borrowed (owned by the HyperConnect). `txn_count_fn`
  /// returns the sub-transaction count of a port; `inflight_fn` the number
  /// of its sub-transactions still pending downstream (nullptr reads as 0 —
  /// register-file unit tests don't model the protection units).
  HcRegisterFile(HcRuntime& runtime,
                 std::function<std::uint64_t(PortIndex)> txn_count_fn,
                 std::function<std::uint64_t(PortIndex)> inflight_fn = {});

  /// Applies a register write. Unknown/read-only offsets are ignored
  /// (hardware-style: writes to RO registers have no effect) but counted.
  void write(Addr offset, std::uint64_t value);

  /// Reads a register. Unknown offsets read as zero.
  [[nodiscard]] std::uint64_t read(Addr offset) const;

  [[nodiscard]] std::uint64_t ignored_writes() const {
    return ignored_writes_;
  }

 private:
  [[nodiscard]] std::uint32_t num_ports() const {
    return static_cast<std::uint32_t>(runtime_.budgets.size());
  }

  HcRuntime& runtime_;
  std::function<std::uint64_t(PortIndex)> txn_count_fn_;
  std::function<std::uint64_t(PortIndex)> inflight_fn_;
  std::uint64_t ignored_writes_ = 0;
};

}  // namespace axihc
