// The open-source driver of the AXI HyperConnect (§V-A: "the AXI
// HyperConnect comes with an open-source driver to control it").
//
// Typed wrapper over the register map (hyperconnect/register_file.hpp),
// issuing accesses through a RegisterMaster so every configuration change
// travels over the control bus like it would from the hypervisor's CPU.
#pragma once

#include <cstdint>
#include <vector>

#include "driver/register_master.hpp"
#include "hyperconnect/register_file.hpp"

namespace axihc {

class HyperConnectDriver {
 public:
  /// `rm` must be mastering the HyperConnect's control link.
  HyperConnectDriver(RegisterMaster& rm, std::uint32_t num_ports);

  void set_global_enable(bool on);
  void set_nominal_burst(BeatCount beats);
  void set_reservation_period(Cycle period);
  void set_outstanding_limit(std::uint32_t limit);
  void set_budget(PortIndex port, std::uint32_t budget);
  void set_coupled(PortIndex port, bool coupled);

  /// Protection-unit timeout in cycles; 0 disables stall detection.
  void set_prot_timeout(Cycle cycles);
  /// Acknowledges a latched fault so the port's protection unit re-arms
  /// (any write to FAULT_STATUS clears it). Re-coupling is separate.
  void clear_fault(PortIndex port);

  /// One-call reservation setup: period + all budgets.
  void apply_reservation(Cycle period,
                         const std::vector<std::uint32_t>& budgets);

  void read_id(RegisterMaster::ReadCallback cb);
  void read_num_ports(RegisterMaster::ReadCallback cb);
  void read_txn_count(PortIndex port, RegisterMaster::ReadCallback cb);

  /// FAULT_STATUS: bit0 = faulted, bits[3:1] = FaultCause.
  void read_fault_status(PortIndex port, RegisterMaster::ReadCallback cb);
  /// Cumulative faults latched on this port since reset.
  void read_fault_count(PortIndex port, RegisterMaster::ReadCallback cb);
  /// Cycle of the most recent fault on this port.
  void read_fault_cycle(PortIndex port, RegisterMaster::ReadCallback cb);
  /// Sub-transactions of this port still pending downstream; 0 = drained.
  void read_inflight(PortIndex port, RegisterMaster::ReadCallback cb);

  /// All queued configuration traffic has completed.
  [[nodiscard]] bool idle() const { return rm_.idle(); }

  [[nodiscard]] std::uint32_t num_ports() const { return num_ports_; }

 private:
  void check_port(PortIndex port) const;

  RegisterMaster& rm_;
  std::uint32_t num_ports_;
};

}  // namespace axihc
