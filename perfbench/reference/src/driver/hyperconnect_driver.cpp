#include "driver/hyperconnect_driver.hpp"

#include "common/check.hpp"

namespace axihc {

HyperConnectDriver::HyperConnectDriver(RegisterMaster& rm,
                                       std::uint32_t num_ports)
    : rm_(rm), num_ports_(num_ports) {
  AXIHC_CHECK(num_ports_ >= 1);
}

void HyperConnectDriver::check_port(PortIndex port) const {
  AXIHC_CHECK_MSG(port < num_ports_,
                  "port " << port << " out of range (num_ports=" << num_ports_
                          << ")");
}

void HyperConnectDriver::set_global_enable(bool on) {
  rm_.write_reg(hcregs::kCtrl, on ? 1 : 0);
}

void HyperConnectDriver::set_nominal_burst(BeatCount beats) {
  rm_.write_reg(hcregs::kNominalBurst, beats);
}

void HyperConnectDriver::set_reservation_period(Cycle period) {
  rm_.write_reg(hcregs::kReservationPeriod, period);
}

void HyperConnectDriver::set_outstanding_limit(std::uint32_t limit) {
  rm_.write_reg(hcregs::kOutstandingLimit, limit);
}

void HyperConnectDriver::set_budget(PortIndex port, std::uint32_t budget) {
  check_port(port);
  rm_.write_reg(hcregs::budget(port), budget);
}

void HyperConnectDriver::set_coupled(PortIndex port, bool coupled) {
  check_port(port);
  rm_.write_reg(hcregs::port_ctrl(port), coupled ? 1 : 0);
}

void HyperConnectDriver::set_prot_timeout(Cycle cycles) {
  rm_.write_reg(hcregs::kProtTimeout, cycles);
}

void HyperConnectDriver::clear_fault(PortIndex port) {
  check_port(port);
  rm_.write_reg(hcregs::fault_status(port), 0);
}

void HyperConnectDriver::apply_reservation(
    Cycle period, const std::vector<std::uint32_t>& budgets) {
  AXIHC_CHECK(budgets.size() == num_ports_);
  for (PortIndex i = 0; i < num_ports_; ++i) set_budget(i, budgets[i]);
  set_reservation_period(period);
}

void HyperConnectDriver::read_id(RegisterMaster::ReadCallback cb) {
  rm_.read_reg(hcregs::kId, std::move(cb));
}

void HyperConnectDriver::read_num_ports(RegisterMaster::ReadCallback cb) {
  rm_.read_reg(hcregs::kNumPorts, std::move(cb));
}

void HyperConnectDriver::read_txn_count(PortIndex port,
                                        RegisterMaster::ReadCallback cb) {
  check_port(port);
  rm_.read_reg(hcregs::txn_count(port), std::move(cb));
}

void HyperConnectDriver::read_fault_status(PortIndex port,
                                           RegisterMaster::ReadCallback cb) {
  check_port(port);
  rm_.read_reg(hcregs::fault_status(port), std::move(cb));
}

void HyperConnectDriver::read_fault_count(PortIndex port,
                                          RegisterMaster::ReadCallback cb) {
  check_port(port);
  rm_.read_reg(hcregs::fault_count(port), std::move(cb));
}

void HyperConnectDriver::read_fault_cycle(PortIndex port,
                                          RegisterMaster::ReadCallback cb) {
  check_port(port);
  rm_.read_reg(hcregs::fault_cycle(port), std::move(cb));
}

void HyperConnectDriver::read_inflight(PortIndex port,
                                       RegisterMaster::ReadCallback cb) {
  check_port(port);
  rm_.read_reg(hcregs::inflight(port), std::move(cb));
}

}  // namespace axihc
