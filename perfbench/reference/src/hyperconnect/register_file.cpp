#include "hyperconnect/register_file.hpp"

#include <utility>

#include "common/check.hpp"

namespace axihc {

HcRegisterFile::HcRegisterFile(
    HcRuntime& runtime, std::function<std::uint64_t(PortIndex)> txn_count_fn,
    std::function<std::uint64_t(PortIndex)> inflight_fn)
    : runtime_(runtime),
      txn_count_fn_(std::move(txn_count_fn)),
      inflight_fn_(std::move(inflight_fn)) {
  AXIHC_CHECK(txn_count_fn_ != nullptr);
  AXIHC_CHECK(runtime_.budgets.size() == runtime_.coupled.size());
}

void HcRegisterFile::write(Addr offset, std::uint64_t value) {
  using namespace hcregs;
  if (offset == kCtrl) {
    runtime_.global_enable = (value & 1) != 0;
    return;
  }
  if (offset == kNominalBurst) {
    // Clamp to the AXI4 maximum; 0 keeps its "equalization off" meaning.
    runtime_.nominal_burst = static_cast<BeatCount>(
        value > kMaxAxi4BurstBeats ? kMaxAxi4BurstBeats : value);
    return;
  }
  if (offset == kReservationPeriod) {
    runtime_.reservation_period = value;
    return;
  }
  if (offset == kOutstandingLimit) {
    runtime_.max_outstanding =
        static_cast<std::uint32_t>(value == 0 ? 1 : value);
    return;
  }
  if (offset == kProtTimeout) {
    runtime_.prot_timeout = value;
    return;
  }
  if (offset >= kBudgetBase && offset < kBudgetBase + kRegStride * num_ports()) {
    const auto i = static_cast<PortIndex>((offset - kBudgetBase) / kRegStride);
    runtime_.budgets[i] = static_cast<std::uint32_t>(value);
    return;
  }
  if (offset >= kPortCtrlBase &&
      offset < kPortCtrlBase + kRegStride * num_ports()) {
    const auto i =
        static_cast<PortIndex>((offset - kPortCtrlBase) / kRegStride);
    runtime_.coupled[i] = (value & 1) != 0;
    return;
  }
  if (offset >= kFaultStatusBase &&
      offset < kFaultStatusBase + kRegStride * runtime_.fault.size()) {
    // Write-one-to-clear semantics (any write value clears): the hypervisor
    // acknowledges the fault and re-arms the port's protection unit. The
    // fault count and cycle stamp are preserved for postmortems.
    const auto i =
        static_cast<PortIndex>((offset - kFaultStatusBase) / kRegStride);
    runtime_.fault[i].faulted = false;
    runtime_.fault[i].cause = FaultCause::kNone;
    return;
  }
  ++ignored_writes_;
}

std::uint64_t HcRegisterFile::read(Addr offset) const {
  using namespace hcregs;
  if (offset == kCtrl) return runtime_.global_enable ? 1 : 0;
  if (offset == kNominalBurst) return runtime_.nominal_burst;
  if (offset == kReservationPeriod) return runtime_.reservation_period;
  if (offset == kOutstandingLimit) return runtime_.max_outstanding;
  if (offset == kNumPorts) return num_ports();
  if (offset == kId) return kIdValue;
  if (offset == kProtTimeout) return runtime_.prot_timeout;
  if (offset >= kBudgetBase &&
      offset < kBudgetBase + kRegStride * num_ports()) {
    const auto i = static_cast<PortIndex>((offset - kBudgetBase) / kRegStride);
    return runtime_.budgets[i];
  }
  if (offset >= kPortCtrlBase &&
      offset < kPortCtrlBase + kRegStride * num_ports()) {
    const auto i =
        static_cast<PortIndex>((offset - kPortCtrlBase) / kRegStride);
    return runtime_.coupled[i] ? 1 : 0;
  }
  if (offset >= kTxnCountBase &&
      offset < kTxnCountBase + kRegStride * num_ports()) {
    const auto i =
        static_cast<PortIndex>((offset - kTxnCountBase) / kRegStride);
    return txn_count_fn_(i);
  }
  if (offset >= kFaultStatusBase &&
      offset < kFaultStatusBase + kRegStride * runtime_.fault.size()) {
    const auto i =
        static_cast<PortIndex>((offset - kFaultStatusBase) / kRegStride);
    const PortFault& f = runtime_.fault[i];
    return (f.faulted ? kFaultStatusFaultedBit : 0) |
           (static_cast<std::uint64_t>(f.cause) << kFaultStatusCauseShift);
  }
  if (offset >= kFaultCountBase &&
      offset < kFaultCountBase + kRegStride * runtime_.fault.size()) {
    const auto i =
        static_cast<PortIndex>((offset - kFaultCountBase) / kRegStride);
    return runtime_.fault[i].count;
  }
  if (offset >= kFaultCycleBase &&
      offset < kFaultCycleBase + kRegStride * runtime_.fault.size()) {
    const auto i =
        static_cast<PortIndex>((offset - kFaultCycleBase) / kRegStride);
    return runtime_.fault[i].last_cycle;
  }
  if (offset >= kInflightBase &&
      offset < kInflightBase + kRegStride * num_ports()) {
    const auto i =
        static_cast<PortIndex>((offset - kInflightBase) / kRegStride);
    return inflight_fn_ ? inflight_fn_(i) : 0;
  }
  return 0;
}

}  // namespace axihc
