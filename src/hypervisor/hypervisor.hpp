// Hypervisor model: the software-side owner of the AXI HyperConnect (§IV).
//
// The hypervisor is the only agent allowed to touch the HyperConnect's
// control interface. Every poll_period cycles its watchdog reads each
// port's TXN_COUNT, FAULT_STATUS, FAULT_COUNT and INFLIGHT registers. A
// port that issued more than max_txns_per_poll sub-transactions since the
// last poll (a misbehaving HA), or whose protection unit latched a new
// fault, is decoupled (§V-A "Decoupling from the memory subsystem") and
// handed to the RecoveryManager (src/recovery), whose per-port FSM decides
// when to recouple it; the hypervisor mirrors those decisions into its
// isolation ledger.
//
// All configuration travels over the control bus through the driver — the
// hypervisor never back-doors the hardware state.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "driver/hyperconnect_driver.hpp"
#include "obs/metrics.hpp"
#include "sim/component.hpp"
#include "sim/trace.hpp"

namespace axihc {

class RecoveryManager;

struct WatchdogPolicy {
  /// Poll period in cycles (>= 1).
  Cycle poll_period = 500;
  /// Max sub-transactions any port may issue between two polls before it
  /// is considered misbehaving (0 = no limit).
  std::uint64_t max_txns_per_poll = 0;
};

/// Record of a watchdog intervention.
struct IsolationEvent {
  Cycle cycle = 0;
  PortIndex port = 0;
  std::uint64_t observed_txns = 0;
  std::uint64_t allowed_txns = 0;
};

/// Record of a hardware fault observed through the FAULT_COUNT registers.
struct FaultEvent {
  Cycle cycle = 0;  // when the hypervisor observed it (poll granularity)
  PortIndex port = 0;
  FaultCause cause = FaultCause::kNone;
};

class Hypervisor final : public Component {
 public:
  Hypervisor(std::string name, HyperConnectDriver& driver,
             RecoveryManager& recovery, WatchdogPolicy watchdog);

  [[nodiscard]] bool port_isolated(PortIndex port) const;
  [[nodiscard]] const std::vector<IsolationEvent>& isolation_events() const {
    return events_;
  }
  [[nodiscard]] const std::vector<FaultEvent>& fault_events() const {
    return fault_events_;
  }

  void tick(Cycle now) override;
  void reset() override;
  [[nodiscard]] Cycle next_activity(Cycle now) const override {
    // A poll in flight completes via driver/bus callbacks that this tick
    // must observe; otherwise sleep until the next scheduled poll.
    if (poll_in_flight_) return now;
    return now < next_poll_ ? next_poll_ : now;
  }

  /// Observability: watchdog isolations and observed faults become trace
  /// instants. nullptr (the default) disables the hooks.
  void set_trace(EventTrace* trace) { trace_ = trace; }

  /// Registers intervention counters (isolations, faults observed, ports
  /// currently isolated) with `reg`.
  void register_metrics(MetricsRegistry& reg);

  void append_digest(StateDigest& d) const override;

 private:
  /// One port's register reads of the poll in flight.
  struct PollReads {
    std::optional<std::uint64_t> txn_count;
    std::optional<std::uint64_t> fault_status;
    std::optional<std::uint64_t> fault_count;
    std::optional<std::uint64_t> inflight;
    [[nodiscard]] bool complete() const {
      return txn_count && fault_status && fault_count && inflight;
    }
  };

  void poll_counters(Cycle now);
  /// Decouples `port` and starts (or escalates) its recovery episode.
  void isolate(PortIndex port, Cycle now);
  [[nodiscard]] bool tracing() const {
    return trace_ != nullptr && trace_->enabled();
  }

  HyperConnectDriver& driver_;
  RecoveryManager& recovery_;
  WatchdogPolicy watchdog_;
  std::vector<bool> isolated_;
  std::vector<std::uint64_t> last_txn_count_;
  std::vector<std::uint64_t> last_fault_count_;
  std::vector<PollReads> reads_;
  Cycle next_poll_ = 0;
  bool poll_in_flight_ = false;
  std::vector<IsolationEvent> events_;
  std::vector<FaultEvent> fault_events_;
  EventTrace* trace_ = nullptr;
};

}  // namespace axihc
