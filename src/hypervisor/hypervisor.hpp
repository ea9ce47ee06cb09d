// Hypervisor model: the software-side owner of the AXI HyperConnect (§IV).
//
// The hypervisor is the only agent allowed to touch the HyperConnect's
// control interface. It:
//  * registers the execution domains and their HA-to-port bindings;
//  * programs the reservation plan (bandwidth isolation between domains);
//  * watches per-port transaction counters and automatically decouples a
//    port that exceeds its policed rate (misbehaving/faulty HA detection,
//    §V-A "Decoupling from the memory subsystem");
//  * supports explicit isolate/restore of whole domains (e.g. around
//    dynamic partial reconfiguration);
//  * optionally drives a RecoveryManager (src/recovery) so a detected fault
//    starts a closed-loop recovery episode instead of retiring the port.
//
// All configuration travels over the control bus through the driver — the
// hypervisor never back-doors the hardware state.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "driver/hyperconnect_driver.hpp"
#include "hypervisor/domain.hpp"
#include "obs/metrics.hpp"
#include "sim/component.hpp"
#include "sim/trace.hpp"

namespace axihc {

class RecoveryManager;

struct WatchdogPolicy {
  /// Poll period in cycles; 0 disables the watchdog.
  Cycle poll_period = 0;
  /// Max sub-transactions a port may issue between two polls before it is
  /// considered misbehaving (0 = no limit for that port).
  std::vector<std::uint64_t> max_txns_per_poll;
  /// Decouple offending ports automatically.
  bool auto_isolate = true;
  /// Also read each port's FAULT_STATUS register at every poll; on a latched
  /// fault, formally decouple the port (the hardware protection unit has
  /// already quarantined it). Without a RecoveryManager the fault is then
  /// acknowledged and the port stays retired; with one (set_recovery) the
  /// acknowledgment is deferred to the recovery FSM's Resetting step, which
  /// re-arms the protection unit just before recoupling.
  bool isolate_on_fault = true;
};

/// Record of a watchdog intervention.
struct IsolationEvent {
  Cycle cycle = 0;
  PortIndex port = 0;
  std::uint64_t observed_txns = 0;
  std::uint64_t allowed_txns = 0;
};

/// Record of a hardware fault observed through the FAULT_STATUS registers.
struct FaultEvent {
  Cycle cycle = 0;  // when the hypervisor observed it (poll granularity)
  PortIndex port = 0;
  FaultCause cause = FaultCause::kNone;
};

class Hypervisor final : public Component {
 public:
  Hypervisor(std::string name, HyperConnectDriver& driver);

  /// Registers a domain; returns its index. Port indices must be unique
  /// across domains (one HA master port per HyperConnect input port).
  std::size_t add_domain(Domain domain);

  [[nodiscard]] const std::vector<Domain>& domains() const {
    return domains_;
  }

  /// Programs the HyperConnect with a reservation plan computed from the
  /// domains' bandwidth fractions (see plan_bandwidth_split).
  void configure_reservation(Cycle period, double cycles_per_txn);

  /// Applies an explicit reservation plan.
  void apply_plan(const ReservationPlan& plan);

  void set_watchdog(WatchdogPolicy policy);

  /// Attaches a recovery manager: instead of retiring a faulty/overrunning
  /// port forever, the watchdog hands it to the manager's per-port FSM
  /// (quarantine -> drain -> reset -> probation), and each poll additionally
  /// reads FAULT_COUNT (new-fault detection survives a latched status) and
  /// INFLIGHT (the drain gate). nullptr detaches (legacy retire-on-fault
  /// behavior).
  void set_recovery(RecoveryManager* recovery);

  /// Decouples / recouples every port of a domain.
  void isolate_domain(std::size_t domain_index);
  void restore_domain(std::size_t domain_index);

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
    if (watchdog_.poll_period == 0) return kNoCycle;
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
  void poll_counters(Cycle now);
  [[nodiscard]] bool tracing() const {
    return trace_ != nullptr && trace_->enabled();
  }

  HyperConnectDriver& driver_;
  RecoveryManager* recovery_ = nullptr;
  std::vector<Domain> domains_;
  WatchdogPolicy watchdog_{};
  std::vector<bool> isolated_;
  std::vector<std::uint64_t> last_txn_count_;
  std::vector<std::uint64_t> last_fault_count_;
  std::vector<std::optional<std::uint64_t>> poll_results_;
  std::vector<std::optional<std::uint64_t>> fault_results_;
  // Extra per-poll reads issued only with a recovery manager attached.
  std::vector<std::optional<std::uint64_t>> fault_count_results_;
  std::vector<std::optional<std::uint64_t>> inflight_results_;
  Cycle next_poll_ = 0;
  bool poll_in_flight_ = false;
  std::vector<IsolationEvent> events_;
  std::vector<FaultEvent> fault_events_;
  EventTrace* trace_ = nullptr;
};

}  // namespace axihc
