// RecoveryManager — closes the hypervisor's detect -> isolate loop (§V-A
// leaves it open: the protection unit decouples a faulty port and the
// watchdog acknowledges the fault, but nothing ever attempts to bring the
// accelerator back).
//
// One FSM per HyperConnect port, driven from the hypervisor's watchdog poll
// (the manager never touches the hardware outside a poll):
//
//            fault / overrun observed
//   Healthy ─────────────────────────> Quarantined
//                                        │ backoff expired
//                                        v            INFLIGHT == 0
//   Probation <── Resetting <──────── Draining        (or drain timeout)
//      │              clear_fault + recouple (HA reset runs when Resetting
//      │              advances, after the recouple write has landed)
//      │ window expires fault-free
//      v
//   Healthy    (recovery recorded; backoff and attempts reset)
//
// A new fault observed in Draining / Resetting / Probation DEMOTES the port
// back to Quarantined with its backoff doubled (capped at backoff_max); a
// demotion arriving after `max_attempts` re-couple attempts ESCALATES the
// port to PermanentlyIsolated, a terminal state.
//
// Graceful degradation: while a port is Quarantined / Draining /
// PermanentlyIsolated its reservation budget is reclaimed and redistributed
// across the remaining ports, proportionally to their baseline budgets
// (largest-remainder apportionment, so the result is deterministic and
// integer-exact). The original split is restored the moment the port is
// recoupled (Resetting). Invariant, checked at every recomputation: the sum
// of programmed budgets equals the sum of baseline budgets — survivors keep
// the full reserved capacity of the window, preserving the predictability
// guarantee.
//
// All hardware effects travel through the HyperConnectDriver over the
// control bus (budget writes, FAULT_STATUS clear, PORT_CTRL recouple), like
// every other hypervisor action.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "driver/hyperconnect_driver.hpp"
#include "obs/metrics.hpp"
#include "sim/component.hpp"
#include "sim/trace.hpp"

namespace axihc {

enum class RecoveryState : std::uint8_t {
  kHealthy = 0,
  kQuarantined,
  kDraining,
  kResetting,
  kProbation,
  kPermanentlyIsolated,
};

[[nodiscard]] const char* to_string(RecoveryState s);

struct RecoveryPolicy {
  /// First wait between quarantine and the drain/re-couple attempt.
  Cycle backoff_base = 1000;
  /// Backoff ceiling (doubling stops here).
  Cycle backoff_max = 16000;
  /// Fault-free cycles a recoupled port must survive to count as recovered.
  Cycle probation_window = 2000;
  /// Re-couple attempts before a demotion escalates to PermanentlyIsolated.
  std::uint32_t max_attempts = 4;
  /// Max cycles to wait in Draining for INFLIGHT to reach zero.
  Cycle drain_timeout = 4000;
};

/// One FSM transition, for tests and postmortems.
struct RecoveryTransition {
  Cycle cycle = 0;
  PortIndex port = 0;
  RecoveryState from = RecoveryState::kHealthy;
  RecoveryState to = RecoveryState::kHealthy;
};

class RecoveryManager final : public Component {
 public:
  RecoveryManager(std::string name, HyperConnectDriver& driver,
                  RecoveryPolicy policy);

  /// The reservation split to defend and restore. Programs nothing by
  /// itself — the budgets are assumed to already be in the hardware (the
  /// system builder passes the [hyperconnect] budgets the HyperConnect was
  /// built with).
  void set_baseline_budgets(std::vector<std::uint32_t> budgets);

  /// Software HA reset performed when Resetting advances to Probation —
  /// after the recouple write has landed, so the restarted accelerator
  /// issues into a live port (DPR semantics: the accelerator behind a
  /// decoupled port must not resume with pre-fault in-flight state).
  /// Optional.
  void set_ha_reset(std::function<void(PortIndex)> fn) {
    ha_reset_ = std::move(fn);
  }

  // --- Hooks called by the Hypervisor during its poll (serial scope). ---

  /// The watchdog saw `port` misbehave: a new hardware fault (FAULT_COUNT
  /// advanced) or a transaction-rate overrun. Both are handled alike — the
  /// port has proven it cannot be trusted with its current coupling. The
  /// hypervisor has already decoupled the port.
  void on_fault(PortIndex port, Cycle now);
  /// Advances every port's FSM. `inflight[p]` is the freshly polled
  /// INFLIGHT register value of port p.
  void on_poll(Cycle now, const std::vector<std::uint64_t>& inflight);

  // --- Introspection. ---

  [[nodiscard]] RecoveryState state(PortIndex port) const;
  [[nodiscard]] Cycle backoff(PortIndex port) const;
  [[nodiscard]] std::uint32_t attempts(PortIndex port) const;
  /// The budget this manager wants programmed for `port` right now.
  [[nodiscard]] std::uint32_t intended_budget(PortIndex port) const;
  /// True when the FSM has recoupled (or never decoupled) the port.
  [[nodiscard]] bool wants_coupled(PortIndex port) const;
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }
  [[nodiscard]] std::uint64_t escalations() const { return escalations_; }
  [[nodiscard]] std::uint64_t demotions() const { return demotions_; }
  /// Mean cycles from quarantine entry to Probation -> Healthy, over all
  /// completed recoveries (0 when none completed).
  [[nodiscard]] double mean_time_to_recovery() const;
  /// Times the budget-conservation invariant failed (must stay 0).
  [[nodiscard]] std::uint64_t conservation_violations() const {
    return conservation_violations_;
  }
  [[nodiscard]] const std::vector<RecoveryTransition>& transitions() const {
    return transitions_;
  }
  /// Every port is Healthy or PermanentlyIsolated (no episode in flight) —
  /// the campaign runner's convergence criterion.
  [[nodiscard]] bool all_converged() const;

  // --- Component contract. ---

  /// The manager acts only from the hypervisor's poll hooks; its own tick
  /// is empty (it still registers with the simulator so its state is part
  /// of the digest).
  void tick(Cycle /*now*/) override {}
  void reset() override;
  [[nodiscard]] Cycle next_activity(Cycle /*now*/) const override {
    return kNoCycle;
  }
  void append_digest(StateDigest& d) const override;

  /// Observability: every FSM transition becomes a trace instant.
  void set_trace(EventTrace* trace) { trace_ = trace; }
  /// Registers recovery counters and per-port state/backoff gauges.
  void register_metrics(MetricsRegistry& reg);

 private:
  struct PortFsm {
    RecoveryState state = RecoveryState::kHealthy;
    Cycle backoff = 0;          // current wait before the next attempt
    std::uint32_t attempts = 0; // re-couple attempts this episode
    Cycle wait_until = 0;       // Quarantined: when to start draining
    Cycle drain_deadline = 0;   // Draining: give-up time
    Cycle probation_until = 0;  // Probation: promotion time
    Cycle quarantined_at = 0;   // episode start (for time-to-recovery)
  };

  void transition(PortIndex port, RecoveryState to, Cycle now);
  /// New fault/overrun while an episode is in flight: back to Quarantined
  /// with doubled backoff, or PermanentlyIsolated past the attempt budget.
  void demote(PortIndex port, Cycle now);
  /// Begins an episode from Healthy.
  void quarantine(PortIndex port, Cycle now);
  /// Recomputes the intended budget split from the current donor set and
  /// programs every changed budget through the driver.
  void redistribute_budgets(Cycle now);
  [[nodiscard]] bool tracing() const {
    return trace_ != nullptr && trace_->enabled();
  }

  HyperConnectDriver& driver_;
  RecoveryPolicy policy_;
  std::vector<PortFsm> ports_;
  std::vector<std::uint32_t> baseline_budgets_;
  std::vector<std::uint32_t> intended_budgets_;

  std::uint64_t recoveries_ = 0;
  std::uint64_t escalations_ = 0;
  std::uint64_t demotions_ = 0;
  std::uint64_t total_recovery_cycles_ = 0;
  std::uint64_t conservation_violations_ = 0;
  std::vector<RecoveryTransition> transitions_;

  std::function<void(PortIndex)> ha_reset_;
  EventTrace* trace_ = nullptr;
};

}  // namespace axihc
