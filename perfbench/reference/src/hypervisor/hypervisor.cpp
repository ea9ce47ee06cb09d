#include "hypervisor/hypervisor.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "recovery/recovery_manager.hpp"

namespace axihc {

Hypervisor::Hypervisor(std::string name, HyperConnectDriver& driver)
    : Component(std::move(name)),
      driver_(driver),
      isolated_(driver.num_ports(), false),
      last_txn_count_(driver.num_ports(), 0),
      last_fault_count_(driver.num_ports(), 0),
      poll_results_(driver.num_ports()),
      fault_results_(driver.num_ports()),
      fault_count_results_(driver.num_ports()),
      inflight_results_(driver.num_ports()) {}

void Hypervisor::set_recovery(RecoveryManager* recovery) {
  recovery_ = recovery;
}

void Hypervisor::reset() {
  isolated_.assign(driver_.num_ports(), false);
  last_txn_count_.assign(driver_.num_ports(), 0);
  last_fault_count_.assign(driver_.num_ports(), 0);
  poll_results_.assign(driver_.num_ports(), std::nullopt);
  fault_results_.assign(driver_.num_ports(), std::nullopt);
  fault_count_results_.assign(driver_.num_ports(), std::nullopt);
  inflight_results_.assign(driver_.num_ports(), std::nullopt);
  next_poll_ = 0;
  poll_in_flight_ = false;
  events_.clear();
  fault_events_.clear();
}

void Hypervisor::append_digest(StateDigest& d) const {
  for (const bool b : isolated_) d.mix(static_cast<std::uint64_t>(b));
  for (const std::uint64_t c : last_txn_count_) d.mix(c);
  for (const std::uint64_t c : last_fault_count_) d.mix(c);
  d.mix(next_poll_);
  d.mix(static_cast<std::uint64_t>(poll_in_flight_));
  d.mix(static_cast<std::uint64_t>(events_.size()));
  d.mix(static_cast<std::uint64_t>(fault_events_.size()));
}

void Hypervisor::register_metrics(MetricsRegistry& reg) {
  reg.add_counter(name() + ".isolations", [this] {
    return static_cast<double>(events_.size());
  });
  reg.add_counter(name() + ".faults_observed", [this] {
    return static_cast<double>(fault_events_.size());
  });
  reg.add_gauge(name() + ".ports_isolated", [this] {
    return static_cast<double>(
        std::count(isolated_.begin(), isolated_.end(), true));
  });
}

std::size_t Hypervisor::add_domain(Domain domain) {
  for (const PortIndex p : domain.ports) {
    AXIHC_CHECK_MSG(p < driver_.num_ports(),
                    "domain port " << p << " out of range");
    for (const auto& existing : domains_) {
      for (const PortIndex q : existing.ports) {
        AXIHC_CHECK_MSG(p != q, "port " << p << " already owned by domain '"
                                        << existing.name << "'");
      }
    }
  }
  domains_.push_back(std::move(domain));
  return domains_.size() - 1;
}

void Hypervisor::configure_reservation(Cycle period, double cycles_per_txn) {
  std::vector<double> fractions(driver_.num_ports(), 0.0);
  for (const auto& d : domains_) {
    // A domain's fraction is divided evenly among its ports.
    AXIHC_CHECK(!d.ports.empty());
    const double per_port = d.bandwidth_fraction /
                            static_cast<double>(d.ports.size());
    for (const PortIndex p : d.ports) fractions[p] = per_port;
  }
  apply_plan(plan_bandwidth_split(period, cycles_per_txn, fractions));
}

void Hypervisor::apply_plan(const ReservationPlan& plan) {
  AXIHC_CHECK(plan.budgets.size() == driver_.num_ports());
  driver_.apply_reservation(plan.period, plan.budgets);
  // The plan is the baseline split the recovery manager defends (graceful
  // degradation) and restores (on recovery).
  if (recovery_ != nullptr) recovery_->set_baseline_budgets(plan.budgets);
}

void Hypervisor::set_watchdog(WatchdogPolicy policy) {
  if (policy.poll_period != 0) {
    AXIHC_CHECK(policy.max_txns_per_poll.size() == driver_.num_ports());
  }
  watchdog_ = std::move(policy);
  next_poll_ = watchdog_.poll_period;
}

void Hypervisor::isolate_domain(std::size_t domain_index) {
  AXIHC_CHECK(domain_index < domains_.size());
  for (const PortIndex p : domains_[domain_index].ports) {
    driver_.set_coupled(p, false);
    isolated_[p] = true;
  }
}

void Hypervisor::restore_domain(std::size_t domain_index) {
  AXIHC_CHECK(domain_index < domains_.size());
  for (const PortIndex p : domains_[domain_index].ports) {
    driver_.set_coupled(p, true);
    isolated_[p] = false;
  }
}

bool Hypervisor::port_isolated(PortIndex port) const {
  AXIHC_CHECK(port < isolated_.size());
  return isolated_[port];
}

void Hypervisor::poll_counters(Cycle now) {
  // All reads have returned; evaluate the policy.
  const bool recovering = recovery_ != nullptr;
  std::vector<std::uint64_t> inflight;
  if (recovering) inflight.resize(driver_.num_ports(), 0);

  for (PortIndex p = 0; p < driver_.num_ports(); ++p) {
    AXIHC_CHECK(poll_results_[p].has_value());
    const std::uint64_t count = *poll_results_[p];
    const std::uint64_t delta = count - last_txn_count_[p];
    last_txn_count_[p] = count;
    poll_results_[p] = std::nullopt;

    const std::uint64_t allowed = watchdog_.max_txns_per_poll[p];
    if (allowed != 0 && delta > allowed && !isolated_[p]) {
      events_.push_back({now, p, delta, allowed});
      if (tracing()) {
        trace_->record(now, name(),
                       "watchdog_isolate p" + std::to_string(p));
      }
      AXIHC_LOG_INFO() << name() << ": port " << p << " issued " << delta
                       << " txns (allowed " << allowed << ") — "
                       << (watchdog_.auto_isolate ? "decoupling"
                                                  : "flagging");
      if (watchdog_.auto_isolate) {
        driver_.set_coupled(p, false);
        isolated_[p] = true;
        if (recovering) recovery_->on_watchdog_overrun(p, now);
      }
    }

    // Hardware-fault handling: the protection unit latched a fault (timeout
    // / stall / malformed burst) and quarantined the port internally.
    AXIHC_CHECK(fault_results_[p].has_value());
    const std::uint64_t status = *fault_results_[p];
    fault_results_[p] = std::nullopt;
    const bool latched = (status & hcregs::kFaultStatusFaultedBit) != 0;
    const auto cause = static_cast<FaultCause>(
        (status >> hcregs::kFaultStatusCauseShift) & 0x7);

    if (recovering) {
      // With a recovery manager the status latch stays set for the whole
      // quarantine (only the FSM's Resetting step clears it), so a latched
      // status is not news by itself. New faults are FAULT_COUNT deltas —
      // that also catches a port faulting again during probation.
      AXIHC_CHECK(fault_count_results_[p].has_value());
      const std::uint64_t fcount = *fault_count_results_[p];
      const std::uint64_t fdelta = fcount - last_fault_count_[p];
      last_fault_count_[p] = fcount;
      fault_count_results_[p] = std::nullopt;
      AXIHC_CHECK(inflight_results_[p].has_value());
      inflight[p] = *inflight_results_[p];
      inflight_results_[p] = std::nullopt;

      if (fdelta > 0) {
        fault_events_.push_back({now, p, cause});
        if (tracing()) {
          trace_->record(now, name(),
                         "fault_observed p" + std::to_string(p));
        }
        AXIHC_LOG_INFO() << name() << ": port " << p << " latched " << fdelta
                         << " new fault(s) (cause "
                         << static_cast<unsigned>(cause)
                         << ") — handing to recovery";
        if (watchdog_.isolate_on_fault) {
          driver_.set_coupled(p, false);
          isolated_[p] = true;
          recovery_->on_fault(p, cause, now);
        }
      }
      continue;
    }

    if (latched) {
      fault_events_.push_back({now, p, cause});
      if (tracing()) {
        trace_->record(now, name(),
                       "fault_observed p" + std::to_string(p));
      }
      AXIHC_LOG_INFO() << name() << ": port " << p
                       << " fault latched (cause "
                       << static_cast<unsigned>(cause) << ") — "
                       << (watchdog_.isolate_on_fault ? "isolating"
                                                      : "flagging");
      if (watchdog_.isolate_on_fault) {
        driver_.set_coupled(p, false);
        isolated_[p] = true;
        // Acknowledge the fault: the FAULT_STATUS write re-arms the port's
        // protection unit. Without a recovery manager nobody ever recouples
        // the port, so this is pure bookkeeping (FAULT_COUNT / FAULT_CYCLE
        // stay for postmortems); attach a RecoveryManager (set_recovery)
        // for an actual recovery attempt — there the clear is deferred to
        // the FSM's Resetting step.
        driver_.clear_fault(p);
      }
    }
  }

  if (recovering) {
    // Advance every port's recovery FSM, then mirror its coupling decisions
    // into the isolation ledger (ports it recoupled are no longer isolated;
    // ports it holds out of service are).
    recovery_->on_poll(now, inflight);
    for (PortIndex p = 0; p < driver_.num_ports(); ++p) {
      if (recovery_->state(p) != RecoveryState::kHealthy) {
        isolated_[p] = !recovery_->wants_coupled(p);
      }
    }
  }
}

void Hypervisor::tick(Cycle now) {
  if (watchdog_.poll_period == 0) return;

  if (poll_in_flight_) {
    bool all_back = true;
    for (PortIndex p = 0; p < driver_.num_ports(); ++p) {
      if (!poll_results_[p].has_value() || !fault_results_[p].has_value()) {
        all_back = false;
        break;
      }
      if (recovery_ != nullptr && (!fault_count_results_[p].has_value() ||
                                   !inflight_results_[p].has_value())) {
        all_back = false;
        break;
      }
    }
    if (all_back && driver_.idle()) {
      poll_in_flight_ = false;
      poll_counters(now);
    }
    return;
  }

  if (now >= next_poll_) {
    next_poll_ = now + watchdog_.poll_period;
    poll_in_flight_ = true;
    for (PortIndex p = 0; p < driver_.num_ports(); ++p) {
      poll_results_[p] = std::nullopt;
      fault_results_[p] = std::nullopt;
      driver_.read_txn_count(
          p, [this, p](std::uint64_t v) { poll_results_[p] = v; });
      driver_.read_fault_status(
          p, [this, p](std::uint64_t v) { fault_results_[p] = v; });
      if (recovery_ != nullptr) {
        fault_count_results_[p] = std::nullopt;
        inflight_results_[p] = std::nullopt;
        driver_.read_fault_count(
            p, [this, p](std::uint64_t v) { fault_count_results_[p] = v; });
        driver_.read_inflight(
            p, [this, p](std::uint64_t v) { inflight_results_[p] = v; });
      }
    }
  }
}

}  // namespace axihc
