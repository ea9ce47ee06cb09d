#include "hypervisor/hypervisor.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "recovery/recovery_manager.hpp"

namespace axihc {

Hypervisor::Hypervisor(std::string name, HyperConnectDriver& driver,
                       RecoveryManager& recovery, WatchdogPolicy watchdog)
    : Component(std::move(name)),
      driver_(driver),
      recovery_(recovery),
      watchdog_(watchdog),
      isolated_(driver.num_ports(), false),
      last_txn_count_(driver.num_ports(), 0),
      last_fault_count_(driver.num_ports(), 0),
      reads_(driver.num_ports()) {
  AXIHC_CHECK_MSG(watchdog_.poll_period >= 1,
                  Component::name() << ": poll_period must be >= 1");
}

void Hypervisor::reset() {
  isolated_.assign(driver_.num_ports(), false);
  last_txn_count_.assign(driver_.num_ports(), 0);
  last_fault_count_.assign(driver_.num_ports(), 0);
  reads_.assign(driver_.num_ports(), PollReads{});
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

bool Hypervisor::port_isolated(PortIndex port) const {
  AXIHC_CHECK(port < isolated_.size());
  return isolated_[port];
}

void Hypervisor::isolate(PortIndex port, Cycle now) {
  driver_.set_coupled(port, false);
  isolated_[port] = true;
  recovery_.on_fault(port, now);
}

void Hypervisor::poll_counters(Cycle now) {
  // All reads have returned; evaluate the policy.
  std::vector<std::uint64_t> inflight(driver_.num_ports(), 0);

  for (PortIndex p = 0; p < driver_.num_ports(); ++p) {
    const PollReads r = std::exchange(reads_[p], PollReads{});
    AXIHC_CHECK(r.complete());
    const std::uint64_t delta = *r.txn_count - last_txn_count_[p];
    last_txn_count_[p] = *r.txn_count;

    const std::uint64_t allowed = watchdog_.max_txns_per_poll;
    if (allowed != 0 && delta > allowed && !isolated_[p]) {
      events_.push_back({now, p, delta, allowed});
      if (tracing()) {
        trace_->record(now, name(),
                       "watchdog_isolate p" + std::to_string(p));
      }
      isolate(p, now);
    }

    // Hardware-fault handling: the protection unit latched a fault (timeout
    // / stall / malformed burst) and quarantined the port internally. The
    // status latch stays set for the whole quarantine (only the recovery
    // FSM's Resetting step clears it), so a latched status is not news by
    // itself. New faults are FAULT_COUNT deltas — that also catches a port
    // faulting again during probation.
    const auto cause = static_cast<FaultCause>(
        (*r.fault_status >> hcregs::kFaultStatusCauseShift) & 0x7);
    const std::uint64_t fdelta = *r.fault_count - last_fault_count_[p];
    last_fault_count_[p] = *r.fault_count;
    inflight[p] = *r.inflight;

    if (fdelta > 0) {
      fault_events_.push_back({now, p, cause});
      if (tracing()) {
        trace_->record(now, name(), "fault_observed p" + std::to_string(p));
      }
      isolate(p, now);
    }
  }

  // Advance every port's recovery FSM, then mirror its coupling decisions
  // into the isolation ledger (ports it recoupled are no longer isolated;
  // ports it holds out of service are).
  recovery_.on_poll(now, inflight);
  for (PortIndex p = 0; p < driver_.num_ports(); ++p) {
    if (recovery_.state(p) != RecoveryState::kHealthy) {
      isolated_[p] = !recovery_.wants_coupled(p);
    }
  }
}

void Hypervisor::tick(Cycle now) {
  if (poll_in_flight_) {
    const bool all_back =
        std::all_of(reads_.begin(), reads_.end(),
                    [](const PollReads& r) { return r.complete(); });
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
      driver_.read_txn_count(
          p, [this, p](std::uint64_t v) { reads_[p].txn_count = v; });
      driver_.read_fault_status(
          p, [this, p](std::uint64_t v) { reads_[p].fault_status = v; });
      driver_.read_fault_count(
          p, [this, p](std::uint64_t v) { reads_[p].fault_count = v; });
      driver_.read_inflight(
          p, [this, p](std::uint64_t v) { reads_[p].inflight = v; });
    }
  }
}

}  // namespace axihc
