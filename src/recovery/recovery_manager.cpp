#include "recovery/recovery_manager.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"

namespace axihc {

const char* to_string(RecoveryState s) {
  switch (s) {
    case RecoveryState::kHealthy: return "healthy";
    case RecoveryState::kQuarantined: return "quarantined";
    case RecoveryState::kDraining: return "draining";
    case RecoveryState::kResetting: return "resetting";
    case RecoveryState::kProbation: return "probation";
    case RecoveryState::kPermanentlyIsolated: return "permanently_isolated";
  }
  return "?";
}

RecoveryManager::RecoveryManager(std::string name,
                                 HyperConnectDriver& driver,
                                 RecoveryPolicy policy)
    : Component(std::move(name)),
      driver_(driver),
      policy_(policy),
      ports_(driver.num_ports()),
      baseline_budgets_(driver.num_ports(), 0),
      intended_budgets_(driver.num_ports(), 0) {
  AXIHC_CHECK_MSG(policy_.backoff_base >= 1,
                  Component::name() << ": backoff_base must be >= 1");
  AXIHC_CHECK_MSG(policy_.backoff_max >= policy_.backoff_base,
                  Component::name() << ": backoff_max < backoff_base");
  AXIHC_CHECK_MSG(policy_.max_attempts >= 1,
                  Component::name() << ": max_attempts must be >= 1");
}

void RecoveryManager::set_baseline_budgets(
    std::vector<std::uint32_t> budgets) {
  budgets.resize(driver_.num_ports(), 0);
  // Must be called at configuration time: the caller has programmed these
  // values into the hardware, so the manager's view starts in sync and only
  // deltas are ever written from here on.
  for (const PortFsm& f : ports_) {
    AXIHC_CHECK_MSG(f.state == RecoveryState::kHealthy,
                    name() << ": baseline changed during a recovery episode");
  }
  baseline_budgets_ = std::move(budgets);
  intended_budgets_ = baseline_budgets_;
}

void RecoveryManager::reset() {
  ports_.assign(driver_.num_ports(), PortFsm{});
  intended_budgets_ = baseline_budgets_;
  recoveries_ = 0;
  escalations_ = 0;
  demotions_ = 0;
  total_recovery_cycles_ = 0;
  conservation_violations_ = 0;
  transitions_.clear();
}

RecoveryState RecoveryManager::state(PortIndex port) const {
  AXIHC_CHECK(port < ports_.size());
  return ports_[port].state;
}

Cycle RecoveryManager::backoff(PortIndex port) const {
  AXIHC_CHECK(port < ports_.size());
  return ports_[port].backoff;
}

std::uint32_t RecoveryManager::attempts(PortIndex port) const {
  AXIHC_CHECK(port < ports_.size());
  return ports_[port].attempts;
}

std::uint32_t RecoveryManager::intended_budget(PortIndex port) const {
  AXIHC_CHECK(port < intended_budgets_.size());
  return intended_budgets_[port];
}

bool RecoveryManager::wants_coupled(PortIndex port) const {
  AXIHC_CHECK(port < ports_.size());
  switch (ports_[port].state) {
    case RecoveryState::kHealthy:
    case RecoveryState::kResetting:
    case RecoveryState::kProbation:
      return true;
    case RecoveryState::kQuarantined:
    case RecoveryState::kDraining:
    case RecoveryState::kPermanentlyIsolated:
      return false;
  }
  return true;
}

double RecoveryManager::mean_time_to_recovery() const {
  if (recoveries_ == 0) return 0.0;
  return static_cast<double>(total_recovery_cycles_) /
         static_cast<double>(recoveries_);
}

bool RecoveryManager::all_converged() const {
  for (const PortFsm& f : ports_) {
    if (f.state != RecoveryState::kHealthy &&
        f.state != RecoveryState::kPermanentlyIsolated) {
      return false;
    }
  }
  return true;
}

void RecoveryManager::transition(PortIndex port, RecoveryState to,
                                 Cycle now) {
  PortFsm& f = ports_[port];
  transitions_.push_back({now, port, f.state, to});
  if (tracing()) {
    trace_->record(now, name(),
                   "p" + std::to_string(port) + " " +
                       std::string(to_string(f.state)) + "->" +
                       to_string(to));
  }
  f.state = to;
}

void RecoveryManager::quarantine(PortIndex port, Cycle now) {
  PortFsm& f = ports_[port];
  f.attempts = 0;
  f.backoff = policy_.backoff_base;
  f.quarantined_at = now;
  f.wait_until = now + f.backoff;
  transition(port, RecoveryState::kQuarantined, now);
  redistribute_budgets(now);
}

void RecoveryManager::demote(PortIndex port, Cycle now) {
  PortFsm& f = ports_[port];
  ++demotions_;
  if (f.attempts >= policy_.max_attempts) {
    // Attempt budget exhausted: this accelerator keeps faulting straight
    // through recovery — retire it for good. Its bandwidth stays with the
    // survivors.
    ++escalations_;
    transition(port, RecoveryState::kPermanentlyIsolated, now);
  } else {
    f.backoff = std::min(f.backoff * 2, policy_.backoff_max);
    f.wait_until = now + f.backoff;
    transition(port, RecoveryState::kQuarantined, now);
  }
  redistribute_budgets(now);
}

void RecoveryManager::on_fault(PortIndex port, Cycle now) {
  AXIHC_CHECK(port < ports_.size());
  switch (ports_[port].state) {
    case RecoveryState::kHealthy:
      quarantine(port, now);
      break;
    case RecoveryState::kDraining:
    case RecoveryState::kResetting:
    case RecoveryState::kProbation:
      demote(port, now);
      break;
    case RecoveryState::kQuarantined:
    case RecoveryState::kPermanentlyIsolated:
      // Already out of service; nothing new to do.
      break;
  }
}

void RecoveryManager::on_poll(Cycle now,
                              const std::vector<std::uint64_t>& inflight) {
  for (PortIndex p = 0; p < ports_.size(); ++p) {
    PortFsm& f = ports_[p];
    if (f.state == RecoveryState::kQuarantined && now >= f.wait_until) {
      ++f.attempts;
      f.drain_deadline = now + policy_.drain_timeout;
      transition(p, RecoveryState::kDraining, now);
      // Fall through: the port may already be drained this very poll.
    }
    if (f.state == RecoveryState::kDraining) {
      const bool drained = p < inflight.size() && inflight[p] == 0;
      if (drained || now >= f.drain_deadline) {
        // Resetting: acknowledge the latched fault — the FAULT_STATUS
        // write re-arms the protection unit (stall counters cleared, record
        // ages restamped) — restore the baseline budget split, and
        // recouple. The HA reset is deferred one poll (below): resetting
        // it now would let it re-issue requests while the recouple write
        // is still queued on the control bus, and a decoupled port grounds
        // them silently — wedging the accelerator it was meant to revive.
        driver_.clear_fault(p);
        driver_.set_coupled(p, true);
        transition(p, RecoveryState::kResetting, now);
        redistribute_budgets(now);
      }
    } else if (f.state == RecoveryState::kResetting) {
      // Reaching the next poll means the driver completed the re-couple
      // writes (the hypervisor evaluates polls only when the driver is
      // idle): the port is live again — NOW reset the accelerator behind
      // it (abandon pre-fault in-flight state, restart the job engine) and
      // start the probation clock.
      if (ha_reset_) ha_reset_(p);
      f.probation_until = now + policy_.probation_window;
      transition(p, RecoveryState::kProbation, now);
    } else if (f.state == RecoveryState::kProbation &&
               now >= f.probation_until) {
      ++recoveries_;
      total_recovery_cycles_ += now - f.quarantined_at;
      f.attempts = 0;
      f.backoff = 0;
      transition(p, RecoveryState::kHealthy, now);
    }
  }
}

void RecoveryManager::redistribute_budgets(Cycle now) {
  // Donors: ports currently out of service whose budget is reclaimed.
  // Resetting/Probation ports are recoupled and need their budget back to
  // prove themselves.
  std::vector<PortIndex> donors;
  std::vector<PortIndex> recipients;
  for (PortIndex p = 0; p < ports_.size(); ++p) {
    switch (ports_[p].state) {
      case RecoveryState::kQuarantined:
      case RecoveryState::kDraining:
      case RecoveryState::kPermanentlyIsolated:
        donors.push_back(p);
        break;
      default:
        recipients.push_back(p);
        break;
    }
  }

  std::vector<std::uint32_t> next = baseline_budgets_;
  if (!donors.empty() && !recipients.empty()) {
    std::uint64_t pool = 0;
    for (const PortIndex d : donors) {
      pool += baseline_budgets_[d];
      next[d] = 0;
    }
    if (pool > 0) {
      std::uint64_t base_total = 0;
      for (const PortIndex r : recipients) base_total += baseline_budgets_[r];
      std::vector<std::uint64_t> extra(recipients.size(), 0);
      if (base_total > 0) {
        // Largest-remainder apportionment proportional to the baseline
        // split: integer-exact (sum of extras == pool) and deterministic
        // (ties broken by port index).
        std::uint64_t assigned = 0;
        std::vector<std::pair<std::uint64_t, std::size_t>> remainders;
        for (std::size_t i = 0; i < recipients.size(); ++i) {
          const std::uint64_t b = baseline_budgets_[recipients[i]];
          extra[i] = pool * b / base_total;
          assigned += extra[i];
          remainders.emplace_back(pool * b % base_total, i);
        }
        std::sort(remainders.begin(), remainders.end(),
                  [](const auto& a, const auto& b) {
                    if (a.first != b.first) return a.first > b.first;
                    return a.second < b.second;
                  });
        for (std::uint64_t left = pool - assigned, i = 0; left > 0;
             --left, ++i) {
          ++extra[remainders[i % remainders.size()].second];
        }
      } else {
        // No baseline to be proportional to: split evenly, low ports first.
        for (std::size_t i = 0; i < recipients.size(); ++i) {
          extra[i] = pool / recipients.size() +
                     (i < pool % recipients.size() ? 1 : 0);
        }
      }
      for (std::size_t i = 0; i < recipients.size(); ++i) {
        next[recipients[i]] =
            static_cast<std::uint32_t>(baseline_budgets_[recipients[i]] +
                                       extra[i]);
      }
    }
  }
  // When every port is a donor there is nobody to redistribute to; `next`
  // stays at the baseline (the ports are decoupled anyway).

  // Budget-conservation invariant: the window's reserved capacity never
  // changes, whoever holds it.
  std::uint64_t baseline_sum = 0;
  std::uint64_t next_sum = 0;
  for (PortIndex p = 0; p < ports_.size(); ++p) {
    baseline_sum += baseline_budgets_[p];
    next_sum += next[p];
  }
  if (next_sum != baseline_sum) {
    ++conservation_violations_;
    AXIHC_LOG_WARN() << name() << " @" << now
                     << ": budget conservation violated (" << next_sum
                     << " != " << baseline_sum << ")";
  }

  for (PortIndex p = 0; p < ports_.size(); ++p) {
    if (next[p] == intended_budgets_[p]) continue;
    driver_.set_budget(p, next[p]);
    if (tracing()) {
      trace_->record(now, name(),
                     "budget p" + std::to_string(p) + "=" +
                         std::to_string(next[p]));
    }
  }
  intended_budgets_ = std::move(next);
}

void RecoveryManager::append_digest(StateDigest& d) const {
  for (const PortFsm& f : ports_) {
    d.mix(static_cast<std::uint64_t>(f.state));
    d.mix(f.backoff);
    d.mix(f.attempts);
    d.mix(f.wait_until);
    d.mix(f.drain_deadline);
    d.mix(f.probation_until);
    d.mix(f.quarantined_at);
  }
  for (const std::uint32_t b : intended_budgets_) d.mix(b);
  d.mix(recoveries_);
  d.mix(escalations_);
  d.mix(demotions_);
  d.mix(total_recovery_cycles_);
  d.mix(conservation_violations_);
  d.mix(static_cast<std::uint64_t>(transitions_.size()));
}

void RecoveryManager::register_metrics(MetricsRegistry& reg) {
  reg.add_counter(name() + ".recoveries", &recoveries_);
  reg.add_counter(name() + ".escalations", &escalations_);
  reg.add_counter(name() + ".demotions", &demotions_);
  // Survivability summary fields (the same numbers the fault-campaign rows
  // report), so --metrics-out series carry them too.
  reg.add_gauge(name() + ".mttr_cycles",
                [this] { return mean_time_to_recovery(); });
  reg.add_gauge(name() + ".converged",
                [this] { return all_converged() ? 1.0 : 0.0; });
  for (PortIndex p = 0; p < ports_.size(); ++p) {
    const std::string s = name() + ".port" + std::to_string(p);
    reg.add_gauge(s + ".state", [this, p] {
      return static_cast<double>(ports_[p].state);
    });
    reg.add_gauge(s + ".backoff", [this, p] {
      return static_cast<double>(ports_[p].backoff);
    });
    reg.add_gauge(s + ".budget", [this, p] {
      return static_cast<double>(intended_budgets_[p]);
    });
  }
}

}  // namespace axihc
