// Base class for everything with clocked behaviour (interconnects, memory
// controllers, accelerators, monitors).
#pragma once

#include <string>
#include <utility>

#include "common/types.hpp"
#include "sim/digest.hpp"

namespace axihc {

class Component {
 public:
  explicit Component(std::string name) : name_(std::move(name)) {}
  virtual ~Component() = default;
  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  /// One clock cycle of behaviour. Reads committed channel state, stages
  /// pushes, updates internal registers. Must not assume anything about the
  /// tick order of other components.
  virtual void tick(Cycle now) = 0;

  /// Hardware reset. Default: stateless.
  virtual void reset() {}

  /// Fast-forward hook: the earliest cycle >= `now` at which tick() might do
  /// observable work, under the assumption that NO component (including this
  /// one) ticks in the interim — i.e. the whole system stays frozen. Return
  /// `now` when active or unsure (always safe), a future cycle when the next
  /// interesting moment is self-scheduled (a deadline, a period boundary),
  /// or kNoCycle when only external stimulus could wake this component.
  ///
  /// Lazy catch-up: a component may also certify a later cycle when every
  /// tick it would skip only counts down or accumulates by a fixed amount:
  /// a DRAM first-word latency or turnaround, the DRAM busy counter of a
  /// stream blocked on R/W/B, a protection unit's stall counter on a path
  /// its port blocks (certified up to the timeout), an injector's stalled-
  /// cycle counter inside a stall window (up to the window's edge) and its
  /// delay_w hold. Its next tick must then first apply the skipped count.
  /// The kernel ends every run()/run_until() advance with a real step, so
  /// callers, state_digest() and samplers registered after the component
  /// see caught-up state.
  ///
  /// The kernel skips cycle N only when EVERY component reports
  /// next_activity(N) > N, so implementations may rely on all other
  /// components' state being unchanged across the skipped stretch. Must not
  /// mutate any state (it runs on cycles that are then skipped).
  [[nodiscard]] virtual Cycle next_activity(Cycle now) const { return now; }

  /// Folds this component's architecturally visible state (counters,
  /// latched registers, completion logs) into `d` for
  /// Simulator::state_digest(). Default: stateless.
  virtual void append_digest(StateDigest& d) const { (void)d; }

  /// True for a component that only reads the simulated system (metrics
  /// sampler, protocol monitor): it ticks like any other, but is no part of
  /// the system, so Simulator::state_digest() leaves it out and attaching
  /// one never changes the digest.
  [[nodiscard]] virtual bool observer() const { return false; }

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::string name_;
};

}  // namespace axihc
