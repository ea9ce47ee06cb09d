// Cycle-stepped simulator: ticks every component in registration order, then
// commits every channel touched during the cycle. A fast-forward pass skips
// provably quiescent stretches — see docs/ARCHITECTURE.md ("The kernel fast
// path") for the safety argument.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/channel.hpp"
#include "sim/component.hpp"

namespace axihc {

class Simulator {
 public:
  Simulator() = default;

  // Registration is non-owning in both directions and either side may be
  // destroyed first, so the destructor must not touch registered channels
  // or components (they are not told; the pre-existing contract is that a
  // channel is not used after its Simulator is gone, and vice versa).
  ~Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Registers a component (non-owning; caller keeps it alive).
  void add(Component& component);

  /// Registers a channel for end-of-cycle commit (non-owning).
  void add(ChannelBase& channel);

  /// Resets all components and channels and rewinds time to zero.
  void reset();

  /// Advances the simulation by exactly one clock cycle (never skips):
  /// compute phase (every tick) then commit phase (every queued channel).
  void step();

  /// Advances by `cycles` clock cycles (may fast-forward internally).
  void run(Cycle cycles);

  /// Steps until `done()` returns true or `max_cycles` elapse.
  /// Returns true if the predicate fired (i.e. the run did not time out).
  ///
  /// Fast-forward note: predicates read simulation state, and state is by
  /// construction frozen across a skipped stretch (apart from countdowns
  /// and accumulators caught up lazily, which no predicate should key on),
  /// so `done()` cannot change inside one — checking it once per advance
  /// is exact.
  template <typename Pred>
  bool run_until(Pred done, Cycle max_cycles) {
    const Cycle deadline = now_ + max_cycles;
    while (now_ < deadline) {
      if (done()) return true;
      advance(deadline);
    }
    return done();
  }

  /// Enables/disables the quiescence fast-forward (on by default). The
  /// forced naive mode exists for determinism regression tests and for
  /// `--no-fast-forward` debugging; results are bit-identical either way.
  void set_fast_forward(bool on) { fast_forward_ = on; }
  [[nodiscard]] bool fast_forward() const { return fast_forward_; }

  /// FNV-1a digest of the committed simulation state: channel contents and
  /// traffic counters plus each component's architecturally visible state
  /// (observers excluded: Component::observer).
  /// Equal digests across fast-forward settings and repeated runs are the
  /// bit-identity criterion used by tests and `axihc --digest`.
  [[nodiscard]] std::uint64_t state_digest() const;

  [[nodiscard]] Cycle now() const { return now_; }

 private:
  /// One step toward `deadline`: first jumps `now_` across a quiescent
  /// stretch when every component certifies one (landing no later than
  /// `deadline - 1`), then always steps one cycle.
  void advance(Cycle deadline);

  std::vector<Component*> components_;
  std::vector<ChannelBase*> channels_;  // all channels, in registration order
  std::vector<ChannelBase*> dirty_;     // channels awaiting commit this cycle
  Cycle now_ = 0;
  // Cycle epoch for the duplicate-enqueue guard (ChannelBase::mark_dirty).
  // Starts at 1 so a fresh channel's stamp of 0 never matches; bumped every
  // step and on reset.
  std::uint64_t epoch_ = 1;
  bool fast_forward_ = true;
  bool last_step_quiet_ = true;  // no channel was touched last cycle
};

}  // namespace axihc
