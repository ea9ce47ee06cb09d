#include "sim/simulator.hpp"

#include "sim/phase_check.hpp"

// Phase-race detector stamps (sim/phase_check.hpp): the kernel marks which
// phase of the cycle it is in and which component is ticking, so channel
// accesses can be checked against the two-phase discipline. Compiled away
// entirely in builds without AXIHC_PHASE_CHECK.
#ifdef AXIHC_PHASE_CHECK
#define AXIHC_STAMP_PHASE(p) ::axihc::PhaseCheck::set_phase(::axihc::EnginePhase::p)
#define AXIHC_STAMP_CURRENT(c) ::axihc::PhaseCheck::set_current(c)
#else
#define AXIHC_STAMP_PHASE(p) ((void)0)
#define AXIHC_STAMP_CURRENT(c) ((void)0)
#endif

namespace axihc {

void Simulator::add(Component& component) {
  components_.push_back(&component);
}

void Simulator::add(ChannelBase& channel) {
  channels_.push_back(&channel);
  channel.dirty_list_ = &dirty_;
  channel.epoch_ = &epoch_;
  channel.enqueue_epoch_ = 0;
  // A channel touched before registration (pushes staged during setup) must
  // still be committed at the end of the first cycle.
  if (channel.dirty_) {
    channel.enqueue_epoch_ = epoch_;
    dirty_.push_back(&channel);
  }
}

void Simulator::reset() {
  for (auto* c : components_) c->reset();
  for (auto* ch : channels_) ch->reset();
  // Commit once so occupancy snapshots start from the empty state.
  for (auto* ch : channels_) ch->commit();
  dirty_.clear();
  // Invalidate stale enqueue stamps: the list was cleared wholesale, so a
  // stamp equal to the old epoch must not suppress the next enqueue.
  ++epoch_;
  last_step_quiet_ = true;
  now_ = 0;
}

void Simulator::step() {
  AXIHC_STAMP_PHASE(kCompute);
  for (auto* c : components_) {
    AXIHC_STAMP_CURRENT(c);
    c->tick(now_);
  }
  AXIHC_STAMP_CURRENT(nullptr);
  // Quiet cycles (no push/pop/flush anywhere) are the precondition for even
  // attempting a fast-forward next cycle: busy fabrics touch channels nearly
  // every cycle, so this keeps the next_activity scan off the hot path.
  last_step_quiet_ = dirty_.empty();
  AXIHC_STAMP_PHASE(kCommit);
  // Each channel is queued at most once per cycle (the epoch guard in
  // ChannelBase::mark_dirty).
  for (auto* ch : dirty_) ch->commit();
  dirty_.clear();
  AXIHC_STAMP_PHASE(kOutside);
  ++now_;
  ++epoch_;
}

void Simulator::advance(Cycle deadline) {
  // Jump only from a provably frozen state: the last cycle moved no data
  // (so no commit is pending a snapshot change) and nothing was staged
  // outside a tick since then.
  if (fast_forward_ && last_step_quiet_ && dirty_.empty()) {
    // The jump target is the running minimum of every component's
    // certificate, capped at the deadline; the scan stops at the first
    // component with work this cycle.
    Cycle target = deadline;
    bool active = false;
    for (const Component* c : components_) {
      const Cycle na = c->next_activity(now_);
      if (na <= now_) {
        active = true;
        break;
      }
      if (na < target) target = na;
    }
    if (!active) {
      // Every skipped cycle [now_, target) would have been a full-system
      // no-op or a countdown its component catches up on at its next tick:
      // no ticks run, so the certificates stay valid by induction. The jump
      // lands at deadline - 1 at most, so every advance ends with a real
      // step and pending catch-up is applied before any caller, digest or
      // sampler reads state.
      now_ = target < deadline ? target : deadline - 1;
    }
  }
  step();
}

void Simulator::run(Cycle cycles) {
  const Cycle deadline = now_ + cycles;
  while (now_ < deadline) advance(deadline);
}

std::uint64_t Simulator::state_digest() const {
  StateDigest d;
  d.mix(static_cast<std::uint64_t>(now_));
  d.mix(static_cast<std::uint64_t>(channels_.size()));
  for (const auto* ch : channels_) ch->append_digest(d);
  std::uint64_t simulated = 0;
  for (const auto* c : components_) simulated += c->observer() ? 0 : 1;
  d.mix(simulated);
  for (const auto* c : components_) {
    if (c->observer()) continue;
    d.mix(c->name());
    c->append_digest(d);
  }
  return d.value();
}

}  // namespace axihc
