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
  pool_stale_ = true;
}

void Simulator::add(ChannelBase& channel) {
  channels_.push_back(&channel);
  // finalize_pool() adopts the channel's hot words into the pool before the
  // next cycle.
  channel.dirty_list_ = &dirty_;
  channel.lane_list_ = &dirty_lanes_;
  channel.epoch_ = &epoch_;
  channel.enqueue_epoch_ = 0;
  pool_stale_ = true;
  // A channel touched before registration (pushes staged during setup) must
  // still be committed at the end of the first cycle. It has no lane yet,
  // so it goes on the pointer list (the virtual-commit path).
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
  dirty_lanes_.clear();
  // Invalidate stale enqueue stamps: the lists were cleared wholesale, so a
  // stamp equal to the old epoch must not suppress the next enqueue.
  ++epoch_;
  last_step_quiet_ = true;
  now_ = 0;
}

void Simulator::finalize_pool() {
  pool_.resize_channels(channels_.size());
  // Growth may have moved the lane array: (re-)install every handle. Lane
  // index == registration index, so handles already installed just repoint.
  for (std::size_t ci = 0; ci < channels_.size(); ++ci) {
    const auto lane = static_cast<std::uint32_t>(ci);
    channels_[ci]->adopt_hot_lane(&pool_.hot(lane), lane);
  }
  for (std::size_t i = adopted_components_; i < components_.size(); ++i) {
    components_[i]->adopt_hot_state(pool_);
  }
  adopted_components_ = components_.size();
  pool_stale_ = false;
}

void Simulator::step() {
  if (pool_stale_) finalize_pool();
  step_cycle();
}

void Simulator::step_cycle() {
  AXIHC_STAMP_PHASE(kCompute);
  for (auto* c : components_) {
    AXIHC_STAMP_CURRENT(c);
    c->tick(now_);
  }
  AXIHC_STAMP_CURRENT(nullptr);
  // Quiet cycles (no push/pop/flush anywhere) are the precondition for even
  // attempting a fast-forward next cycle: busy fabrics touch channels nearly
  // every cycle, so this keeps the next_activity scan off the hot path.
  last_step_quiet_ = dirty_.empty() && dirty_lanes_.empty();
  AXIHC_STAMP_PHASE(kCommit);
  // Pooled lanes commit in place, bypassing virtual commit(); each lane is
  // queued at most once per cycle (the epoch guard in mark_dirty), and a
  // lane's index is its channel's registration index.
  ChannelHot* hot = pool_.hot_data();
  for (const std::uint32_t lane : dirty_lanes_) {
#ifdef AXIHC_PHASE_CHECK
    channels_[lane]->ledger_on_commit();
#endif
    ChannelHot& h = hot[lane];
    h.committed += h.staged;
    h.staged = 0;
    h.snapshot = h.committed;
  }
  dirty_lanes_.clear();
  for (auto* ch : dirty_) ch->commit();
  dirty_.clear();
  AXIHC_STAMP_PHASE(kOutside);
  ++now_;
  ++epoch_;
}

void Simulator::advance(Cycle deadline) {
  if (pool_stale_) finalize_pool();
  // Jump only from a provably frozen state: the last cycle moved no data
  // (so no commit is pending a snapshot change) and nothing was staged
  // outside a tick since then.
  if (fast_forward_ && last_step_quiet_ && dirty_.empty() &&
      dirty_lanes_.empty()) {
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
      // no-op: no ticks run, so the certificates stay valid by induction.
      now_ = target;
      if (now_ >= deadline) return;
    }
  }
  step_cycle();
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
  d.mix(static_cast<std::uint64_t>(components_.size()));
  for (const auto* c : components_) {
    d.mix(c->name());
    c->append_digest(d);
  }
  return d.value();
}

}  // namespace axihc
