#include "sim/simulator.hpp"

#include "sim/phase_check.hpp"
#include "sim/worker_pool.hpp"

// Phase-race detector stamps (sim/phase_check.hpp): the engine marks which
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

Simulator::Simulator()
    : policy_(resolve_backend(BackendKind::kAuto)),
      kernels_(&kernels_for(policy_.chosen)) {}

Simulator::~Simulator() = default;

void Simulator::add(Component& component) {
  components_.push_back(&component);
  partition_stale_ = true;
  pool_stale_ = true;
}

void Simulator::add(ChannelBase& channel) {
  channels_.push_back(&channel);
  // New channels start on the main lists; ensure_wiring() retargets them to
  // their island's lists before the next compute phase, and finalize_pool()
  // adopts their hot words into the pool.
  channel.dirty_list_ = &dirty_;
  channel.lane_list_ = &main_lanes_;
  channel.epoch_ = &epoch_;
  channel.enqueue_epoch_ = 0;
  partition_stale_ = true;
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
  main_lanes_.clear();
  for (auto& isl : part_.islands) {
    isl.dirty.clear();
    isl.dirty_lanes.clear();
    isl.staging.clear();
  }
  // Invalidate stale enqueue stamps: the lists were cleared wholesale, so a
  // stamp equal to the old epoch must not suppress the next enqueue.
  ++epoch_;
  last_step_quiet_ = true;
  now_ = 0;
}

bool Simulator::no_pending_commits() const {
  if (!dirty_.empty() || !main_lanes_.empty()) return false;
  for (const auto& isl : part_.islands) {
    if (!isl.dirty.empty() || !isl.dirty_lanes.empty()) return false;
  }
  return true;
}

void Simulator::ensure_wiring() {
  const bool want = engine_active();
  if (want != island_wiring_ || (want && partition_stale_)) rewire(want);
  if (pool_stale_) finalize_pool();
}

void Simulator::rewire(bool want_islands) {
  // Channels already enqueued for commit must survive the retarget: collect
  // them, move the lists, re-enqueue. Their epoch stamps stay valid, so they
  // remain enqueued exactly once. Lane indices are stable across rewires
  // (lane == registration index), only the target list changes.
  std::vector<ChannelBase*> pending(dirty_.begin(), dirty_.end());
  dirty_.clear();
  std::vector<std::uint32_t> pending_lanes(main_lanes_.begin(),
                                           main_lanes_.end());
  main_lanes_.clear();
  for (auto& isl : part_.islands) {
    pending.insert(pending.end(), isl.dirty.begin(), isl.dirty.end());
    isl.dirty.clear();
    pending_lanes.insert(pending_lanes.end(), isl.dirty_lanes.begin(),
                         isl.dirty_lanes.end());
    isl.dirty_lanes.clear();
  }
  if (want_islands) {
    if (partition_stale_) {
      part_ = partition_islands(components_, channels_);
      partition_stale_ = false;
    }
    for (std::size_t ci = 0; ci < channels_.size(); ++ci) {
      const std::size_t isl = part_.channel_island[ci];
      const bool main = isl == IslandPartition::kUnassigned;
      channels_[ci]->dirty_list_ = main ? &dirty_ : &part_.islands[isl].dirty;
      channels_[ci]->lane_list_ =
          main ? &main_lanes_ : &part_.islands[isl].dirty_lanes;
    }
  } else {
    for (auto* ch : channels_) {
      ch->dirty_list_ = &dirty_;
      ch->lane_list_ = &main_lanes_;
    }
  }
  island_wiring_ = want_islands;
  for (auto* ch : pending) ch->dirty_list_->push_back(ch);
  for (std::uint32_t lane : pending_lanes) {
    pool_.lane_channel(lane)->lane_list_->push_back(lane);
  }
}

void Simulator::finalize_pool() {
  pool_.resize_channels(channels_.size());
  // Growth may have moved the lane array: (re-)install every handle. Lane
  // index == registration index, so handles already installed just repoint.
  for (std::size_t ci = 0; ci < channels_.size(); ++ci) {
    const auto lane = static_cast<std::uint32_t>(ci);
    const bool pooled = channels_[ci]->adopt_hot_lane(&pool_.hot(lane), lane);
    pool_.set_lane_channel(lane, pooled ? channels_[ci] : nullptr);
  }
  pool_.resize_certs(components_.size());
  for (std::size_t i = adopted_components_; i < components_.size(); ++i) {
    components_[i]->adopt_hot_state(pool_);
  }
  adopted_components_ = components_.size();
  pool_stale_ = false;
}

void Simulator::commit_pooled(std::vector<std::uint32_t>& lanes) {
  if (lanes.empty()) return;
#ifdef AXIHC_PHASE_CHECK
  // The kernels bypass virtual commit(): stamp each dirty lane's ledger the
  // way TimingChannel::commit would have.
  for (std::uint32_t lane : lanes) {
    if (ChannelBase* ch = pool_.lane_channel(lane)) ch->ledger_on_commit();
  }
#endif
  const std::size_t n = pool_.channel_lanes();
  // Dense sweeps are unconditional over every lane — clean lanes are no-ops
  // (staged == 0, snapshot == committed) — so the branch-free linear pass
  // wins as soon as a modest fraction of the pool is dirty.
  if (lanes.size() * 4 >= n) {
    kernels_->commit_dense(pool_.hot_data(), n);
  } else {
    kernels_->commit_sparse(pool_.hot_data(), lanes.data(), lanes.size());
  }
  lanes.clear();
}

void Simulator::step() {
  ensure_wiring();
  if (island_wiring_) {
    step_islands();
  } else {
    step_serial();
  }
}

void Simulator::step_serial() {
  AXIHC_STAMP_PHASE(kCompute);
  for (auto* c : components_) {
    AXIHC_STAMP_CURRENT(c);
    c->tick(now_);
  }
  AXIHC_STAMP_CURRENT(nullptr);
  // Quiet cycles (no push/pop/flush anywhere) are the precondition for even
  // attempting a fast-forward next cycle: busy fabrics touch channels nearly
  // every cycle, so this keeps the next_activity scan off the hot path.
  last_step_quiet_ = dirty_.empty() && main_lanes_.empty();
  AXIHC_STAMP_PHASE(kCommit);
  commit_pooled(main_lanes_);
  for (auto* ch : dirty_) ch->commit();
  dirty_.clear();
  AXIHC_STAMP_PHASE(kOutside);
  ++now_;
  ++epoch_;
}

void Simulator::tick_island(Island& island, bool stage_traces) {
  if (!stage_traces) {
    // No trace in the process is enabled: record sites are dead, so skip
    // the thread-local sink install and per-component sequence tagging.
    for (auto* c : island.components) {
      AXIHC_STAMP_CURRENT(c);
      c->tick(now_);
    }
    AXIHC_STAMP_CURRENT(nullptr);
    return;
  }
  TraceStagingBuffer::install(&island.staging);
  const std::size_t n = island.components.size();
  for (std::size_t k = 0; k < n; ++k) {
    TraceStagingBuffer::set_sequence(island.seq[k]);
    AXIHC_STAMP_CURRENT(island.components[k]);
    island.components[k]->tick(now_);
  }
  AXIHC_STAMP_CURRENT(nullptr);
  TraceStagingBuffer::install(nullptr);
}

void Simulator::step_islands() {
  auto& islands = part_.islands;
  const std::size_t ni = islands.size();

  // Compute phase: island-major, fixed island → participant assignment
  // (round-robin by island index) so the work placement — though not any
  // result — is a deterministic function of topology and thread count.
  unsigned nw = threads_;
  if (nw > ni) nw = static_cast<unsigned>(ni);
  if (WorkerPool::on_pool_thread()) nw = 1;  // nested inside a sweep job
  const bool stage_traces = EventTrace::any_enabled();
  AXIHC_STAMP_PHASE(kCompute);
  if (nw <= 1) {
    for (auto& isl : islands) tick_island(isl, stage_traces);
  } else {
    WorkerPool& pool = WorkerPool::shared();
    if (nw > pool.max_participants()) nw = pool.max_participants();
    pool.run_tasks(nw, [&](unsigned w) {
      for (std::size_t i = w; i < ni; i += nw) {
        tick_island(islands[i], stage_traces);
      }
    });
  }

  // Merge staged trace events back into their traces in registration order
  // (no-op when tracing is off or the cycle recorded nothing).
  if (stage_traces) {
    staging_scratch_.clear();
    for (auto& isl : islands) {
      if (!isl.staging.empty()) staging_scratch_.push_back(&isl.staging);
    }
    if (!staging_scratch_.empty()) {
      merge_staged_traces(staging_scratch_.data(), staging_scratch_.size());
    }
  }

  // Commit phase: serial, islands in order then the main list — a fixed
  // permutation of the channels, independent of thread count. (Channel
  // commits are mutually independent, so a dense kernel sweep triggered by
  // one island's list may commit another island's lanes early; the later
  // pass over those lanes is an idempotent no-op and the resulting state is
  // the same fixed point either way.)
  bool quiet = dirty_.empty() && main_lanes_.empty();
  for (auto& isl : islands) {
    quiet = quiet && isl.dirty.empty() && isl.dirty_lanes.empty();
  }
  last_step_quiet_ = quiet;
  AXIHC_STAMP_PHASE(kCommit);
  for (auto& isl : islands) {
    commit_pooled(isl.dirty_lanes);
    for (auto* ch : isl.dirty) ch->commit();
    isl.dirty.clear();
  }
  commit_pooled(main_lanes_);
  for (auto* ch : dirty_) ch->commit();
  dirty_.clear();
  AXIHC_STAMP_PHASE(kOutside);
  ++now_;
  ++epoch_;
}

void Simulator::advance(Cycle deadline) {
  ensure_wiring();
  // Jump only from a provably frozen state: the last cycle moved no data
  // (so no commit is pending a snapshot change) and nothing was staged
  // outside a tick since then.
  if (fast_forward_ && last_step_quiet_ && no_pending_commits()) {
    // Refresh the certificate array (early-outing on the first active
    // component), then min-reduce it with the backend kernel. Certificates
    // are indexed by registration order; the island walk refreshes its
    // slice through seq[]. next_activity() runs between cycles (no compute
    // phase in flight), so even cross-island channel reads in
    // implementations are race-free here.
    Cycle* certs = pool_.certs();
    bool active = false;
    if (island_wiring_) {
      for (const auto& isl : part_.islands) {
        const std::size_t m = isl.components.size();
        for (std::size_t k = 0; k < m; ++k) {
          const Cycle na = isl.components[k]->next_activity(now_);
          if (na <= now_) {
            active = true;
            break;
          }
          certs[isl.seq[k]] = na;
        }
        if (active) break;
      }
    } else {
      const std::size_t m = components_.size();
      for (std::size_t i = 0; i < m; ++i) {
        const Cycle na = components_[i]->next_activity(now_);
        if (na <= now_) {
          active = true;
          break;
        }
        certs[i] = na;
      }
    }
    if (!active) {
      Cycle target = deadline;
      const Cycle lower =
          kernels_->min_reduce(certs, components_.size());
      if (lower < target) target = lower;
      // Every skipped cycle [now_, target) would have been a full-system
      // no-op: no ticks run, so the certificates stay valid by induction.
      now_ = target;
      if (now_ >= deadline) return;
    }
  }
  if (island_wiring_) {
    step_islands();
  } else {
    step_serial();
  }
}

void Simulator::run(Cycle cycles) {
  const Cycle deadline = now_ + cycles;
  while (now_ < deadline) advance(deadline);
}

std::size_t Simulator::island_count() {
  if (engine_active()) {
    ensure_wiring();
    return part_.islands.size();
  }
  // Engine off: partition on demand without disturbing the serial wiring.
  return partition_islands(components_, channels_).islands.size();
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
