// Cycle-stepped simulator: ticks every component, then commits every dirty
// channel. A fast-forward pass skips provably quiescent stretches — see
// docs/ARCHITECTURE.md ("The kernel fast path") for the safety argument.
//
// Two execution engines share the two-phase semantics:
//  * The serial kernel (default, threads <= 1): one flat component walk per
//    cycle, exactly the pre-island code path. A one-worker engine round
//    would be the same walk plus island bookkeeping, so threads == 1 runs
//    the serial kernel outright — zero overhead by construction.
//  * The island engine (set_threads >= 2): the component graph is
//    partitioned into islands (src/sim/island.hpp) at elaboration time; each
//    cycle's compute phase is dispatched across the shared worker pool with
//    a fixed island → worker assignment, then the commit phase runs serially
//    on the dispatching thread. Every observable is bit-identical to the
//    serial kernel at any thread count (see ARCHITECTURE.md, "Island-
//    partitioned parallel tick engine").
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/backend.hpp"
#include "sim/channel.hpp"
#include "sim/component.hpp"
#include "sim/island.hpp"
#include "sim/soa_pool.hpp"

namespace axihc {

class Simulator {
 public:
  Simulator();

  // Registration is non-owning in both directions and either side may be
  // destroyed first, so the destructor must not touch registered channels
  // or components (they are not told; the pre-existing contract is that a
  // channel is not used after its Simulator is gone, and vice versa).
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Registers a component (non-owning; caller keeps it alive).
  void add(Component& component);

  /// Registers a channel for end-of-cycle commit (non-owning).
  void add(ChannelBase& channel);

  /// Resets all components and channels and rewinds time to zero.
  void reset();

  /// Advances the simulation by exactly one clock cycle (never skips).
  void step();

  /// Advances by `cycles` clock cycles (may fast-forward internally).
  void run(Cycle cycles);

  /// Steps until `done()` returns true or `max_cycles` elapse.
  /// Returns true if the predicate fired (i.e. the run did not time out).
  ///
  /// Fast-forward note: predicates read simulation state, and state is by
  /// construction frozen across a skipped stretch, so `done()` cannot change
  /// inside one — checking it once per advance is exact.
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

  /// Selects the execution engine. n >= 2 = island engine with up to n
  /// threads per cycle (clipped to the island count and the shared pool
  /// size). 0 (default) and 1 run the serial kernel: a single-worker engine
  /// round is the identical component walk plus island bookkeeping, so one
  /// thread gets the serial kernel outright. Can be changed between steps;
  /// results are bit-identical for every setting.
  void set_threads(unsigned threads) { threads_ = threads; }
  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Master switch for the island engine (`--no-parallel-tick`): when off,
  /// the serial kernel runs regardless of set_threads().
  void set_parallel_tick(bool on) { parallel_tick_ = on; }
  [[nodiscard]] bool parallel_tick() const { return parallel_tick_; }

  /// Selects the sweep-kernel backend (`--backend`). The request is
  /// resolved against the host CPU and the AXIHC_FORCE_BACKEND override
  /// (sim/backend.hpp); every Simulator starts on resolve(kAuto). Results
  /// are bit-identical for every backend — only wall time changes.
  void set_backend(BackendKind requested) {
    policy_ = resolve_backend(requested);
    kernels_ = &kernels_for(policy_.chosen);
  }
  /// How the active backend was chosen (policy report line).
  [[nodiscard]] const BackendPolicy& backend_policy() const {
    return policy_;
  }

  /// The hot-state pool (axihc-lint and the phase checker cross-check its
  /// slot declarations; tests inspect lane adoption).
  [[nodiscard]] HotStatePool& hot_pool() { return pool_; }
  [[nodiscard]] const HotStatePool& hot_pool() const { return pool_; }

  /// Number of islands the registered topology partitions into (1 when a
  /// serial-scope component collapses the partition). Test/debug hook: lets
  /// bit-identity tests assert that a scenario really is partitioned rather
  /// than silently collapsed.
  [[nodiscard]] std::size_t island_count();

  /// FNV-1a digest of the committed simulation state: channel contents and
  /// traffic counters plus each component's architecturally visible state.
  /// Equal digests across engines/thread counts are the bit-identity
  /// criterion used by tests and `axihc --digest`.
  [[nodiscard]] std::uint64_t state_digest() const;

  [[nodiscard]] Cycle now() const { return now_; }

  /// Registered graph, in registration order (read-only). The design-rule
  /// checker (src/lint) walks these to cross-check endpoint declarations,
  /// island scopes and connectivity after elaboration.
  [[nodiscard]] const std::vector<Component*>& components() const {
    return components_;
  }
  [[nodiscard]] const std::vector<ChannelBase*>& channels() const {
    return channels_;
  }

 private:
  /// One step toward `deadline`: first jumps `now_` across a quiescent
  /// stretch when every component certifies one, then steps one cycle
  /// (unless the jump already reached the deadline).
  void advance(Cycle deadline);

  [[nodiscard]] bool engine_active() const {
    return parallel_tick_ && threads_ >= 2;
  }
  /// True when no channel anywhere is awaiting commit (fast-forward gate).
  [[nodiscard]] bool no_pending_commits() const;

  /// Repartitions and/or retargets channel dirty lists when the topology or
  /// the engine selection changed. Cheap flag check when nothing did.
  void ensure_wiring();
  void rewire(bool want_islands);

  /// (Re-)installs pool handles: sizes the lane/cert arrays to the
  /// registered graph, adopts every channel's hot words (lane == channel
  /// registration index) and runs adopt_hot_state for components not yet
  /// asked. Re-run after any registration, since lane-array growth moves
  /// the handles.
  void finalize_pool();

  /// Commits the pooled lanes queued on `lanes` through the backend
  /// kernels: a dense whole-pool sweep when the dirty density is high
  /// (clean lanes are no-ops by the staged==0 / snapshot==committed
  /// invariant), a sparse indexed sweep otherwise. Clears `lanes`.
  void commit_pooled(std::vector<std::uint32_t>& lanes);

  void step_serial();
  void step_islands();
  void tick_island(Island& island, bool stage_traces);

  std::vector<Component*> components_;
  std::vector<ChannelBase*> channels_;   // all channels, for reset()
  std::vector<ChannelBase*> dirty_;      // main commit list (serial kernel,
                                         // plus endpoint-less channels)
  std::vector<std::uint32_t> main_lanes_;  // pooled counterpart of dirty_
  HotStatePool pool_;
  BackendPolicy policy_;
  const BackendKernels* kernels_ = nullptr;  // policy_.chosen's table
  IslandPartition part_;                 // valid when !partition_stale_
  std::vector<TraceStagingBuffer*> staging_scratch_;
  Cycle now_ = 0;
  // Cycle epoch for the duplicate-enqueue guard (ChannelBase::mark_dirty).
  // Starts at 1 so a fresh channel's stamp of 0 never matches; bumped every
  // step and on reset.
  std::uint64_t epoch_ = 1;
  unsigned threads_ = 0;
  bool parallel_tick_ = true;
  bool fast_forward_ = true;
  bool last_step_quiet_ = true;  // no channel was touched last cycle
  bool partition_stale_ = true;  // registrations since the last partition
  bool island_wiring_ = false;   // channels currently target island lists
  bool pool_stale_ = true;       // registrations since the last finalize
  std::size_t adopted_components_ = 0;  // adopt_hot_state high-water mark
};

}  // namespace axihc
