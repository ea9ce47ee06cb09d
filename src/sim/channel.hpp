// Point-to-point timing channel — the wire+register abstraction of the
// simulation kernel.
//
// Semantics (two-phase, deterministic):
//  * During a cycle, `push` stages an element; staged elements become visible
//    to the consumer only after `commit()` runs at the end of the cycle.
//    Hence every hop through a channel costs exactly one clock cycle, which
//    matches the paper's per-stage latency accounting ("one clock cycle is
//    spent on the slave interface of the eFIFO, one on the TS, ...").
//  * `can_push` is evaluated against the occupancy snapshotted at the start
//    of the cycle, so the answer does not depend on whether the consumer
//    already popped this cycle. Together with staged pushes this makes the
//    simulation independent of component tick order: runs are
//    bit-deterministic by construction and there are no combinational loops.
//  * `pop` consumes elements committed in earlier cycles.
//
// Storage is a single fixed-capacity ring allocated once at construction:
// committed and staged elements share the ring (committed at the head,
// staged behind them), so push/pop/commit never touch the heap. One ring of
// `capacity` slots always suffices because committed + staged <= capacity is
// an invariant: can_push requires snapshot + staged < capacity, committed
// can only shrink within a cycle, and commit sets the new committed count to
// committed + staged <= snapshot + (capacity - snapshot) = capacity.
//
// The ring bookkeeping is four u32 counters held in the channel itself
// (head, committed, staged, snapshot). Channels self-report to their
// Simulator's dirty list: any push, pop or flush marks the channel dirty,
// and only dirty channels are committed at the end of a cycle (quiet
// channels need neither data movement nor a new snapshot). Standalone
// channels (no Simulator) just keep the flag locally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/digest.hpp"

namespace axihc {

/// Type-erased base so the Simulator can commit/reset heterogeneous channels.
class ChannelBase {
 public:
  explicit ChannelBase(std::string name) : name_(std::move(name)) {}
  virtual ~ChannelBase() = default;
  ChannelBase(const ChannelBase&) = delete;
  ChannelBase& operator=(const ChannelBase&) = delete;

  /// End-of-cycle: make staged pushes visible and re-snapshot occupancy.
  virtual void commit() = 0;

  /// Hardware reset: drop all contents.
  virtual void reset() = 0;

  /// Folds the committed + staged contents and traffic counters into `d`
  /// (Simulator::state_digest). Default: no content to report.
  virtual void append_digest(StateDigest& d) const { (void)d; }

  [[nodiscard]] const std::string& name() const { return name_; }

 protected:
  /// Enqueues this channel on its Simulator's commit list (once per cycle).
  /// Called on any state change that a commit must observe: push (staged
  /// data), pop and flush (the next snapshot changes).
  ///
  /// Registered channels dedup purely on the epoch stamp: a mid-cycle
  /// manual commit() must not cause a second enqueue (the commit phase
  /// would commit and re-snapshot twice), and the stamp — unlike the dirty_
  /// flag — survives clear_dirty(), so the channel stays enqueued exactly
  /// once per epoch. Standalone channels just set the local flag (which
  /// Simulator::add also checks, so pre-registration pushes commit at the
  /// end of the first cycle).
  void mark_dirty() {
    if (epoch_ != nullptr) {
      if (enqueue_epoch_ == *epoch_) return;  // already enqueued this cycle
      enqueue_epoch_ = *epoch_;
      dirty_list_->push_back(this);
    }
    dirty_ = true;
  }

  /// commit() implementations call this so a later change re-enqueues.
  void clear_dirty() { dirty_ = false; }

  // Phase-checker hooks (see sim/phase_check.hpp). Instrumented builds
  // outline them into phase_check.cpp; default builds compile them away, so
  // the hot channel methods carry zero overhead. Const so the read-side
  // hooks can be called from const accessors (the ledger state is mutable).
#ifdef AXIHC_PHASE_CHECK
  void ledger_on_read() const;   // pop/front: consumes committed state
  void ledger_on_write() const;  // push
  void ledger_on_commit() const;
#else
  void ledger_on_read() const {}
  void ledger_on_write() const {}
  void ledger_on_commit() const {}
#endif

 private:
  friend class Simulator;

  std::string name_;
#ifdef AXIHC_PHASE_CHECK
  // Phase-checker state (sim/phase_check.hpp). Compiled out of the default
  // build along with the hooks, so uninstrumented channels carry neither
  // per-access nor footprint overhead. Mutable: read-side hooks record from
  // const accessors.
  mutable std::uint64_t ledger_commit_epoch_ = 0;
#endif
  // The Simulator's commit list this channel enqueues itself on; null when
  // standalone.
  std::vector<ChannelBase*>* dirty_list_ = nullptr;
  const std::uint64_t* epoch_ = nullptr;  // Simulator's cycle epoch counter
  std::uint64_t enqueue_epoch_ = 0;       // epoch of the last enqueue
  bool dirty_ = false;
};

template <typename T>
class TimingChannel;

/// Sees every element a TimingChannel commits, in push order, at the end of
/// the cycle it was pushed in (TimingChannel::set_observer; null by
/// default). An element flushed before its commit is never seen.
/// Implementations must not touch the simulated system: the protocol
/// monitor (axi/monitor.hpp) watches a link this way.
template <typename T>
class ChannelObserver {
 public:
  virtual void on_commit(const TimingChannel<T>& channel, const T& value) = 0;

 protected:
  ~ChannelObserver() = default;
};

template <typename T>
class TimingChannel final : public ChannelBase {
 public:
  /// A channel with `capacity` storage slots (the register/FIFO depth of the
  /// link). Capacity 1 models a plain pipeline register.
  TimingChannel(std::string name, std::size_t capacity)
      : ChannelBase(std::move(name)),
        capacity_(static_cast<std::uint32_t>(capacity)),
        slots_(capacity) {
    AXIHC_CHECK(capacity_ > 0);
    // The ring counters are u32; cap well below the u32 range so occupancy
    // sums (head + committed + staged) can never wrap.
    AXIHC_CHECK(capacity <= (std::size_t{1} << 30));
  }

  /// True if the producer may push this cycle (backpressure check).
  [[nodiscard]] bool can_push() const {
    return snapshot_ + staged_ < capacity_;
  }

  /// Stages `value` for delivery next cycle. Requires can_push().
  void push(T value) {
    ledger_on_write();
    AXIHC_CHECK_MSG(can_push(), "push on full channel '" << name() << "'");
    slots_[wrap(head_ + committed_ + staged_)] = std::move(value);
    ++staged_;
    ++total_pushes_;
    mark_dirty();
  }

  /// True if the consumer can pop a (previously committed) element.
  [[nodiscard]] bool can_pop() const { return committed_ != 0; }

  [[nodiscard]] bool empty() const { return committed_ == 0; }

  /// Oldest committed element. Requires can_pop().
  [[nodiscard]] const T& front() const {
    ledger_on_read();
    AXIHC_CHECK_MSG(can_pop(), "front on empty channel '" << name() << "'");
    return slots_[head_];
  }

  /// Removes and returns the oldest committed element. Requires can_pop().
  T pop() {
    ledger_on_read();
    AXIHC_CHECK_MSG(can_pop(), "pop on empty channel '" << name() << "'");
    T value = std::move(slots_[head_]);
    head_ = wrap(head_ + 1);
    --committed_;
    ++total_pops_;
    mark_dirty();  // the next cycle's occupancy snapshot must drop
    return value;
  }

  /// Committed elements currently queued (in-flight occupancy).
  [[nodiscard]] std::size_t size() const { return committed_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Lifetime traffic counters (used by throughput probes).
  [[nodiscard]] std::uint64_t total_pushes() const { return total_pushes_; }
  [[nodiscard]] std::uint64_t total_pops() const { return total_pops_; }

  /// Attaches `observer` (one per channel), or detaches it with nullptr.
  void set_observer(ChannelObserver<T>* observer) {
    AXIHC_CHECK_MSG(observer == nullptr || observer_ == nullptr,
                    "channel '" << name() << "' already has an observer");
    observer_ = observer;
  }

  void commit() override {
    ledger_on_commit();
    if (observer_ != nullptr) [[unlikely]] {
      notify_observer();
    }
    committed_ += staged_;
    staged_ = 0;
    snapshot_ = committed_;
    clear_dirty();
  }

  void reset() override {
    clear_contents();
    total_pushes_ = 0;
    total_pops_ = 0;
  }

  void append_digest(StateDigest& d) const override {
    d.mix(name());
    d.mix(static_cast<std::uint64_t>(committed_));
    d.mix(static_cast<std::uint64_t>(staged_));
    d.mix(total_pushes_);
    d.mix(total_pops_);
    for (std::uint32_t i = 0; i < committed_ + staged_; ++i) {
      digest_detail::fold(d, slots_[wrap(head_ + i)]);
    }
  }

  /// Drops all queued and staged elements but keeps the traffic counters
  /// (used for port flushes, e.g. eFIFO decoupling, not full resets).
  /// A no-op on an already-empty channel, so continuous flushing (a
  /// decoupled port) does not keep marking the channel dirty.
  void clear_contents() {
    if (committed_ == 0 && staged_ == 0 && snapshot_ == 0) return;
    head_ = 0;
    committed_ = 0;
    staged_ = 0;
    snapshot_ = 0;
    mark_dirty();
  }

 private:
  // Out of line, so an unobserved commit carries one predicted branch and
  // none of the loop.
  [[gnu::noinline]] void notify_observer() {
    for (std::uint32_t i = 0; i < staged_; ++i) {
      observer_->on_commit(*this, slots_[wrap(head_ + committed_ + i)]);
    }
  }

  [[nodiscard]] std::uint32_t wrap(std::uint32_t i) const {
    // Capacities are arbitrary (not power-of-two); a compare beats div.
    return i >= capacity_ ? i - capacity_ : i;
  }

  std::uint32_t capacity_;
  std::vector<T> slots_;  // fixed ring: [head, +committed) visible,
                          // then [.., +staged) pending commit
  std::uint32_t head_ = 0;       // ring index of the oldest committed element
  std::uint32_t committed_ = 0;  // elements visible to the consumer
  std::uint32_t staged_ = 0;     // pushed this cycle, pending commit
  std::uint32_t snapshot_ = 0;   // occupancy at cycle start (can_push basis)
  std::uint64_t total_pushes_ = 0;
  std::uint64_t total_pops_ = 0;
  ChannelObserver<T>* observer_ = nullptr;
};

}  // namespace axihc
