// Packed hot-state pools owned by the Simulator.
//
// The per-cycle hot state of a simulation — ring-channel counter words,
// per-component next_activity certificates, and component-declared scalar
// slots (reservation budgets, recharge deadlines) — lives here in packed
// arrays instead of scattered across component objects. Components and
// channels hold typed handles (a pointer into the pool, installed at
// elaboration time), so all existing logic, the digest, traces and audits
// are unchanged; only the memory layout moves. The payoff is the two hot
// linear sweeps in src/sim/backend.hpp: the commit phase walks the channel
// lane array and the fast-forward bound min-reduces the certificate array,
// both branch-light and SIMD-friendly.
//
// Layout and handle invariants:
//  * Channel lanes are indexed by the channel's registration index in its
//    Simulator; the index never changes once assigned, only the backing
//    array may move (growth on late registrations), after which the
//    Simulator re-installs every handle before the next cycle. A lane whose
//    channel does not opt in (a non-TimingChannel subclass) stays all-zero
//    forever, which makes it a no-op under the dense commit sweep.
//  * Certificate lanes are indexed by component registration index; island
//    slices address them through the island's seq[] mapping, so the
//    parallel engine's per-island refresh composes without a relayout.
//  * Scalar slots are append-only and individually heap-backed, so handles
//    into them survive later allocations. Every slot declares its owning
//    component — axihc-lint's undeclared-pool-slot check and the
//    AXIHC_PHASE_CHECK ledger treat pool writes like channel writes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace axihc {

class ChannelBase;
class Component;

/// "Not pooled" lane sentinel.
inline constexpr std::uint32_t kNoLane = 0xffffffffu;

/// The four hot ring-counter words of one TimingChannel, packed as a
/// 16-byte pool lane so the commit sweep can process lanes vector-wide.
struct ChannelHot {
  std::uint32_t head = 0;       // ring index of the oldest committed element
  std::uint32_t committed = 0;  // elements visible to the consumer
  std::uint32_t staged = 0;     // pushed this cycle, pending commit
  std::uint32_t snapshot = 0;   // occupancy at cycle start (can_push basis)
};
static_assert(sizeof(ChannelHot) == 16, "commit kernels assume 16B lanes");

class HotStatePool {
 public:
  HotStatePool() = default;
  HotStatePool(const HotStatePool&) = delete;
  HotStatePool& operator=(const HotStatePool&) = delete;

  // --- channel hot lanes (managed by the Simulator at elaboration) -------

  /// Grows/shrinks the lane array to `n`; new lanes are zeroed. May move
  /// the array: the caller must re-install every channel handle afterwards.
  void resize_channels(std::size_t n) {
    hot_.resize(n);
    lane_channel_.resize(n, nullptr);
  }
  [[nodiscard]] std::size_t channel_lanes() const { return hot_.size(); }
  [[nodiscard]] ChannelHot* hot_data() { return hot_.data(); }
  [[nodiscard]] ChannelHot& hot(std::uint32_t lane) { return hot_[lane]; }

  /// Channel behind a lane (nullptr for non-pooled lanes). The commit phase
  /// uses this for ledger stamping; rewires use it to re-enqueue pending
  /// lanes onto retargeted lists.
  void set_lane_channel(std::uint32_t lane, ChannelBase* ch) {
    lane_channel_[lane] = ch;
  }
  [[nodiscard]] ChannelBase* lane_channel(std::uint32_t lane) const {
    return lane_channel_[lane];
  }

  // --- next_activity certificate lanes -----------------------------------

  void resize_certs(std::size_t n) { certs_.resize(n, 0); }
  [[nodiscard]] std::size_t cert_lanes() const { return certs_.size(); }
  [[nodiscard]] Cycle* certs() { return certs_.data(); }

  // --- owner-declared scalar slots ---------------------------------------

  /// One scalar slot: a fixed-size block of pool-owned words plus the
  /// declaration that makes it auditable.
  struct SlotInfo {
    const Component* owner = nullptr;
    std::string what;       // e.g. "budget_left"
    std::size_t words = 0;  // block length in elements
#ifdef AXIHC_PHASE_CHECK
    // Access ledger (axihc-lint): distinct components observed writing this
    // slot while the phase checker was armed. Mirrors the channel ledger.
    mutable std::vector<const Component*> accessors;
#endif
  };

  struct Slot32 {
    std::uint32_t* data = nullptr;
    std::uint32_t slot = kNoLane;
  };
  struct Slot64 {
    std::uint64_t* data = nullptr;
    std::uint32_t slot = kNoLane;
  };

  /// Allocates `count` words owned by `owner` (may be null only in tests;
  /// axihc-lint flags ownerless slots). Handles stay valid for the pool's
  /// lifetime. Call from Component::adopt_hot_state.
  Slot32 alloc_u32(const Component* owner, std::size_t count,
                   std::string what);
  Slot64 alloc_u64(const Component* owner, std::size_t count,
                   std::string what);

  [[nodiscard]] const std::vector<SlotInfo>& slots() const { return slots_; }

  /// AXIHC_PHASE_CHECK hook: stamps a write to `slot` like a channel write
  /// (records the currently-ticking component in the slot's ledger; flags a
  /// write during the engine commit phase). No-op in default builds.
#ifdef AXIHC_PHASE_CHECK
  void note_slot_write(std::uint32_t slot) const;
  [[nodiscard]] const std::vector<const Component*>& slot_accessors(
      std::uint32_t slot) const {
    return slots_[slot].accessors;
  }
  void clear_slot_accessors() {
    for (auto& s : slots_) s.accessors.clear();
  }
#else
  void note_slot_write(std::uint32_t slot) const { (void)slot; }
  [[nodiscard]] const std::vector<const Component*>& slot_accessors(
      std::uint32_t slot) const {
    (void)slot;
    static const std::vector<const Component*> kEmpty;
    return kEmpty;
  }
  void clear_slot_accessors() {}
#endif

 private:
  std::vector<ChannelHot> hot_;
  std::vector<ChannelBase*> lane_channel_;
  std::vector<Cycle> certs_;
  std::vector<SlotInfo> slots_;
  // One heap block per slot: handles must survive later allocations, and a
  // slot's words (e.g. all per-port budgets) stay contiguous — the unit
  // that matters for sweep locality.
  std::vector<std::unique_ptr<std::uint64_t[]>> blocks_;
};

/// Typed handle to a u32 scalar slot with inline fallback storage: before
/// adoption (standalone components, unit tests) it behaves like a plain
/// vector; adopt() moves the words into the pool and repoints the handle,
/// after which every accessor reads/writes the pool lane — same code path,
/// no branch. Sizes are frozen by adoption.
class PooledWords {
 public:
  PooledWords() = default;
  explicit PooledWords(std::vector<std::uint32_t> init)
      : inline_(std::move(init)), data_(inline_.data()), size_(inline_.size()) {}

  /// Copies `v` into the active storage. Pre-adoption the handle resizes to
  /// match; post-adoption the sizes must agree (the pool block is fixed).
  void assign(const std::vector<std::uint32_t>& v) {
    if (pool_ == nullptr) {
      inline_ = v;
      data_ = inline_.data();
      size_ = inline_.size();
      return;
    }
    AXIHC_CHECK(v.size() == size_);
    pool_->note_slot_write(slot_);
    for (std::size_t i = 0; i < size_; ++i) data_[i] = v[i];
  }
  PooledWords& operator=(const std::vector<std::uint32_t>& v) {
    assign(v);
    return *this;
  }

  /// Moves the words into `pool` (idempotent against the same pool slot
  /// only through re-adoption: a fresh slot is allocated and the current
  /// values copied over).
  void adopt(HotStatePool& pool, const Component* owner, std::string what) {
    HotStatePool::Slot32 s = pool.alloc_u32(owner, size_, std::move(what));
    for (std::size_t i = 0; i < size_; ++i) s.data[i] = data_[i];
    pool_ = &pool;
    slot_ = s.slot;
    data_ = s.data;
  }

  std::uint32_t& operator[](std::size_t i) {
    if (pool_ != nullptr) pool_->note_slot_write(slot_);
    return data_[i];
  }
  [[nodiscard]] std::uint32_t operator[](std::size_t i) const {
    return data_[i];
  }
  [[nodiscard]] std::uint32_t get(std::size_t i) const { return data_[i]; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const std::uint32_t* begin() const { return data_; }
  [[nodiscard]] const std::uint32_t* end() const { return data_ + size_; }

 private:
  std::vector<std::uint32_t> inline_;
  const HotStatePool* pool_ = nullptr;  // null until adopted
  std::uint32_t slot_ = kNoLane;
  std::uint32_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Single-u64 counterpart of PooledWords (deadline caches and the like).
class PooledCycle {
 public:
  PooledCycle() = default;
  explicit PooledCycle(Cycle init) : inline_(init) {}

  void adopt(HotStatePool& pool, const Component* owner, std::string what) {
    HotStatePool::Slot64 s = pool.alloc_u64(owner, 1, std::move(what));
    *s.data = *data_;
    pool_ = &pool;
    slot_ = s.slot;
    data_ = s.data;
  }

  void set(Cycle v) {
    if (pool_ != nullptr) pool_->note_slot_write(slot_);
    *data_ = v;
  }
  [[nodiscard]] Cycle get() const { return *data_; }

 private:
  Cycle inline_ = 0;
  const HotStatePool* pool_ = nullptr;
  std::uint32_t slot_ = kNoLane;
  Cycle* data_ = &inline_;
};

}  // namespace axihc
