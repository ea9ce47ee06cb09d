// Packed hot-state pool owned by the Simulator.
//
// The per-cycle hot state of a simulation — ring-channel counter words and
// component-declared scalar slots (reservation budgets, recharge deadlines)
// — lives here in packed arrays instead of scattered across component
// objects. Components and channels hold typed handles (a pointer into the
// pool, installed at elaboration time), so all existing logic, the digest,
// traces and audits are unchanged; only the memory layout moves. The commit
// phase updates the queued channel lanes in place.
//
// Layout and handle invariants:
//  * Channel lanes are indexed by the channel's registration index in its
//    Simulator; the index never changes once assigned, only the backing
//    array may move (growth on late registrations), after which the
//    Simulator re-installs every handle before the next cycle. A lane whose
//    channel does not opt in (a non-TimingChannel subclass) stays unused.
//  * Scalar slots are append-only and individually heap-backed, so handles
//    into them survive later allocations. Every slot records its owning
//    component and a name.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace axihc {

class Component;

/// "Not pooled" lane sentinel.
inline constexpr std::uint32_t kNoLane = 0xffffffffu;

/// The four hot ring-counter words of one TimingChannel, packed as a
/// 16-byte pool lane.
struct ChannelHot {
  std::uint32_t head = 0;       // ring index of the oldest committed element
  std::uint32_t committed = 0;  // elements visible to the consumer
  std::uint32_t staged = 0;     // pushed this cycle, pending commit
  std::uint32_t snapshot = 0;   // occupancy at cycle start (can_push basis)
};

class HotStatePool {
 public:
  HotStatePool() = default;
  HotStatePool(const HotStatePool&) = delete;
  HotStatePool& operator=(const HotStatePool&) = delete;

  // --- channel hot lanes (managed by the Simulator at elaboration) -------

  /// Grows/shrinks the lane array to `n`; new lanes are zeroed. May move
  /// the array: the caller must re-install every channel handle afterwards.
  void resize_channels(std::size_t n) { hot_.resize(n); }
  [[nodiscard]] ChannelHot* hot_data() { return hot_.data(); }
  [[nodiscard]] ChannelHot& hot(std::uint32_t lane) { return hot_[lane]; }

  // --- owner-declared scalar slots ---------------------------------------

  /// One scalar slot: a fixed-size block of pool-owned words plus its
  /// declaration.
  struct SlotInfo {
    const Component* owner = nullptr;
    std::string what;       // e.g. "budget_left"
    std::size_t words = 0;  // block length in elements
  };

  /// Allocates `count` words owned by `owner` (may be null in tests).
  /// Handles stay valid for the pool's lifetime. Call from
  /// Component::adopt_hot_state.
  std::uint32_t* alloc_u32(const Component* owner, std::size_t count,
                           std::string what);
  std::uint64_t* alloc_u64(const Component* owner, std::size_t count,
                           std::string what);

  [[nodiscard]] const std::vector<SlotInfo>& slots() const { return slots_; }

 private:
  std::vector<ChannelHot> hot_;
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
    if (!adopted_) {
      inline_ = v;
      data_ = inline_.data();
      size_ = inline_.size();
      return;
    }
    AXIHC_CHECK(v.size() == size_);
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
    std::uint32_t* words = pool.alloc_u32(owner, size_, std::move(what));
    for (std::size_t i = 0; i < size_; ++i) words[i] = data_[i];
    data_ = words;
    adopted_ = true;
  }

  std::uint32_t& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] std::uint32_t operator[](std::size_t i) const {
    return data_[i];
  }
  [[nodiscard]] std::uint32_t get(std::size_t i) const { return data_[i]; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const std::uint32_t* begin() const { return data_; }
  [[nodiscard]] const std::uint32_t* end() const { return data_ + size_; }

 private:
  std::vector<std::uint32_t> inline_;
  std::uint32_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool adopted_ = false;
};

/// Single-u64 counterpart of PooledWords (deadline caches and the like).
class PooledCycle {
 public:
  PooledCycle() = default;
  explicit PooledCycle(Cycle init) : inline_(init) {}

  void adopt(HotStatePool& pool, const Component* owner, std::string what) {
    Cycle* word = pool.alloc_u64(owner, 1, std::move(what));
    *word = *data_;
    data_ = word;
  }

  void set(Cycle v) { *data_ = v; }
  [[nodiscard]] Cycle get() const { return *data_; }

 private:
  Cycle inline_ = 0;
  Cycle* data_ = &inline_;
};

}  // namespace axihc
