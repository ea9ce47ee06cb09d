// Sparse word-addressed memory contents. Functional only — all timing lives
// in MemoryController. Sparse so 4 MB-scale DMA workloads don't allocate
// 4 MB per test.
//
// Storage is paged: 4 KiB pages in a hash map, fronted by a one-entry
// last-page cache. DMA traffic is overwhelmingly sequential, so almost every
// access hits the cache and costs an index compare plus an array load — the
// per-word hash probe (and its rehashing) of a flat word map was a measurable
// slice of the whole-system profile.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/types.hpp"

namespace axihc {

class BackingStore {
 public:
  /// Reads the 64-bit word containing `addr` (which is rounded down to an
  /// 8-byte boundary). Unwritten memory reads as zero.
  [[nodiscard]] std::uint64_t read_word(Addr addr) const;

  /// Writes the 64-bit word containing `addr`, honouring the byte-enable
  /// strobe `strb` (bit i enables byte i of the word).
  void write_word(Addr addr, std::uint64_t data, std::uint8_t strb = 0xff);

  void clear();

 private:
  static constexpr Addr kPageWords = 512;  // 4 KiB of data per page

  struct Page {
    std::uint64_t data[kPageWords] = {};
  };

  static Addr word_index(Addr addr) { return addr >> 3; }

  /// Cache-through page lookup (hits and misses both fill the last-page
  /// slot); nullptr when the page was never written.
  Page* find_page(Addr page_idx) const;
  /// find_page, allocating a zeroed page on miss.
  Page& touch_page(Addr page_idx);

  std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
  // Last-page cache (mutable: read_word is logically const); a null page
  // caches a miss. The sentinel index is unreachable — real page indices
  // fit in addr >> 3 / kPageWords.
  mutable Addr cached_idx_ = ~Addr{0};
  mutable Page* cached_page_ = nullptr;
};

}  // namespace axihc
