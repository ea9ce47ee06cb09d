#include "mem/backing_store.hpp"

namespace axihc {

BackingStore::Page* BackingStore::find_page(Addr page_idx) const {
  if (page_idx == cached_idx_) return cached_page_;
  auto it = pages_.find(page_idx);
  // A miss is cached too (as nullptr): reads of never-written buffers are
  // as sequential as any other. touch_page refreshes the slot on allocation.
  cached_idx_ = page_idx;
  cached_page_ = it == pages_.end() ? nullptr : it->second.get();
  return cached_page_;
}

BackingStore::Page& BackingStore::touch_page(Addr page_idx) {
  if (Page* p = find_page(page_idx)) return *p;
  auto& slot = pages_[page_idx];
  slot = std::make_unique<Page>();
  cached_idx_ = page_idx;
  cached_page_ = slot.get();
  return *slot;
}

std::uint64_t BackingStore::read_word(Addr addr) const {
  const Addr idx = word_index(addr);
  const Page* p = find_page(idx / kPageWords);
  return p == nullptr ? 0 : p->data[idx % kPageWords];
}

void BackingStore::write_word(Addr addr, std::uint64_t data,
                              std::uint8_t strb) {
  const Addr idx = word_index(addr);
  Page& page = touch_page(idx / kPageWords);
  std::uint64_t& word = page.data[idx % kPageWords];
  if (strb == 0xff) {
    word = data;
  } else {
    for (int byte = 0; byte < 8; ++byte) {
      if (strb & (1u << byte)) {
        const std::uint64_t mask = std::uint64_t{0xff} << (8 * byte);
        word = (word & ~mask) | (data & mask);
      }
    }
  }
}

void BackingStore::clear() {
  pages_.clear();
  cached_idx_ = ~Addr{0};
  cached_page_ = nullptr;
}

}  // namespace axihc
