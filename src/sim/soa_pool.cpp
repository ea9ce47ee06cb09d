#include "sim/soa_pool.hpp"

#include <utility>

namespace axihc {

std::uint32_t* HotStatePool::alloc_u32(const Component* owner,
                                       std::size_t count, std::string what) {
  // u32 slots live in u64 blocks (rounded up) so both widths share the
  // allocation bookkeeping; alignment is trivially satisfied.
  std::uint64_t* block =
      alloc_u64(owner, (count + 1) / 2 + 1, std::move(what));
  slots_.back().words = count;
  return reinterpret_cast<std::uint32_t*>(block);
}

std::uint64_t* HotStatePool::alloc_u64(const Component* owner,
                                       std::size_t count, std::string what) {
  blocks_.push_back(std::make_unique<std::uint64_t[]>(count > 0 ? count : 1));
  slots_.push_back({owner, std::move(what), count});
  return blocks_.back().get();
}

}  // namespace axihc
