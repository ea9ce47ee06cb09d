#include "sim/soa_pool.hpp"

#include <utility>

#include "sim/phase_check.hpp"

namespace axihc {

HotStatePool::Slot32 HotStatePool::alloc_u32(const Component* owner,
                                             std::size_t count,
                                             std::string what) {
  // u32 slots live in u64 blocks (rounded up) so both widths share the
  // allocation bookkeeping; alignment is trivially satisfied.
  blocks_.push_back(std::make_unique<std::uint64_t[]>((count + 1) / 2 + 1));
  SlotInfo info;
  info.owner = owner;
  info.what = std::move(what);
  info.words = count;
  slots_.push_back(std::move(info));
  Slot32 s;
  s.data = reinterpret_cast<std::uint32_t*>(blocks_.back().get());
  s.slot = static_cast<std::uint32_t>(slots_.size() - 1);
  return s;
}

HotStatePool::Slot64 HotStatePool::alloc_u64(const Component* owner,
                                             std::size_t count,
                                             std::string what) {
  blocks_.push_back(std::make_unique<std::uint64_t[]>(count > 0 ? count : 1));
  SlotInfo info;
  info.owner = owner;
  info.what = std::move(what);
  info.words = count;
  slots_.push_back(std::move(info));
  Slot64 s;
  s.data = blocks_.back().get();
  s.slot = static_cast<std::uint32_t>(slots_.size() - 1);
  return s;
}

#ifdef AXIHC_PHASE_CHECK

void HotStatePool::note_slot_write(std::uint32_t slot) const {
  if (!PhaseCheck::armed()) return;
  const SlotInfo& info = slots_[slot];
  const Component* c = PhaseCheck::current();
  if (c != nullptr) {
    bool seen = false;
    for (const Component* s : info.accessors) {
      if (s == c) {
        seen = true;
        break;
      }
    }
    if (!seen) info.accessors.push_back(c);
  }
  if (PhaseCheck::phase() == EnginePhase::kCommit) {
    PhaseCheck::record("pool:" + info.what,
                       "pool-slot write during the engine commit phase", 0);
  }
}

#endif  // AXIHC_PHASE_CHECK

}  // namespace axihc
