// Island partition for the parallel tick engine.
//
// An island is a connected component of the bipartite (component, channel)
// graph induced by ChannelBase::add_endpoint declarations. Two components
// share an island iff some channel chain connects them; since an
// island-scope component's tick() touches only its own state and its
// declared channels (see TickScope), the compute phases of distinct islands
// are data-independent and may run concurrently. One serial-scope component
// collapses the whole partition into a single island holding everything in
// registration order — the engine then degenerates to the serial kernel's
// behaviour, so unaudited components are safe by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/trace.hpp"

namespace axihc {

class ChannelBase;
class Component;

struct Island {
  // Packed arrays: the compute phase walks components front to back, so a
  // cycle's virtual tick dispatches for one island stay on one core with
  // their seq tags alongside.
  std::vector<Component*> components;  // ascending registration index
  std::vector<std::uint32_t> seq;      // global registration index per entry
  std::vector<ChannelBase*> dirty;     // island-local commit list (unpooled)
  // Island-local commit list of pooled channel lanes (sim/soa_pool.hpp):
  // committed by the backend kernels instead of virtual commit(). seq[]
  // doubles as the island's slice into the certificate array — cert lane ==
  // global registration index — so per-island fast-forward refreshes
  // compose with the pooled reduction without a relayout.
  std::vector<std::uint32_t> dirty_lanes;
  TraceStagingBuffer staging;          // per-island trace sink

  /// Fast-forward reduce: min next_activity over members, clipped to
  /// `bound`. Returns `now` (early out) as soon as a member is active.
  [[nodiscard]] Cycle next_activity(Cycle now, Cycle bound) const;
};

struct IslandPartition {
  static constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);

  std::vector<Island> islands;  // ordered by smallest member index
  /// Island owning each registered channel (parallel to the Simulator's
  /// channel vector); kUnassigned channels (no registered endpoint) stay on
  /// the main dirty list.
  std::vector<std::size_t> channel_island;
  bool collapsed = false;  // a serial-scope component forced one island
};

/// Partitions the registered graph. Pure function of the topology; called at
/// elaboration time (lazily, from the first step after a registration).
IslandPartition partition_islands(const std::vector<Component*>& components,
                                  const std::vector<ChannelBase*>& channels);

}  // namespace axihc
