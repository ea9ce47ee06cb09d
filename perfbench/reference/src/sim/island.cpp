#include "sim/island.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "sim/channel.hpp"
#include "sim/component.hpp"

namespace axihc {

namespace {

std::size_t find_root(std::vector<std::size_t>& parent, std::size_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];  // path halving
    x = parent[x];
  }
  return x;
}

void unite(std::vector<std::size_t>& parent, std::size_t a, std::size_t b) {
  a = find_root(parent, a);
  b = find_root(parent, b);
  if (a != b) parent[std::max(a, b)] = std::min(a, b);
}

}  // namespace

Cycle Island::next_activity(Cycle now, Cycle bound) const {
  Cycle target = bound;
  for (const Component* c : components) {
    const Cycle na = c->next_activity(now);
    if (na <= now) return now;
    if (na < target) target = na;
  }
  return target;
}

IslandPartition partition_islands(const std::vector<Component*>& components,
                                  const std::vector<ChannelBase*>& channels) {
  IslandPartition part;
  part.channel_island.assign(channels.size(), IslandPartition::kUnassigned);
  const std::size_t n = components.size();

  for (const Component* c : components) {
    if (c->tick_scope() == TickScope::kSerial) {
      part.collapsed = true;
      break;
    }
  }
  if (part.collapsed) {
    // Safe fallback: everything in one island, registration order preserved,
    // every channel committed from that island's list.
    Island all;
    all.components = components;
    all.seq.resize(n);
    std::iota(all.seq.begin(), all.seq.end(), 0u);
    part.islands.push_back(std::move(all));
    for (auto& ci : part.channel_island) ci = 0;
    return part;
  }

  // Union-find over component nodes: registered components get their
  // registration index; endpoint components that were never registered with
  // this Simulator (e.g. shared across simulators in tests) become glue
  // nodes so they still merge the channels they touch.
  std::unordered_map<const Component*, std::size_t> node_of;
  node_of.reserve(n);
  for (std::size_t i = 0; i < n; ++i) node_of.emplace(components[i], i);
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  auto node = [&](const Component* c) {
    auto [it, inserted] = node_of.try_emplace(c, parent.size());
    if (inserted) parent.push_back(it->second);
    return it->second;
  };
  for (const ChannelBase* ch : channels) {
    const auto& eps = ch->endpoints();
    if (eps.empty()) continue;
    const std::size_t first = node(eps.front());
    for (std::size_t k = 1; k < eps.size(); ++k) {
      unite(parent, node(eps[k]), first);
    }
  }

  // Islands in order of their smallest registered member; members in
  // ascending registration index — together this makes the island-major
  // component walk a stable permutation of registration order.
  std::unordered_map<std::size_t, std::size_t> island_of_root;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = find_root(parent, i);
    auto [it, inserted] = island_of_root.try_emplace(root, part.islands.size());
    if (inserted) part.islands.emplace_back();
    Island& isl = part.islands[it->second];
    isl.components.push_back(components[i]);
    isl.seq.push_back(static_cast<std::uint32_t>(i));
  }

  for (std::size_t ci = 0; ci < channels.size(); ++ci) {
    const auto& eps = channels[ci]->endpoints();
    if (eps.empty()) continue;
    const std::size_t root = find_root(parent, node(eps.front()));
    const auto it = island_of_root.find(root);
    if (it != island_of_root.end()) part.channel_island[ci] = it->second;
  }
  return part;
}

}  // namespace axihc
