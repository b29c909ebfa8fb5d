#include "net/neighbor_table.h"

#include <algorithm>

#include "util/assert.h"

namespace manet::net {

std::size_t NeighborTable::slot(NodeId id) const {
  // The count of smaller ids is the lower bound in a sorted array; with
  // tens of entries one branch-free pass beats a binary search.
  std::size_t k = 0;
  for (const NodeId x : ids_) {
    k += x < id ? 1 : 0;
  }
  return k;
}

void NeighborTable::on_hello(sim::Time t, const HelloPacket& pkt,
                             double rx_w) {
  MANET_CHECK(pkt.sender != kInvalidNode, "hello without sender");
  MANET_CHECK(rx_w > 0.0, "non-positive rx power");
  const std::size_t k = slot(pkt.sender);
  if (k == ids_.size() || ids_[k] != pkt.sender) {
    entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(k),
                    NeighborEntry{});
    ids_.insert(ids_.begin() + static_cast<std::ptrdiff_t>(k), pkt.sender);
    entries_[k].id = pkt.sender;
  } else {
    NeighborEntry& e = entries_[k];
    MANET_ASSERT(t >= e.last_heard, "hello from the past");
    e.prev_heard = e.last_heard;
    e.prev_rx_w = e.last_rx_w;
    e.has_prev = true;
  }
  NeighborEntry& e = entries_[k];
  e.last_heard = t;
  e.last_rx_w = rx_w;
  e.last_seq = pkt.seq;
  e.weight = pkt.weight;
  e.role = pkt.role;
  e.cluster_head = pkt.cluster_head;
  e.extra_weights = pkt.extra_weights;
  e.extra_weight_count = pkt.extra_weight_count;
  e.degree = static_cast<std::uint16_t>(
      std::min<std::size_t>(pkt.neighbors.size(), 0xFFFF));
}

std::size_t NeighborTable::purge(sim::Time t, double timeout) {
  const auto stale = [t, timeout](const NeighborEntry& e) {
    return e.last_heard < t - timeout;
  };
  const auto first = std::remove_if(entries_.begin(), entries_.end(), stale);
  const auto dropped = static_cast<std::size_t>(entries_.end() - first);
  if (dropped > 0) {
    entries_.erase(first, entries_.end());
    ids_.clear();
    for (const NeighborEntry& e : entries_) {
      ids_.push_back(e.id);
    }
  }
  return dropped;
}

bool NeighborTable::erase(NodeId id) {
  const std::size_t k = slot(id);
  if (k == ids_.size() || ids_[k] != id) {
    return false;
  }
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(k));
  ids_.erase(ids_.begin() + static_cast<std::ptrdiff_t>(k));
  return true;
}

const NeighborEntry* NeighborTable::find(NodeId id) const {
  const std::size_t k = slot(id);
  return (k == ids_.size() || ids_[k] != id) ? nullptr : &entries_[k];
}

std::vector<const NeighborEntry*> NeighborTable::entries_by_id() const {
  std::vector<const NeighborEntry*> out;
  out.reserve(entries_.size());
  for (const NeighborEntry& e : entries_) {
    out.push_back(&e);
  }
  return out;
}

}  // namespace manet::net
