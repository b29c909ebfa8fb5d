// Per-node neighbor table fed by Hello receptions.
//
// For every neighbor it keeps the two most recent reception powers — the
// raw material of the paper's relative mobility metric — the reception
// times (to enforce the "two *successive* transmissions" rule), and the
// neighbor's advertised clustering state. Entries expire after the timeout
// period TP.
//
// Storage is a flat vector kept sorted by neighbor id, plus a packed copy
// of the ids alongside it. Tables hold a handful of entries (the paper's
// densities top out around 30 neighbors), so a lookup counts the smaller
// ids — a branch-free pass over a few cache lines — and inserts shift.
// That beats a hash table on every axis that matters here: iteration is
// the deterministic ascending-id order the protocols need with no sort or
// pointer vector, and the steady-state hot path (on_hello on a known
// neighbor, purge with nothing to drop) never allocates.
#pragma once

#include <array>
#include <vector>

#include "net/hello.h"
#include "net/types.h"
#include "sim/event_queue.h"

namespace manet::net {

struct NeighborEntry {
  NodeId id = kInvalidNode;

  // Reception history (newest first).
  sim::Time last_heard = 0.0;
  sim::Time prev_heard = 0.0;
  double last_rx_w = 0.0;
  double prev_rx_w = 0.0;
  bool has_prev = false;
  std::uint32_t last_seq = 0;

  // Advertised clustering state from the latest Hello.
  double weight = 0.0;
  AdvertRole role = AdvertRole::kUndecided;
  NodeId cluster_head = kInvalidNode;
  std::uint16_t degree = 0;  // size of the advertised neighbor list
  // Extra utility components of a composite advertisement (all 0 with
  // count 0 for scalar protocols).
  std::array<double, HelloPacket::kMaxExtraWeights> extra_weights{};
  std::uint8_t extra_weight_count = 0;

  /// True if the two stored receptions are successive beacons: both exist
  /// and their spacing does not exceed `max_gap` (the paper's heuristic
  /// excluding nodes that skipped a beacon in the window).
  bool has_successive_pair(double max_gap) const {
    return has_prev && (last_heard - prev_heard) <= max_gap;
  }
};

class NeighborTable {
 public:
  /// Pre-sizes the entry and id arrays (networks reserve the node count, the
  /// hard upper bound on neighbors, so steady-state inserts never
  /// reallocate).
  void reserve(std::size_t capacity) {
    entries_.reserve(capacity);
    ids_.reserve(capacity);
  }

  /// Drops every entry but keeps the allocated capacity — outage recovery
  /// wipes state without re-entering the allocator.
  void clear() {
    entries_.clear();
    ids_.clear();
  }

  /// Records a Hello from `pkt.sender` heard at time `t` with power `rx_w`.
  void on_hello(sim::Time t, const HelloPacket& pkt, double rx_w);

  /// Drops entries not heard since `t - timeout`. Returns how many were
  /// dropped.
  std::size_t purge(sim::Time t, double timeout);

  /// Removes a single neighbor (used by failure-injection tests).
  bool erase(NodeId id);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  bool contains(NodeId id) const { return find(id) != nullptr; }
  const NeighborEntry* find(NodeId id) const;

  /// The entries themselves, ascending by neighbor id (deterministic
  /// across runs). The reference is invalidated by any mutation.
  const std::vector<NeighborEntry>& entries() const { return entries_; }

  /// Legacy pointer view, ascending id (kept for tests; allocates).
  std::vector<const NeighborEntry*> entries_by_id() const;

  /// Overwrites `out` with the neighbor ids, ascending. Reuses `out`'s
  /// capacity — the allocation-free variant of ids().
  void ids_into(std::vector<NodeId>& out) const {
    out.assign(ids_.begin(), ids_.end());
  }

  /// Neighbor ids, ascending (allocates; prefer ids_into on hot paths).
  std::vector<NodeId> ids() const { return ids_; }

 private:
  /// Index of the first entry with an id >= `id` (the insertion slot).
  std::size_t slot(NodeId id) const;

  std::vector<NeighborEntry> entries_;  // sorted by id
  std::vector<NodeId> ids_;             // entries_[i].id, packed
};

}  // namespace manet::net
