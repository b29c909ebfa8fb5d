// Observer interface for clustering dynamics. The stats collector (cluster
// stability metric CS, reaffiliation counts, clusterhead lifetimes) hangs
// off these callbacks; agents invoke them on every state change.
#pragma once

#include <vector>

#include "cluster/types.h"
#include "net/types.h"
#include "sim/event_queue.h"

namespace manet::cluster {

class ClusterEventSink {
 public:
  virtual ~ClusterEventSink() = default;

  /// Fired when a node's role changes (old_role != new_role).
  virtual void on_role_change(sim::Time t, net::NodeId node, Role old_role,
                              Role new_role) = 0;

  /// Fired when a node's clusterhead affiliation changes (including
  /// becoming/stopping being its own head). kInvalidNode = unaffiliated.
  virtual void on_affiliation_change(sim::Time t, net::NodeId node,
                                     net::NodeId old_head,
                                     net::NodeId new_head) = 0;
};

/// Discards all events.
class NullClusterEventSink final : public ClusterEventSink {
 public:
  void on_role_change(sim::Time, net::NodeId, Role, Role) override {}
  void on_affiliation_change(sim::Time, net::NodeId, net::NodeId,
                             net::NodeId) override {}
};

/// Forwards events to several sinks (stats collector + timeline recorder).
/// Null entries are allowed and skipped; sinks are not owned.
class FanoutClusterEventSink final : public ClusterEventSink {
 public:
  FanoutClusterEventSink() = default;
  explicit FanoutClusterEventSink(std::vector<ClusterEventSink*> sinks)
      : sinks_(std::move(sinks)) {}

  void add(ClusterEventSink* sink) { sinks_.push_back(sink); }

  void on_role_change(sim::Time t, net::NodeId node, Role old_role,
                      Role new_role) override {
    for (auto* s : sinks_) {
      if (s != nullptr) {
        s->on_role_change(t, node, old_role, new_role);
      }
    }
  }
  void on_affiliation_change(sim::Time t, net::NodeId node,
                             net::NodeId old_head,
                             net::NodeId new_head) override {
    for (auto* s : sinks_) {
      if (s != nullptr) {
        s->on_affiliation_change(t, node, old_head, new_head);
      }
    }
  }

 private:
  std::vector<ClusterEventSink*> sinks_;
};

}  // namespace manet::cluster
