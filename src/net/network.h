// The broadcast channel + node container: the piece of ns-2 the paper's
// experiments actually exercise.
//
// Delivery model: on each Hello broadcast the channel computes the exact
// sender/receiver positions, evaluates the propagation model, and delivers
// to every node whose received power clears the calibrated threshold
// (optionally after a fading draw and/or a loss-stack draw — the composable
// failure-injection layers of net/loss.h, with the global packet_loss knob
// as layer zero). A spatial grid over a position snapshot, refreshed every
// grid_refresh seconds, bounds the candidate set. The query around the
// sender's snapshot position is padded by twice how far a node can get
// from its snapshot — speed_bound x staleness plus the fleet's largest
// mobility jump (highway re-entry) — and candidates are re-checked with
// exact positions, so the grid is a pure optimization: no snapshot age
// changes a delivery. Candidates come in the grid's fixed order (row-major
// cells, ascending id within a cell), the order in which the sender's
// fading and loss draws are consumed.
#pragma once

#include <memory>
#include <vector>

#include "geom/grid_index.h"
#include "net/loss.h"
#include "net/node.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "radio/medium.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace manet::net {

class EnergyModel;

struct NetworkParams {
  double broadcast_interval = 2.0;  // BI, seconds (paper: 2.0)
  double neighbor_timeout = 3.0;    // TP, seconds (paper: 3.0)
  /// Beacons are staggered: node k first fires at a uniform phase in
  /// [0, BI) and keeps that phase, plus a small per-beacon jitter below.
  double per_beacon_jitter = 0.01;  // seconds of uniform jitter per beacon
  /// Independent per-reception loss probability (failure injection; 0 = off).
  double packet_loss = 0.0;
  /// Simplified MAC collision model (0 = ideal MAC, the paper's setting):
  /// a Hello arriving at a receiver within this many seconds of the
  /// previous arrival is destroyed by the overlap (first-capture model).
  /// A realistic value is the Hello airtime, ~0.5-2 ms at 1-2 Mb/s.
  double collision_window = 0.0;
  /// Fixed delivery latency (propagation + transmission of a short Hello).
  double delivery_delay = 0.0005;  // seconds
  /// Upper bound on node speed; pads grid queries against snapshot
  /// staleness.
  double speed_bound = 50.0;  // m/s
  /// Snapshot refresh period for the spatial grid.
  double grid_refresh = 0.5;  // seconds
};

struct NetworkStats {
  std::uint64_t beacons_sent = 0;
  std::uint64_t messages_sent = 0;       // protocol Messages (see send())
  std::uint64_t messages_delivered = 0;
  std::uint64_t message_bytes = 0;
  std::uint64_t hellos_delivered = 0;
  std::uint64_t hellos_lost = 0;      // Bernoulli loss or fading below threshold
  std::uint64_t hellos_collided = 0;  // destroyed by the collision window
  std::uint64_t bytes_sent = 0;
  double sum_degree_samples = 0.0;    // accumulated receiver counts
  std::uint64_t degree_samples = 0;

  double mean_degree() const {
    return degree_samples == 0
               ? 0.0
               : sum_degree_samples / static_cast<double>(degree_samples);
  }
};

class Network {
 public:
  Network(sim::Simulator& sim, radio::Medium medium, geom::Rect field,
          NetworkParams params, util::Rng rng);

  /// Adds a node (takes ownership). All nodes must be added, and agents
  /// attached, before start().
  Node& add_node(std::unique_ptr<Node> node);

  /// Convenience: builds nodes 0..n-1 from a mobility fleet.
  void add_fleet(std::vector<std::unique_ptr<mobility::MobilityModel>> fleet);

  /// Starts every node's beacon loop (staggered phases).
  void start();

  sim::Simulator& simulator() { return sim_; }
  const radio::Medium& medium() const { return medium_; }
  const NetworkParams& params() const { return params_; }
  const geom::Rect& field() const { return field_; }

  std::size_t size() const { return nodes_.size(); }
  Node& node(NodeId id);
  const Node& node(NodeId id) const;
  std::vector<std::unique_ptr<Node>>& nodes() { return nodes_; }

  const NetworkStats& stats() const { return stats_; }

  /// Ground-truth connectivity at time t (positions within nominal range):
  /// used by validators and the routing experiments, not by the protocols.
  std::vector<std::vector<NodeId>> true_adjacency(sim::Time t);

  /// Reusable CSR ground-truth adjacency: node i's neighbors occupy
  /// flat[offsets[i] .. offsets[i+1]) after true_adjacency_into(). Owns its
  /// own spatial grid so repeated validation sweeps are O(N·deg) without
  /// touching the network's delivery snapshot (whose refresh timeline is
  /// behavior-affecting). All buffers keep their capacity across calls, so
  /// periodic validation is allocation-free once warmed up.
  struct AdjacencyScratch {
    std::vector<geom::Vec2> pos;
    std::vector<std::size_t> offsets;  // n + 1 entries
    std::vector<NodeId> flat;

    std::span<const NodeId> neighbors(std::size_t i) const {
      return {flat.data() + offsets[i], offsets[i + 1] - offsets[i]};
    }

   private:
    friend class Network;
    std::vector<std::size_t> query;
    std::unique_ptr<geom::GridIndex> grid;
  };
  void true_adjacency_into(sim::Time t, AdjacencyScratch& out);

  /// Exact current distance between two nodes (ground truth helper).
  double distance(NodeId a, NodeId b, sim::Time t);

  /// Books a collision-model loss (called by receiving nodes).
  void note_collision() {
    ++stats_.hellos_collided;
    if (hooks_ != nullptr) {
      hooks_->hello_dropped_collision->inc();
    }
  }

  /// Books neighbor-table expiries (called by nodes after a purge).
  void note_neighbor_timeouts(std::size_t n) {
    if (n > 0 && hooks_ != nullptr) {
      hooks_->neighbor_timeout->inc(n);
    }
  }

  /// Observability hooks; may be null (the default — uninstrumented).
  /// When set, *every* field must be resolved to a live counter: call
  /// sites null-check only the bundle, not individual handles. The bundle
  /// and its counters must outlive the network.
  void set_hooks(const obs::NetHooks* hooks) { hooks_ = hooks; }

  /// Attaches the battery model (not owned, must outlive the network; null
  /// = energy-free, the default). Nodes charge Hello/Message TX+RX costs
  /// against it; a drain that empties a battery fails the node mid-action
  /// via the model's on_depleted callback.
  void set_energy(EnergyModel* energy) { energy_ = energy; }
  EnergyModel* energy() { return energy_; }

  /// Registers a reception-loss layer (see net/loss.h). The layer is not
  /// owned and must outlive the network; layers may be added before or
  /// during the run (fault injectors register theirs at arm time). The
  /// legacy params.packet_loss knob is pre-registered as layer zero.
  void add_loss_layer(const LossLayer* layer);

  /// Combined drop probability of the current loss stack for one delivery
  /// attempt (exposed for tests and validators).
  double drop_probability(const LinkContext& link) const {
    return loss_layers_.empty() ? 0.0
                                : combined_drop_probability(loss_layers_, link);
  }

  /// Sends a protocol Message from `sender` (msg.src is overwritten).
  /// Broadcast (msg.dst == kInvalidNode): delivered to every alive node in
  /// range; returns the receiver count. Unicast: delivered to msg.dst iff
  /// in range and not lost; returns 1 on link-layer success, 0 otherwise
  /// (the 802.11 ACK abstraction — the sender knows immediately).
  /// Deliveries invoke the receiver agent's on_message() after the
  /// configured delivery delay.
  std::size_t send(Node& sender, Message msg);

 private:
  friend class Node;

  /// One scheduled Hello delivery batch: the packet stored once by value
  /// plus every receiver that passed the propagation/loss checks. Batches
  /// are pooled and reused (packet neighbor list and receiver vector keep
  /// their capacity), so steady-state delivery performs no allocations and
  /// schedules a single event per broadcast instead of one per receiver.
  struct DeliveryBatch {
    struct Rx {
      Node* node;
      double rx_power_w;
    };
    HelloPacket pkt;
    std::vector<Rx> receivers;
  };

  /// One scheduled protocol-Message delivery: the payload stored once by
  /// value plus every receiver that passed the propagation/loss checks —
  /// the DeliveryBatch idiom applied to send(). Pooled and reused, so
  /// steady-state sends copy the Message once and schedule a single event
  /// instead of one heap-allocated copy and one event per receiver.
  struct MessageBatch {
    Message msg;
    std::vector<Node*> receivers;
  };

  /// Called by a node when its beacon timer fires.
  void broadcast(Node& sender, const HelloPacket& pkt);

  /// Pooled HelloPacket for the rare in-flight-beacon fallback in
  /// Node::beacon(): keeps that path off the allocator (the packet's
  /// neighbor capacity is reused across acquisitions).
  HelloPacket* acquire_hello();
  void release_hello(HelloPacket* pkt);

  DeliveryBatch* acquire_batch();
  void release_batch(DeliveryBatch* batch);
  void deliver_batch(DeliveryBatch* batch);

  MessageBatch* acquire_message_batch();
  void release_message_batch(MessageBatch* batch);
  void deliver_message_batch(MessageBatch* batch);

  void refresh_grid_if_stale();
  /// Radius of the grid query around the sender's snapshot position that
  /// reaches every node within delivery range of it now.
  double padded_query_radius(sim::Time now) const;

  sim::Simulator& sim_;
  radio::Medium medium_;
  geom::Rect field_;
  NetworkParams params_;
  util::Rng rng_;
  std::vector<std::unique_ptr<Node>> nodes_;
  bool started_ = false;

  BernoulliLossLayer base_loss_;  // params.packet_loss as a stack layer
  std::vector<const LossLayer*> loss_layers_;

  geom::GridIndex grid_;
  std::vector<geom::Vec2> snapshot_;
  sim::Time snapshot_time_ = -1.0;
  bool snapshot_valid_ = false;
  double max_jump_m_ = 0.0;  // the fleet's largest max_jump_m()
  std::vector<std::size_t> query_buf_;

  // Delivery-batch pool: batches_ owns (stable addresses for the scheduled
  // closures), free_batches_ recycles. In-flight batches are bounded by
  // senders per delivery-delay window, so the pool stays tiny.
  std::vector<std::unique_ptr<DeliveryBatch>> batches_;
  std::vector<DeliveryBatch*> free_batches_;
  // The same pool for protocol Messages (send()).
  std::vector<std::unique_ptr<MessageBatch>> message_batches_;
  std::vector<MessageBatch*> free_message_batches_;
  // Scratch receiver list for the zero-delay path: deliveries happen after
  // the candidate scan so a receiving agent that transmits cannot clobber
  // query_buf_ mid-iteration.
  std::vector<DeliveryBatch::Rx> immediate_buf_;
  // Fallback-Hello pool (see acquire_hello()).
  std::vector<std::unique_ptr<HelloPacket>> hello_pool_;
  std::vector<HelloPacket*> free_hellos_;

  EnergyModel* energy_ = nullptr;  // non-owning; null = energy-free

  NetworkStats stats_;
  const obs::NetHooks* hooks_ = nullptr;
};

}  // namespace manet::net
