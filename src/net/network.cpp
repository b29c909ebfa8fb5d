#include "net/network.h"

#include <algorithm>
#include <cmath>

#include "net/energy.h"
#include "util/assert.h"
#include "util/logging.h"

namespace manet::net {

namespace {

// Grid cell size: coarse enough that rebuilds stay cheap, fine enough that
// query rectangles do not degenerate to full scans at common ranges.
double grid_cell_size(const geom::Rect& field) {
  return std::max(25.0, std::min(field.width, field.height) / 16.0);
}

}  // namespace

Network::Network(sim::Simulator& sim, radio::Medium medium, geom::Rect field,
                 NetworkParams params, util::Rng rng)
    : sim_(sim),
      medium_(std::move(medium)),
      field_(field),
      params_(params),
      rng_(std::move(rng)),
      // Out-of-range packet_loss is rejected by the MANET_CHECK below; the
      // clamp here only keeps the layer constructor from pre-empting it with
      // a less specific message.
      base_loss_(params.packet_loss >= 0.0 && params.packet_loss <= 1.0
                     ? params.packet_loss
                     : 0.0),
      grid_(field, grid_cell_size(field)) {
  MANET_CHECK(params_.broadcast_interval > 0.0);
  MANET_CHECK(params_.neighbor_timeout > 0.0);
  MANET_CHECK(params_.per_beacon_jitter >= 0.0 &&
              params_.per_beacon_jitter < params_.broadcast_interval);
  MANET_CHECK(params_.packet_loss >= 0.0 && params_.packet_loss <= 1.0);
  MANET_CHECK(params_.collision_window >= 0.0);
  MANET_CHECK(params_.delivery_delay >= 0.0);
  MANET_CHECK(params_.speed_bound >= 0.0);
  MANET_CHECK(params_.grid_refresh > 0.0);
  if (params_.packet_loss > 0.0) {
    loss_layers_.push_back(&base_loss_);
  }
}

void Network::add_loss_layer(const LossLayer* layer) {
  MANET_CHECK(layer != nullptr);
  loss_layers_.push_back(layer);
}

Node& Network::add_node(std::unique_ptr<Node> node) {
  MANET_CHECK(!started_, "add_node() after start()");
  MANET_CHECK(node != nullptr);
  MANET_CHECK(node->id() == nodes_.size(),
              "node ids must be dense and in order; got "
                  << node->id() << " at index " << nodes_.size());
  nodes_.push_back(std::move(node));
  return *nodes_.back();
}

void Network::add_fleet(
    std::vector<std::unique_ptr<mobility::MobilityModel>> fleet) {
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto id = static_cast<NodeId>(nodes_.size());
    add_node(std::make_unique<Node>(id, std::move(fleet[i]),
                                    rng_.substream("node", id)));
  }
}

void Network::start() {
  MANET_CHECK(!started_, "network started twice");
  MANET_CHECK(!nodes_.empty(), "network with no nodes");
  started_ = true;
  // Pre-size every per-node and shared buffer to its population bound so
  // the steady-state loop never crosses a new capacity high-water mark
  // (the zero-allocation contract of tests/test_zero_alloc.cpp).
  const std::size_t n = nodes_.size();
  query_buf_.reserve(n);
  immediate_buf_.reserve(n);
  snapshot_.reserve(n);
  // Steady event population: one beacon timer + at most one jittered
  // broadcast + one delivery batch per node, plus slack for protocol
  // timers and fault machinery.
  sim_.reserve_events(4 * n + 64);
  for (auto& node : nodes_) {
    node->table_.reserve(n - 1);
    node->scratch_pkt_.neighbors.reserve(n - 1);
    max_jump_m_ = std::max(max_jump_m_, node->mobility_->max_jump_m());
  }
  util::Rng phase_rng = rng_.substream("phase");
  for (auto& node : nodes_) {
    // Stagger initial beacons uniformly across the first interval.
    node->start(*this, phase_rng.uniform(0.0, params_.broadcast_interval));
  }
}

Node& Network::node(NodeId id) {
  MANET_CHECK(id < nodes_.size(), "node id " << id << " out of range");
  return *nodes_[id];
}

const Node& Network::node(NodeId id) const {
  MANET_CHECK(id < nodes_.size(), "node id " << id << " out of range");
  return *nodes_[id];
}

void Network::refresh_grid_if_stale() {
  const sim::Time now = sim_.now();
  if (snapshot_valid_ && now - snapshot_time_ <= params_.grid_refresh) {
    return;
  }
  snapshot_.resize(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    snapshot_[i] = nodes_[i]->position(now);
  }
  // In-place update when no node changed grid cell (common at short refresh
  // periods); the CSR structure stays valid and only the stored exact
  // positions — which query_radius distance-checks against — move.
  if (!snapshot_valid_ || !grid_.update_positions(snapshot_)) {
    grid_.rebuild(snapshot_);
  }
  snapshot_time_ = now;
  snapshot_valid_ = true;
}

double Network::padded_query_radius(sim::Time now) const {
  // Both endpoints may have moved since the snapshot, and either may have
  // jumped; a fresh snapshot is exact.
  const double staleness = now - snapshot_time_;
  double pad = 2.0 * params_.speed_bound * staleness + 1.0;
  if (staleness > 0.0) {
    pad += 2.0 * max_jump_m_;
  }
  return medium_.max_delivery_range_m() + pad;
}

HelloPacket* Network::acquire_hello() {
  if (!free_hellos_.empty()) {
    HelloPacket* pkt = free_hellos_.back();
    free_hellos_.pop_back();
    return pkt;
  }
  hello_pool_.push_back(std::make_unique<HelloPacket>());
  HelloPacket* pkt = hello_pool_.back().get();
  pkt->neighbors.reserve(nodes_.size());
  return pkt;
}

void Network::release_hello(HelloPacket* pkt) {
  pkt->neighbors.clear();
  free_hellos_.push_back(pkt);
}

Network::DeliveryBatch* Network::acquire_batch() {
  if (!free_batches_.empty()) {
    DeliveryBatch* batch = free_batches_.back();
    free_batches_.pop_back();
    return batch;
  }
  batches_.push_back(std::make_unique<DeliveryBatch>());
  DeliveryBatch* batch = batches_.back().get();
  batch->receivers.reserve(nodes_.size());
  batch->pkt.neighbors.reserve(nodes_.size());
  return batch;
}

void Network::release_batch(DeliveryBatch* batch) {
  batch->receivers.clear();
  free_batches_.push_back(batch);
}

Network::MessageBatch* Network::acquire_message_batch() {
  if (!free_message_batches_.empty()) {
    MessageBatch* batch = free_message_batches_.back();
    free_message_batches_.pop_back();
    return batch;
  }
  message_batches_.push_back(std::make_unique<MessageBatch>());
  MessageBatch* batch = message_batches_.back().get();
  batch->receivers.reserve(nodes_.size());
  return batch;
}

void Network::release_message_batch(MessageBatch* batch) {
  batch->receivers.clear();
  // Drop the payload reference so a pooled slot never pins protocol memory
  // between sends.
  batch->msg.body.reset();
  free_message_batches_.push_back(batch);
}

void Network::deliver_message_batch(MessageBatch* batch) {
  // Same receiver order as the send-time scan; all delivery checks already
  // ran at send time, exactly as with the per-receiver events.
  for (Node* rx : batch->receivers) {
    rx->receive_message(batch->msg);
  }
  release_message_batch(batch);
}

void Network::deliver_batch(DeliveryBatch* batch) {
  // Same receiver order as the candidate scan; Node::receive re-checks
  // liveness, so receivers that died during the delivery delay drop out
  // exactly as they did with per-receiver events.
  for (const DeliveryBatch::Rx& rx : batch->receivers) {
    rx.node->receive(batch->pkt, rx.rx_power_w);
  }
  release_batch(batch);
}

void Network::broadcast(Node& sender, const HelloPacket& pkt) {
  const sim::Time now = sim_.now();
  ++stats_.beacons_sent;
  stats_.bytes_sent += pkt.serialized_bytes();
  if (hooks_ != nullptr) {
    hooks_->beacon_sent->inc();
  }

  refresh_grid_if_stale();

  const geom::Vec2 sender_pos = sender.position(now);
  query_buf_.clear();
  grid_.query_radius(snapshot_[sender.id()], padded_query_radius(now),
                     query_buf_);

  std::uint32_t delivered = 0;
  util::Rng& fading = sender.rng();
  DeliveryBatch* batch = nullptr;
  immediate_buf_.clear();
  for (const std::size_t idx : query_buf_) {
    Node& receiver = *nodes_[idx];
    if (receiver.id() == sender.id() || !receiver.alive()) {
      continue;
    }
    const geom::Vec2 receiver_pos = receiver.position(now);
    const double dist = geom::distance(sender_pos, receiver_pos);
    if (dist > medium_.max_delivery_range_m()) {
      continue;
    }
    // From here on this candidate is a delivery attempt: exactly one of
    // hello.delivered / hello.dropped.fading / hello.dropped.loss follows,
    // the identity test_obs_differential.cpp checks against hello.sent.
    if (hooks_ != nullptr) {
      hooks_->hello_sent->inc();
    }
    const auto reception = medium_.try_receive(dist, fading);
    if (!reception.delivered) {
      ++stats_.hellos_lost;
      if (hooks_ != nullptr) {
        hooks_->hello_dropped_fading->inc();
      }
      continue;
    }
    const double p_drop = drop_probability(
        {sender.id(), receiver.id(), now, sender_pos, receiver_pos});
    // p >= 1 drops without an RNG draw so that deterministic faults
    // (partitions, full jam) do not perturb the sender's draw sequence.
    if (p_drop >= 1.0 || (p_drop > 0.0 && fading.bernoulli(p_drop))) {
      ++stats_.hellos_lost;
      if (hooks_ != nullptr) {
        hooks_->hello_dropped_loss->inc();
      }
      continue;
    }
    ++delivered;
    ++stats_.hellos_delivered;
    if (hooks_ != nullptr) {
      hooks_->hello_delivered->inc();
    }
    if (params_.delivery_delay > 0.0) {
      if (batch == nullptr) {
        batch = acquire_batch();
        batch->pkt = pkt;  // one copy per broadcast, capacity reused
      }
      batch->receivers.push_back({&receiver, reception.rx_power_w});
    } else {
      immediate_buf_.push_back({&receiver, reception.rx_power_w});
    }
  }
  // The per-receiver delivery events all carried the identical timestamp
  // and were pushed contiguously, so folding them into one batch event
  // preserves the (time, insertion-seq) FIFO order against every other
  // event in the queue.
  if (batch != nullptr) {
    sim_.schedule_in(params_.delivery_delay,
                     [this, batch] { deliver_batch(batch); });
  }
  // Zero-delay deliveries run after the scan: a receiving agent that
  // transmits in its handler may refresh the grid and reuse query_buf_,
  // which previously mutated the container mid-iteration. Indexed loop: a
  // reentrant broadcast() clears the buffer, which simply ends this pass.
  for (std::size_t i = 0; i < immediate_buf_.size(); ++i) {
    const DeliveryBatch::Rx rx = immediate_buf_[i];
    rx.node->receive(pkt, rx.rx_power_w);
  }
  stats_.sum_degree_samples += delivered;
  ++stats_.degree_samples;
}

std::size_t Network::send(Node& sender, Message msg) {
  const sim::Time now = sim_.now();
  msg.src = sender.id();
  ++stats_.messages_sent;
  stats_.message_bytes += msg.bytes;
  if (hooks_ != nullptr) {
    hooks_->msg_sent->inc();
  }

  // The transmission cost is paid up front; if it empties the battery the
  // depletion fault fails the sender and nothing reaches the air (the frame
  // died in the radio).
  if (energy_ != nullptr) {
    energy_->drain_msg_tx(sender.id(), now);
    if (!sender.alive()) {
      return 0;
    }
  }

  util::Rng& fading = sender.rng();
  const geom::Vec2 sender_pos = sender.position(now);

  // The payload is shared by every receiver of this send: one pooled batch,
  // acquired lazily (only if somebody actually receives), holding the
  // Message once plus the receiver list — no per-send heap allocation.
  MessageBatch* batch = nullptr;

  const auto try_deliver = [&](Node& receiver) -> bool {
    if (!receiver.alive()) {
      return false;
    }
    const geom::Vec2 receiver_pos = receiver.position(now);
    const double dist = geom::distance(sender_pos, receiver_pos);
    if (dist > medium_.max_delivery_range_m()) {
      return false;
    }
    const auto reception = medium_.try_receive(dist, fading);
    if (!reception.delivered) {
      return false;
    }
    const double p_drop = drop_probability(
        {sender.id(), receiver.id(), now, sender_pos, receiver_pos});
    if (p_drop >= 1.0 || (p_drop > 0.0 && fading.bernoulli(p_drop))) {
      return false;
    }
    ++stats_.messages_delivered;
    if (hooks_ != nullptr) {
      hooks_->msg_delivered->inc();
    }
    if (batch == nullptr) {
      batch = acquire_message_batch();
      batch->msg = msg;  // one copy per send, vector capacity reused
    }
    batch->receivers.push_back(&receiver);
    return true;
  };

  // All receivers of one send carry the identical delivery timestamp and
  // were (previously) pushed contiguously, so folding them into one batch
  // event preserves the (time, insertion-seq) FIFO order against every
  // other event in the queue.
  const auto flush = [&]() {
    if (batch != nullptr) {
      sim_.schedule_in(params_.delivery_delay,
                       [this, batch] { deliver_message_batch(batch); });
    }
  };

  if (msg.dst != kInvalidNode) {
    MANET_CHECK(msg.dst < nodes_.size(), "unicast to unknown node");
    MANET_CHECK(msg.dst != sender.id(), "unicast to self");
    const std::size_t delivered = try_deliver(*nodes_[msg.dst]) ? 1 : 0;
    flush();
    return delivered;
  }

  refresh_grid_if_stale();
  query_buf_.clear();
  grid_.query_radius(snapshot_[sender.id()], padded_query_radius(now),
                     query_buf_);
  std::size_t delivered = 0;
  for (const std::size_t idx : query_buf_) {
    if (idx == sender.id()) {
      continue;
    }
    delivered += try_deliver(*nodes_[idx]) ? 1 : 0;
  }
  flush();
  return delivered;
}

std::vector<std::vector<NodeId>> Network::true_adjacency(sim::Time t) {
  std::vector<geom::Vec2> pos(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    pos[i] = nodes_[i]->position(t);
  }
  const double range = medium_.nominal_range_m();
  std::vector<std::vector<NodeId>> adj(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes_.size(); ++j) {
      if (geom::distance(pos[i], pos[j]) <= range) {
        adj[i].push_back(static_cast<NodeId>(j));
        adj[j].push_back(static_cast<NodeId>(i));
      }
    }
  }
  return adj;
}

void Network::true_adjacency_into(sim::Time t, AdjacencyScratch& out) {
  const std::size_t n = nodes_.size();
  out.pos.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.pos[i] = nodes_[i]->position(t);
  }
  if (out.grid == nullptr) {
    out.grid = std::make_unique<geom::GridIndex>(field_,
                                                 grid_cell_size(field_));
  }
  out.grid->rebuild(out.pos);
  const double range = medium_.nominal_range_m();
  out.offsets.resize(n + 1);
  out.flat.clear();
  for (std::size_t i = 0; i < n; ++i) {
    out.offsets[i] = out.flat.size();
    out.query.clear();
    // Tiny slack over the exact range so the squared-distance grid
    // prefilter can never drop a boundary pair the exact distance test
    // below would keep.
    out.grid->query_radius(out.pos[i], range + 1e-6, out.query);
    for (const std::size_t j : out.query) {
      if (j != i && geom::distance(out.pos[i], out.pos[j]) <= range) {
        out.flat.push_back(static_cast<NodeId>(j));
      }
    }
  }
  out.offsets[n] = out.flat.size();
}

double Network::distance(NodeId a, NodeId b, sim::Time t) {
  return geom::distance(node(a).position(t), node(b).position(t));
}

}  // namespace manet::net
