#include "net/node.h"

#include "net/energy.h"
#include "net/network.h"
#include "util/assert.h"
#include "util/logging.h"

namespace manet::net {

Node::Node(NodeId id, std::unique_ptr<mobility::MobilityModel> mobility,
           util::Rng rng)
    : id_(id), mobility_(std::move(mobility)), rng_(std::move(rng)) {
  MANET_CHECK(id_ != kInvalidNode, "reserved node id");
  MANET_CHECK(mobility_ != nullptr, "node needs a mobility model");
}

void Node::set_agent(std::unique_ptr<Agent> agent) {
  MANET_CHECK(agent != nullptr);
  agent_ = std::move(agent);
}

Network& Node::network() {
  MANET_CHECK(network_ != nullptr, "node not attached to a network");
  return *network_;
}

sim::Simulator& Node::simulator() { return network().simulator(); }

void Node::start(Network& network, sim::Time first_beacon_at) {
  MANET_CHECK(network_ == nullptr, "node started twice");
  MANET_CHECK(agent_ != nullptr, "node " << id_ << " has no agent");
  network_ = &network;
  alive_ = true;
  agent_->on_attach(*this);
  beacon_timer_ = std::make_unique<sim::PeriodicTimer>(
      network.simulator(), [this] { beacon(); });
  beacon_timer_->start(first_beacon_at,
                       network.params().broadcast_interval);
}

void Node::set_beacon_period(double period) {
  MANET_CHECK(beacon_timer_ != nullptr, "set_beacon_period() before start()");
  beacon_timer_->set_period(period);
}

double Node::beacon_period() const {
  MANET_CHECK(beacon_timer_ != nullptr, "beacon_period() before start()");
  return beacon_timer_->period();
}

void Node::fail() {
  alive_ = false;
  if (beacon_timer_ != nullptr) {
    beacon_timer_->stop();
  }
  if (network_ != nullptr && agent_ != nullptr) {
    agent_->on_reset(*this);  // a crash loses protocol state
  }
}

void Node::recover() {
  MANET_CHECK(network_ != nullptr, "recover() before start()");
  if (alive_) {
    return;
  }
  alive_ = true;
  table_.clear();  // stale state is gone after an outage (capacity kept)
  const double jitter =
      rng_.uniform(0.0, network_->params().broadcast_interval);
  beacon_timer_->start(simulator().now() + jitter,
                       network_->params().broadcast_interval);
}

void Node::beacon() {
  if (!alive_) {
    return;
  }
  util::ScopedSimNode failure_context(id_);
  const sim::Time now = simulator().now();
  network_->note_neighbor_timeouts(
      table_.purge(now, network_->params().neighbor_timeout));

  // Transmitting a Hello costs battery; the drain can empty it, in which
  // case the depletion fault has already failed this node and the beacon
  // never makes it to the air.
  if (EnergyModel* energy = network_->energy(); energy != nullptr) {
    energy->drain_hello_tx(id_, now);
    if (!alive_) {
      return;
    }
  }

  // The previous jittered broadcast still pending means the beacon period
  // has been pushed below the jitter window; fall back to a pooled one-off
  // packet so the in-flight one is not overwritten. Never taken at sane
  // configs.
  if (beacon_in_flight_) {
    HelloPacket* pkt = network_->acquire_hello();
    pkt->sender = id_;
    pkt->seq = ++seq_;
    pkt->weight = 0.0;
    pkt->role = AdvertRole::kUndecided;
    pkt->cluster_head = kInvalidNode;
    pkt->extra_weight_count = 0;
    table_.ids_into(pkt->neighbors);
    agent_->on_beacon(*this, *pkt);
    simulator().schedule_in(
        rng_.uniform(0.0, network_->params().per_beacon_jitter),
        [this, pkt]() {
          if (alive_) {
            network_->broadcast(*this, *pkt);
          }
          network_->release_hello(pkt);
        });
    return;
  }

  // Steady-state path: reuse the scratch packet (same field values a fresh
  // HelloPacket would carry; the agent overwrites its advertisement).
  scratch_pkt_.sender = id_;
  scratch_pkt_.seq = ++seq_;
  scratch_pkt_.weight = 0.0;
  scratch_pkt_.role = AdvertRole::kUndecided;
  scratch_pkt_.cluster_head = kInvalidNode;
  scratch_pkt_.extra_weight_count = 0;
  table_.ids_into(scratch_pkt_.neighbors);
  agent_->on_beacon(*this, scratch_pkt_);

  // Small per-beacon jitter desynchronizes beacons that drifted into phase
  // (the stagger is fixed at start; this models clock wobble).
  const double jitter = network_->params().per_beacon_jitter;
  if (jitter > 0.0) {
    beacon_in_flight_ = true;
    simulator().schedule_in(rng_.uniform(0.0, jitter), [this]() {
      beacon_in_flight_ = false;
      if (alive_) {
        network_->broadcast(*this, scratch_pkt_);
      }
    });
  } else {
    network_->broadcast(*this, scratch_pkt_);
  }
}

void Node::receive(const HelloPacket& pkt, double rx_power_w) {
  if (!alive_) {
    return;
  }
  util::ScopedSimNode failure_context(id_);
  const sim::Time now = simulator().now();
  // Receiving costs battery whether or not the frame survives the collision
  // check below (the radio listened either way). A battery emptied here
  // fails the node before the packet is processed.
  if (EnergyModel* energy = network_->energy(); energy != nullptr) {
    energy->drain_hello_rx(id_, now);
    if (!alive_) {
      return;
    }
  }
  // Simplified MAC collision model: an arrival overlapping the previous
  // one (within the collision window) is destroyed. The first frame is
  // assumed captured; the newcomer is lost but still occupies the medium.
  const double window = network_->params().collision_window;
  if (window > 0.0 && seen_rx_ && now - last_rx_time_ < window) {
    last_rx_time_ = now;
    network_->note_collision();
    return;
  }
  last_rx_time_ = now;
  seen_rx_ = true;
  ++hellos_received_;
  table_.on_hello(now, pkt, rx_power_w);
  agent_->on_hello(*this, pkt, rx_power_w);
}

void Node::receive_message(const Message& msg) {
  if (!alive_) {
    return;
  }
  util::ScopedSimNode failure_context(id_);
  // Messages share the medium with Hellos: the same collision window
  // applies to their arrivals.
  const sim::Time now = simulator().now();
  if (EnergyModel* energy = network_->energy(); energy != nullptr) {
    energy->drain_msg_rx(id_, now);
    if (!alive_) {
      return;
    }
  }
  const double window = network_->params().collision_window;
  if (window > 0.0 && seen_rx_ && now - last_rx_time_ < window) {
    last_rx_time_ = now;
    network_->note_collision();
    return;
  }
  last_rx_time_ = now;
  seen_rx_ = true;
  agent_->on_message(*this, msg);
}

}  // namespace manet::net
