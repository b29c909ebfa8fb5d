// A mobile node: identity + mobility + radio state + neighbor table + the
// attached protocol agent. The node owns its beacon timer; the Network owns
// the nodes and the shared medium.
#pragma once

#include <memory>

#include "mobility/mobility_model.h"
#include "net/agent.h"
#include "net/neighbor_table.h"
#include "net/types.h"
#include "sim/timer.h"
#include "util/rng.h"

namespace manet::net {

class Network;

class Node {
 public:
  Node(NodeId id, std::unique_ptr<mobility::MobilityModel> mobility,
       util::Rng rng);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  geom::Vec2 position(sim::Time t) { return mobility_->position(t); }
  geom::Vec2 velocity(sim::Time t) { return mobility_->velocity(t); }

  NeighborTable& table() { return table_; }
  const NeighborTable& table() const { return table_; }

  /// The attached protocol; must be set before the network starts.
  void set_agent(std::unique_ptr<Agent> agent);
  Agent* agent() { return agent_.get(); }

  Network& network();
  sim::Simulator& simulator();

  /// Per-node RNG substreams (fading draws, beacon jitter).
  util::Rng& rng() { return rng_; }

  /// Changes the beacon interval from the next beacon on (the §5
  /// mobility-adaptive extension). Must be called after start().
  void set_beacon_period(double period);
  double beacon_period() const;

  std::uint32_t beacons_sent() const { return seq_; }
  std::uint32_t hellos_received() const { return hellos_received_; }

  /// Alive once start() ran; dead nodes neither beacon nor receive
  /// (failure-injection hooks).
  bool alive() const { return alive_; }
  void fail();
  void recover();

 private:
  friend class Network;

  /// Wires the node to its network and starts the beacon timer with the
  /// given initial phase.
  void start(Network& network, sim::Time first_beacon_at);

  void beacon();
  void receive(const HelloPacket& pkt, double rx_power_w);
  void receive_message(const Message& msg);

  NodeId id_;
  std::unique_ptr<mobility::MobilityModel> mobility_;
  util::Rng rng_;
  NeighborTable table_;
  std::unique_ptr<Agent> agent_;
  Network* network_ = nullptr;
  std::unique_ptr<sim::PeriodicTimer> beacon_timer_;
  // Reused outgoing-Hello buffer: the neighbor list keeps its capacity
  // across beacons, so the steady-state beacon path never allocates. The
  // jittered broadcast is scheduled within params.per_beacon_jitter (a few
  // ms) while beacons are at least an interval apart, so one buffer
  // suffices; `beacon_in_flight_` guards the degenerate overlap.
  HelloPacket scratch_pkt_;
  bool beacon_in_flight_ = false;
  std::uint32_t seq_ = 0;
  std::uint32_t hellos_received_ = 0;
  bool alive_ = false;
  // Collision-model state: time of the most recent arrival (captured or
  // not).
  sim::Time last_rx_time_ = 0.0;
  bool seen_rx_ = false;
};

}  // namespace manet::net
