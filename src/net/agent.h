// Protocol hook attached to each node. The network layer drives the beacon
// loop and reception plumbing; an Agent implements the behaviour on top
// (clustering, routing experiments, instrumentation).
#pragma once

#include "net/hello.h"
#include "net/message.h"

namespace manet::net {

class Node;

class Agent {
 public:
  virtual ~Agent() = default;

  /// Called once when the node is wired into the network, before any beacon.
  virtual void on_attach(Node& /*node*/) {}

  /// Called when the node crashes (fail()): protocol state must return to
  /// its boot configuration, as a real reboot would lose it.
  virtual void on_reset(Node& /*node*/) {}

  /// Called every broadcast interval, after the node purged stale neighbors
  /// and immediately before its Hello goes out: fill in the advertisement
  /// (weight, role, clusterhead). This is where MOBIC computes M and runs
  /// its clustering decision (§3.2 sequencing).
  virtual void on_beacon(Node& node, HelloPacket& out) = 0;

  /// Called for every successfully received Hello after the neighbor table
  /// was updated.
  virtual void on_hello(Node& /*node*/, const HelloPacket& /*pkt*/,
                        double /*rx_power_w*/) {}

  /// Called for every successfully received protocol Message (broadcast or
  /// unicast addressed to this node).
  virtual void on_message(Node& /*node*/, const Message& /*msg*/) {}
};

}  // namespace manet::net
