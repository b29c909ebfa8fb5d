// CBRP-style on-demand source routing over the cluster structure — the
// paper's first future-work item ("integrate the mobility metric with a
// cluster based routing protocol", §5; CBRP [10] is the protocol the paper
// names as the natural host).
//
// Packet-level behaviour on the simulated medium:
//   * RREQ — broadcast flood restricted to the cluster overlay: only
//     clusterheads and gateways rebroadcast (ordinary members receive but
//     stay silent); the traversed path is recorded in the packet.
//   * RREP — unicast hop-by-hop back along the recorded path.
//   * DATA — source-routed unicast forwarding along the cached route.
//   * RERR — on a broken data hop, unicast back to the origin, which
//     invalidates its route cache; the next send re-discovers.
//
// Each node runs a CbrpAgent which *wraps* the clustering agent: Hello
// processing and role decisions are delegated, so the routing overlay is
// exactly the structure MOBIC (or Lowest-ID) maintains underneath.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>

#include "cluster/agent.h"
#include "net/agent.h"
#include "net/node.h"
#include "util/stats.h"

namespace manet::routing {

/// Shared measurement sink for a fleet of CbrpAgents.
struct CbrpStats {
  std::uint64_t rreq_tx = 0;   // RREQ (re)broadcasts
  std::uint64_t rrep_tx = 0;   // RREP unicast hops
  std::uint64_t data_tx = 0;   // DATA unicast hops attempted
  std::uint64_t rerr_tx = 0;   // RERR unicast hops
  std::uint64_t discoveries_started = 0;
  std::uint64_t discoveries_succeeded = 0;
  std::uint64_t data_sent = 0;       // application sends accepted
  std::uint64_t data_delivered = 0;  // reached the final destination
  std::uint64_t data_dropped = 0;    // lost to a broken hop
  util::RunningStats discovery_latency;  // seconds, successful ones
  util::RunningStats route_hops;         // length of discovered routes

  double delivery_ratio() const {
    return data_sent == 0
               ? 0.0
               : static_cast<double>(data_delivered) /
                     static_cast<double>(data_sent);
  }
  /// Control transmissions per delivered data packet.
  double control_per_delivery() const {
    return data_delivered == 0
               ? 0.0
               : static_cast<double>(rreq_tx + rrep_tx + rerr_tx) /
                     static_cast<double>(data_delivered);
  }
};

struct CbrpOptions {
  cluster::ClusterOptions clustering;  // the underlay configuration
  std::uint32_t max_path_hops = 32;    // RREQ TTL
  double discovery_timeout = 3.0;      // s before a discovery may be retried
  std::size_t pending_queue_limit = 16;  // data buffered per destination
  CbrpStats* stats = nullptr;            // shared, not owned (may be null)
};

class CbrpAgent final : public net::Agent {
 public:
  explicit CbrpAgent(const CbrpOptions& options);

  /// The wrapped clustering protocol (read-only access for samplers).
  const cluster::WeightedClusterAgent& clustering() const {
    return cluster_;
  }

  /// Application-level send: source-routes immediately if a cached route
  /// exists, otherwise buffers the payload and starts a discovery.
  void send_data(net::Node& node, net::NodeId target, std::size_t bytes);

  /// Cached route to `target` (empty if none) — src..target inclusive.
  std::vector<net::NodeId> cached_route(net::NodeId target) const;

  // net::Agent interface.
  void on_attach(net::Node& node) override;
  void on_reset(net::Node& node) override;
  void on_beacon(net::Node& node, net::HelloPacket& out) override;
  void on_hello(net::Node& node, const net::HelloPacket& pkt,
                double rx_power_w) override;
  void on_message(net::Node& node, const net::Message& msg) override;

 private:
  struct Rreq {
    std::uint32_t id = 0;
    net::NodeId origin = net::kInvalidNode;
    net::NodeId target = net::kInvalidNode;
    sim::Time started_at = 0.0;
    std::vector<net::NodeId> path;  // origin .. current holder
  };
  struct Rrep {
    std::uint32_t id = 0;
    sim::Time started_at = 0.0;
    std::vector<net::NodeId> path;  // origin .. target
    std::size_t hop_index = 0;      // position of the current holder
  };
  struct Data {
    std::vector<net::NodeId> path;
    std::size_t hop_index = 0;
    std::size_t bytes = 0;
  };
  struct Rerr {
    std::vector<net::NodeId> path;  // the broken route
    std::size_t hop_index = 0;      // current holder (walking to origin)
    net::NodeId target = net::kInvalidNode;
  };

  enum MessageKind {
    kRreq = 1,
    kRrep = 2,
    kData = 3,
    kRerr = 4,
  };

  void start_discovery(net::Node& node, net::NodeId target);
  void handle_rreq(net::Node& node, const Rreq& rreq);
  void handle_rrep(net::Node& node, const Rrep& rrep);
  void handle_data(net::Node& node, const Data& data);
  void handle_rerr(net::Node& node, const Rerr& rerr);
  /// Forwards DATA one hop; on link failure emits RERR toward the origin.
  void forward_data(net::Node& node, const Data& data);
  void flush_pending(net::Node& node, net::NodeId target);

  static std::size_t control_bytes(std::size_t path_len) {
    return 16 + 4 * path_len;  // headers + recorded route
  }

  CbrpOptions options_;
  cluster::WeightedClusterAgent cluster_;
  net::NodeId self_ = net::kInvalidNode;
  std::uint32_t next_rreq_id_ = 1;
  /// Routes by destination (paths src..dst).
  std::map<net::NodeId, std::vector<net::NodeId>> routes_;
  /// RREQ dedup: (origin, id) pairs already relayed.
  std::set<std::pair<net::NodeId, std::uint32_t>> seen_rreqs_;
  /// Buffered application payloads per destination.
  std::map<net::NodeId, std::deque<std::size_t>> pending_;
  /// In-flight discovery start times per destination.
  std::map<net::NodeId, sim::Time> discovering_;
};

}  // namespace manet::routing
