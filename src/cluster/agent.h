// The distributed 2-hop clustering engine (paper §3.2), parameterized by a
// totally ordered weight:
//
//   * WeightKind::kMobility + lcc + cci>0  ->  MOBIC (the paper)
//   * WeightKind::kLowestId + lcc + cci=0  ->  Lowest-ID, LCC variant [3]
//       (the baseline in every figure)
//   * WeightKind::kLowestId + !lcc          ->  original Lowest-ID [4, 5]
//   * WeightKind::kMaxConnectivity + lcc    ->  highest-degree baseline [5]
//   * WeightKind::kStaticWeight + lcc       ->  DCA-style generic weights [2]
//
// Execution model: once per broadcast interval, immediately before the Hello
// goes out, the node (1) refreshes its aggregate mobility metric from the
// received-power pairs in its neighbor table, (2) runs the clustering
// decision against its neighbors' advertised states, and (3) stamps
// {M, role, clusterhead} into the outgoing Hello — the sequencing of §3.2.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/events.h"
#include "cluster/types.h"
#include "cluster/weight.h"
#include "metrics/aggregate_mobility.h"
#include "net/agent.h"
#include "net/node.h"
#include "obs/hooks.h"

namespace manet::net {
class EnergyModel;
}

namespace manet::cluster {

struct ClusterOptions {
  WeightKind kind = WeightKind::kMobility;

  /// Least-Clusterhead-Change member rule [3]: a member that wanders into a
  /// better clusterhead's range does NOT trigger reclustering; only
  /// clusterhead-vs-clusterhead contact does. Disable for the original
  /// eager Lowest-ID.
  bool lcc = true;

  /// Cluster Contention Interval (seconds): how long two clusterheads must
  /// stay in range before the contest is resolved (paper: 4.0 s; MOBIC
  /// only — use 0 for immediate resolution as in Lowest-ID LCC).
  double cci = 4.0;

  /// Weight for WeightKind::kStaticWeight.
  double static_weight = 0.0;

  /// WeightKind::kCombined (WCA-style, generalizing DCA [2] with the
  /// paper's metric): metric = combined_mobility_weight * M +
  /// combined_degree_weight * |degree - combined_ideal_degree|.
  /// Prefers calm nodes that can serve about `ideal_degree` members.
  double combined_mobility_weight = 1.0;
  double combined_degree_weight = 1.0;
  double combined_ideal_degree = 8.0;

  /// Composite kinds (kCci, kSdDwca): half-utility reference of the
  /// saturating mobility transform u(M) = M / (M + ref) — the M value that
  /// maps to utility 0.5.
  double composite_mobility_ref = 10.0;
  /// kSdDwca: weight of the residual-energy deficit term (1 - E/E0).
  double composite_energy_weight = 1.0;
  /// kSdDwca residual-energy source (not owned; may be nullptr, meaning
  /// every node reads a full battery). scenario::run_scenario wires the
  /// run's EnergyModel in when the scenario enables energy.
  const net::EnergyModel* energy = nullptr;

  /// Aggregate-mobility estimator settings (WeightKind::kMobility).
  metrics::AggregateMobilityConfig mobility{};

  /// Event observer (not owned; may be nullptr).
  ClusterEventSink* sink = nullptr;

  /// Agent-internal observability (not owned; may be nullptr). When set,
  /// the counter fields must all be resolved; `obs->trace` may still be
  /// null (counters without spans).
  const obs::AgentHooks* obs = nullptr;

  /// §5 extension: scale the beacon interval with local mobility — mobile
  /// neighborhoods beacon faster, static ones slower.
  bool adaptive_bi = false;
  double adaptive_bi_min = 1.0;   // s
  double adaptive_bi_max = 4.0;   // s
  double adaptive_bi_ref = 10.0;  // M value mapping to the geometric mean
};

class WeightedClusterAgent final : public net::Agent {
 public:
  explicit WeightedClusterAgent(const ClusterOptions& options);

  // Protocol state (read by stats samplers, validators, routing).
  Role role() const { return role_; }
  /// This node's clusterhead: itself when head, kInvalidNode when undecided.
  net::NodeId cluster_head() const { return head_; }
  /// True if the last decision round saw >= 2 clusterheads in range while
  /// this node is a member.
  bool is_gateway() const { return gateway_; }
  /// Current metric value (M for MOBIC; 0 / -degree / static otherwise;
  /// the primary utility component for the composite kinds).
  double metric() const { return metric_; }
  /// The full comparison weight of this node: {metric, id} for the scalar
  /// kinds, the metric plus the extra utility components for kCci/kSdDwca.
  Weight weight() const {
    Weight w{metric_, self_};
    for (std::uint8_t i = 0; i < extra_count_; ++i) {
      w.push(extra_[i]);
    }
    return w;
  }

  std::uint64_t decisions() const { return decisions_; }

  // net::Agent interface.
  void on_attach(net::Node& node) override;
  void on_reset(net::Node& node) override;
  void on_beacon(net::Node& node, net::HelloPacket& out) override;

 private:
  Weight neighbor_weight(const net::NeighborEntry& e) const;
  void refresh_metric(net::Node& node);
  void decide(net::Node& node);
  void decide_plain(net::Node& node,
                    const std::vector<net::NeighborEntry>& entries);

  /// Returns the lowest-weight neighbor currently advertising Head, or
  /// nullptr.
  const net::NeighborEntry* best_head(
      const std::vector<net::NeighborEntry>& entries) const;

  // State transitions; emit sink events when state actually changes.
  void become_head(sim::Time t);
  void become_member(sim::Time t, net::NodeId head);
  void become_undecided(sim::Time t);
  void set_state(sim::Time t, Role role, net::NodeId head);

  void maybe_adapt_beacon(net::Node& node);

  ClusterOptions options_;
  net::NodeId self_ = net::kInvalidNode;
  Role role_ = Role::kUndecided;
  net::NodeId head_ = net::kInvalidNode;
  bool gateway_ = false;
  double metric_ = 0.0;
  /// Extra advertised utility components (composite kinds; count 0 for the
  /// scalar kinds, keeping their Hellos and weights bit-identical).
  std::array<double, net::HelloPacket::kMaxExtraWeights> extra_{};
  std::uint8_t extra_count_ = 0;
  metrics::AggregateMobilityEstimator estimator_;
  /// Scratch for the Pareto-prefiltered composite head election; reserved
  /// at attach so steady-state elections stay off the allocator.
  mutable std::vector<const net::NeighborEntry*> head_scratch_;
  mutable std::vector<Weight> weight_scratch_;
  mutable std::vector<std::uint8_t> frontier_scratch_;
  /// Head-vs-head contention: {contender id, first continuous contact time},
  /// ascending by id so every walk over the rivals is hash-order-free (a
  /// handful of entries at most; flat storage also keeps the hot loop out of
  /// node-per-insert allocation).
  std::vector<std::pair<net::NodeId, sim::Time>> contention_;
  std::uint64_t decisions_ = 0;
  /// Rounds spent waiting on a lower-weight undecided neighbor; bounded by
  /// kUndecidedStallRounds so dynamic weights cannot starve the election.
  std::uint32_t undecided_rounds_ = 0;
  static constexpr std::uint32_t kUndecidedStallRounds = 8;
};

}  // namespace manet::cluster
