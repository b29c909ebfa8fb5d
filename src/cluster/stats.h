// Cluster stability accounting.
//
// ClusterStats implements the paper's stability metric CS — "the number of
// clusterhead changes in a given time period" (§4.1) — counted as every
// transition of a node into or out of Cluster_Head state after an optional
// warm-up window (the initial election is excluded by a warm-up of a few
// broadcast intervals). It also tracks reaffiliations (a member switching
// clusterheads) and clusterhead reign lifetimes.
//
// ClusterSampler periodically snapshots the role distribution (number of
// clusters = number of clusterheads, gateways, undecided count, cluster
// sizes) — the quantity behind the paper's Figure 4.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "cluster/agent.h"
#include "cluster/events.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace manet::cluster {

class ClusterStats final : public ClusterEventSink {
 public:
  /// Events before `warmup` seconds are ignored (initial election).
  explicit ClusterStats(double warmup = 0.0);

  void on_role_change(sim::Time t, net::NodeId node, Role old_role,
                      Role new_role) override;
  void on_affiliation_change(sim::Time t, net::NodeId node,
                             net::NodeId old_head,
                             net::NodeId new_head) override;

  /// Closes open clusterhead reigns at simulation end (censored lifetimes).
  void finish(sim::Time end);

  /// CS: clusterhead changes (gains + losses) after warm-up.
  std::uint64_t clusterhead_changes() const {
    return head_gains_ + head_losses_;
  }
  std::uint64_t head_gains() const { return head_gains_; }
  std::uint64_t head_losses() const { return head_losses_; }
  /// Members that moved between clusters (both ends valid, neither self).
  std::uint64_t reaffiliations() const { return reaffiliations_; }
  std::uint64_t role_changes() const { return role_changes_; }

  /// Reign duration of clusterheads (seconds), including censored reigns
  /// closed by finish().
  const util::RunningStats& head_lifetimes() const { return head_lifetimes_; }

  /// Cumulative clusterhead tenure per node (seconds served as head across
  /// all reigns, censored ones folded in by finish()), ascending by node
  /// id. Only nodes that ever served appear. The tenure-fairness metric
  /// (Jain's index in RunResult::head_tenure_fairness) is computed from
  /// this.
  const std::vector<std::pair<net::NodeId, double>>& head_tenure() const {
    return head_tenure_;
  }

  /// Pre-sizes the per-node bookkeeping so mid-run reign/tenure inserts
  /// never reallocate (part of the steady-state zero-allocation contract).
  void reserve_nodes(std::size_t n) {
    reign_since_.reserve(n);
    head_tenure_.reserve(n);
  }

  double warmup() const { return warmup_; }

 private:
  double warmup_;
  std::uint64_t head_gains_ = 0;
  std::uint64_t head_losses_ = 0;
  std::uint64_t reaffiliations_ = 0;
  std::uint64_t role_changes_ = 0;
  util::RunningStats head_lifetimes_;
  /// Open clusterhead reigns: {node, reign start}, ascending by node id so
  /// finish() feeds censored lifetimes into the Welford accumulator in a
  /// hash-order-free, reproducible order.
  std::vector<std::pair<net::NodeId, sim::Time>> reign_since_;
  /// Cumulative head tenure per node, ascending by node id (see
  /// head_tenure()).
  std::vector<std::pair<net::NodeId, double>> head_tenure_;
  bool finished_ = false;

  void add_tenure(net::NodeId node, double seconds);
};

/// Periodic role-distribution sampler driven by the simulator.
class ClusterSampler {
 public:
  /// `agents[i]` must correspond to node i and outlive the sampler.
  ClusterSampler(sim::Simulator& sim,
                 std::vector<const WeightedClusterAgent*> agents);

  /// Samples every `period` seconds in [first_at, until].
  void start(sim::Time first_at, sim::Time period, sim::Time until);

  /// Takes one sample immediately (also usable standalone in tests).
  void sample_now();

  std::size_t samples() const { return num_clusters_.count(); }
  /// Number of clusters (= clusterheads) per sample.
  const util::RunningStats& num_clusters() const { return num_clusters_; }
  const util::RunningStats& num_gateways() const { return num_gateways_; }
  const util::RunningStats& num_undecided() const { return num_undecided_; }
  /// Members per cluster (head itself included), per (cluster, sample).
  const util::RunningStats& cluster_sizes() const { return cluster_sizes_; }

 private:
  void tick();

  sim::Simulator& sim_;
  std::vector<const WeightedClusterAgent*> agents_;
  sim::Time period_ = 0.0;
  sim::Time until_ = 0.0;
  util::RunningStats num_clusters_;
  util::RunningStats num_gateways_;
  util::RunningStats num_undecided_;
  util::RunningStats cluster_sizes_;
  /// Per-sample member counts indexed by clusterhead id: the sweep that
  /// feeds cluster_sizes_ runs in ascending head order (no hash order), and
  /// the buffer is reused so sampling stays allocation-free after the first
  /// tick.
  std::vector<std::size_t> sizes_scratch_;
};

}  // namespace manet::cluster
