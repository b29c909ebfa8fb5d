// Convergence monitoring for fault-injection runs: samples the Theorem-1
// validators on a fixed period and turns the resulting clean/disrupted
// signal into recovery-time and orphaned-member statistics. A "disruption"
// opens at the first fault observed while the clustering is clean and
// closes at the first clean sample afterwards; the elapsed time is the
// time-to-reconverge the resilience benchmark reports.
#pragma once

#include <vector>

#include "cluster/agent.h"
#include "cluster/validation.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace manet::cluster {

class ConvergenceMonitor {
 public:
  struct Summary {
    /// Faults reported via note_fault().
    std::size_t faults_observed = 0;
    /// Validation samples taken, and how many were not clean.
    std::size_t samples = 0;
    std::size_t violation_samples = 0;
    /// Integral over time of "alive members affiliated with a head that is
    /// dead or no longer a head" — member-seconds spent orphaned.
    double orphaned_member_seconds = 0.0;
    /// Per-disruption time from first fault to first clean sample.
    util::RunningStats recovery;
    /// Disruptions still open when the run ended.
    std::size_t unrecovered_disruptions = 0;
  };

  /// `agents[i]` must correspond to node i of `network`; both must outlive
  /// the monitor.
  ConvergenceMonitor(sim::Simulator& sim, net::Network& network,
                     std::vector<const WeightedClusterAgent*> agents);

  /// Schedules periodic validation samples over [first_at, until].
  void start(sim::Time first_at, sim::Time period, sim::Time until);

  /// Records a fault at time `t`. Opens a disruption window unless one is
  /// already open.
  void note_fault(sim::Time t);

  /// Closes the run at `t_end`: open disruptions are counted as
  /// unrecovered. Idempotent per run.
  Summary finish(sim::Time t_end);

  const Summary& summary() const { return summary_; }

 private:
  void sample();

  sim::Simulator& sim_;
  net::Network& network_;
  std::vector<const WeightedClusterAgent*> agents_;
  /// Reused ground-truth adjacency buffers: after the first sample warms
  /// their capacity, the periodic validation path stays allocation-free
  /// (tests/test_zero_alloc.cpp pins this).
  net::Network::AdjacencyScratch scratch_;

  Summary summary_;
  sim::Time period_ = 0.0;
  sim::Time until_ = 0.0;
  bool disrupted_ = false;
  sim::Time disrupted_since_ = 0.0;
  sim::Time last_sample_ = 0.0;
  bool sampled_once_ = false;
};

}  // namespace manet::cluster
