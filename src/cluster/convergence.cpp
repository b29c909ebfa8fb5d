#include "cluster/convergence.h"

#include <utility>

#include "util/assert.h"

namespace manet::cluster {

ConvergenceMonitor::ConvergenceMonitor(
    sim::Simulator& sim, net::Network& network,
    std::vector<const WeightedClusterAgent*> agents)
    : sim_(sim), network_(network), agents_(std::move(agents)) {
  MANET_CHECK(agents_.size() == network_.size(),
              "agents/nodes size mismatch: " << agents_.size() << " vs "
                                             << network_.size());
}

void ConvergenceMonitor::start(sim::Time first_at, sim::Time period,
                               sim::Time until) {
  MANET_CHECK(period > 0.0, "sample period " << period);
  MANET_CHECK(until >= first_at,
              "sampling window [" << first_at << ", " << until << "]");
  period_ = period;
  until_ = until;
  sim_.schedule_at(first_at, [this] { sample(); });
}

void ConvergenceMonitor::note_fault(sim::Time t) {
  ++summary_.faults_observed;
  // Faults landing inside an open disruption extend it rather than opening
  // a second one: recovery is measured from the earliest unhealed fault.
  if (!disrupted_) {
    disrupted_ = true;
    disrupted_since_ = t;
  }
}

void ConvergenceMonitor::sample() {
  const sim::Time t = sim_.now();
  const ValidationReport report =
      validate_clusters(network_, agents_, t, scratch_);

  ++summary_.samples;
  if (!report.clean()) {
    ++summary_.violation_samples;
  }
  if (sampled_once_) {
    // Right-Riemann integral of the orphan count: each sample's value is
    // charged for the interval that ended at it.
    summary_.orphaned_member_seconds +=
        static_cast<double>(report.members_of_non_head) * (t - last_sample_);
  }
  last_sample_ = t;
  sampled_once_ = true;

  if (disrupted_ && report.clean()) {
    summary_.recovery.add(t - disrupted_since_);
    disrupted_ = false;
  }

  if (t + period_ <= until_) {
    sim_.schedule_in(period_, [this] { sample(); });
  }
}

ConvergenceMonitor::Summary ConvergenceMonitor::finish(sim::Time /*t_end*/) {
  if (disrupted_) {
    ++summary_.unrecovered_disruptions;
    disrupted_ = false;
  }
  return summary_;
}

}  // namespace manet::cluster
