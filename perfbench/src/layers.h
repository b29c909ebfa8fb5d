// The traced run's per-layer metrics. Counts come from the workload's
// RunResults and obs::Snapshots; times come from replaying the workload's
// representative cell through each module's public entry points
// (make_fleet/position, GridIndex, Medium, NeighborTable,
// AggregateMobilityEstimator, validate_clusters, fault::make_schedule,
// sim::Simulator, ResultCache and the cell codec), timed from here.
#pragma once

#include <vector>

#include "report.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

/// `rep` is a traced rep of `workload`; `trace_overhead_ratio` is its
/// traced over untraced wall time. Replay spans go to `tracer`.
std::vector<Metric> measure_layers(const Workload& workload,
                                   const Config& config, const Rep& rep,
                                   double trace_overhead_ratio,
                                   Tracer& tracer);

}  // namespace perfbench
