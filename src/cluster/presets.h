// Ready-made ClusterOptions for every algorithm the paper discusses, using
// the Table-1 timing constants. These are the configurations the benches and
// examples instantiate.
#pragma once

#include "cluster/agent.h"

namespace manet::cluster {

/// MOBIC (the paper): mobility weight, LCC member rule, CCI deferral.
ClusterOptions mobic_options(ClusterEventSink* sink = nullptr,
                             double cci = 4.0);

/// Lowest-ID with the LCC rule [3] — the paper's comparison baseline.
ClusterOptions lowest_id_lcc_options(ClusterEventSink* sink = nullptr);

/// Original (eager) Lowest-ID [4, 5] — pre-LCC behaviour, ablation A3.
ClusterOptions lowest_id_plain_options(ClusterEventSink* sink = nullptr);

/// Max-Connectivity / highest-degree [5] with LCC damping — ablation A4.
ClusterOptions max_connectivity_options(ClusterEventSink* sink = nullptr);

/// DCA-style clustering on an externally assigned static weight [2].
ClusterOptions dca_options(double weight, ClusterEventSink* sink = nullptr);

/// MOBIC with the §5 EWMA-history extension (alpha < 1 smooths M).
ClusterOptions mobic_history_options(double ewma_alpha,
                                     ClusterEventSink* sink = nullptr,
                                     double cci = 4.0);

/// WCA-style combined weight (extension): blends the paper's mobility
/// metric with a degree-fitness term, showing the DCA framework's
/// generality. Uses MOBIC's LCC + CCI machinery.
ClusterOptions combined_options(double mobility_weight = 1.0,
                                double degree_weight = 1.0,
                                double ideal_degree = 8.0,
                                ClusterEventSink* sink = nullptr);

/// Combined Closeness Index (arXiv:1104.5705): composite lexicographic
/// weight {degree closeness, mobility utility, id} elected through the
/// Pareto-frontier prefilter. Uses MOBIC's LCC + CCI machinery.
ClusterOptions cci_options(ClusterEventSink* sink = nullptr);

/// SD_DWCA (arXiv:1105.5521): stability / degree / residual-energy blend
/// with the energy deficit as the tie-break. The energy source is wired in
/// by the scenario driver (ClusterOptions::energy); without one every node
/// reads a full battery and the energy terms are inert.
ClusterOptions sd_dwca_options(ClusterEventSink* sink = nullptr);

/// Named algorithm lookup for CLI-driven benches: "mobic",
/// "lowest_id" (LCC), "lowest_id_plain", "max_connectivity",
/// "mobic_history:<alpha>", "cci", "sd_dwca".
ClusterOptions options_by_name(std::string_view name,
                               ClusterEventSink* sink = nullptr);

}  // namespace manet::cluster
