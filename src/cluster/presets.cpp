#include "cluster/presets.h"

#include <cstdlib>

#include "util/assert.h"
#include "util/strings.h"

namespace manet::cluster {

ClusterOptions mobic_options(ClusterEventSink* sink, double cci) {
  ClusterOptions o;
  o.kind = WeightKind::kMobility;
  o.lcc = true;
  o.cci = cci;
  o.sink = sink;
  return o;
}

ClusterOptions lowest_id_lcc_options(ClusterEventSink* sink) {
  ClusterOptions o;
  o.kind = WeightKind::kLowestId;
  o.lcc = true;
  o.cci = 0.0;  // LCC resolves clusterhead contacts immediately
  o.sink = sink;
  return o;
}

ClusterOptions lowest_id_plain_options(ClusterEventSink* sink) {
  ClusterOptions o;
  o.kind = WeightKind::kLowestId;
  o.lcc = false;
  o.cci = 0.0;
  o.sink = sink;
  return o;
}

ClusterOptions max_connectivity_options(ClusterEventSink* sink) {
  ClusterOptions o;
  o.kind = WeightKind::kMaxConnectivity;
  o.lcc = true;
  o.cci = 0.0;
  o.sink = sink;
  return o;
}

ClusterOptions dca_options(double weight, ClusterEventSink* sink) {
  ClusterOptions o;
  o.kind = WeightKind::kStaticWeight;
  o.static_weight = weight;
  o.lcc = true;
  o.cci = 0.0;
  o.sink = sink;
  return o;
}

ClusterOptions mobic_history_options(double ewma_alpha,
                                     ClusterEventSink* sink, double cci) {
  ClusterOptions o = mobic_options(sink, cci);
  o.mobility.ewma_alpha = ewma_alpha;
  return o;
}

ClusterOptions combined_options(double mobility_weight, double degree_weight,
                                double ideal_degree,
                                ClusterEventSink* sink) {
  ClusterOptions o = mobic_options(sink);
  o.kind = WeightKind::kCombined;
  o.combined_mobility_weight = mobility_weight;
  o.combined_degree_weight = degree_weight;
  o.combined_ideal_degree = ideal_degree;
  return o;
}

ClusterOptions cci_options(ClusterEventSink* sink) {
  ClusterOptions o = mobic_options(sink);
  o.kind = WeightKind::kCci;
  return o;
}

ClusterOptions sd_dwca_options(ClusterEventSink* sink) {
  ClusterOptions o = mobic_options(sink);
  o.kind = WeightKind::kSdDwca;
  return o;
}

ClusterOptions options_by_name(std::string_view name,
                               ClusterEventSink* sink) {
  const std::string n = util::to_lower(name);
  if (n == "mobic") {
    return mobic_options(sink);
  }
  if (n == "lowest_id" || n == "lowest_id_lcc" || n == "lcc") {
    return lowest_id_lcc_options(sink);
  }
  if (n == "lowest_id_plain" || n == "plain") {
    return lowest_id_plain_options(sink);
  }
  if (n == "max_connectivity" || n == "max_conn" || n == "degree") {
    return max_connectivity_options(sink);
  }
  if (n == "combined" || n == "wca") {
    return combined_options(1.0, 1.0, 8.0, sink);
  }
  if (n == "cci") {
    return cci_options(sink);
  }
  if (n == "sd_dwca" || n == "sddwca") {
    return sd_dwca_options(sink);
  }
  if (util::starts_with(n, "mobic_history:")) {
    const std::string alpha_str = n.substr(std::string("mobic_history:").size());
    char* end = nullptr;
    const double alpha = std::strtod(alpha_str.c_str(), &end);
    MANET_CHECK(end == alpha_str.c_str() + alpha_str.size() && alpha > 0.0 &&
                    alpha <= 1.0,
                "bad history alpha in '" << name << "'");
    return mobic_history_options(alpha, sink);
  }
  MANET_CHECK(false, "unknown clustering algorithm: " << name);
  return {};  // unreachable
}

}  // namespace manet::cluster
