// Builds a fleet of per-node mobility models from a scenario description.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mobility/gauss_markov.h"
#include "mobility/highway.h"
#include "mobility/manhattan.h"
#include "mobility/mobility_model.h"
#include "mobility/random_walk.h"
#include "mobility/random_waypoint.h"
#include "mobility/rpgm.h"
#include "util/rng.h"

namespace manet::mobility {

enum class ModelKind {
  kStatic,
  kRandomWaypoint,
  kRandomWalk,
  kRandomDirection,
  kGaussMarkov,
  kRpgm,
  kHighway,
  kManhattan,
};

std::string_view model_kind_name(ModelKind kind);
/// Parses "static" / "rwp" / "random_waypoint" / "walk" / "direction" /
/// "gauss_markov" / "rpgm" / "highway" / "manhattan". Throws CheckError on
/// unknown names.
ModelKind parse_model_kind(std::string_view name);

/// Everything any of the supported models needs; unused members are ignored
/// by other kinds.
struct FleetParams {
  ModelKind kind = ModelKind::kRandomWaypoint;
  geom::Rect field{670.0, 670.0};
  double duration = 900.0;  // needed by RPGM (center track horizon)
  double max_speed = 20.0;
  double min_speed = 0.1;
  double pause_time = 0.0;
  // Walk / Gauss-Markov specifics.
  double walk_epoch = 10.0;
  double gm_alpha = 0.85;
  double gm_sigma = 3.0;
  // RPGM specifics.
  std::size_t rpgm_group_size = 10;
  double rpgm_offset_radius = 30.0;
  double rpgm_offset_speed = 1.0;
  // Highway specifics.
  HighwayParams highway{};
  // Manhattan specifics (manhattan.field is kept in sync with `field`).
  ManhattanParams manhattan{};
};

/// Creates `n` models. For RPGM the fleet is split into ceil(n/group_size)
/// groups. `rng` should be the run's "mobility" substream.
std::vector<std::unique_ptr<MobilityModel>> make_fleet(
    const FleetParams& params, std::size_t n, const util::Rng& rng);

/// Field to use for channel setup: the params' field, except for highway
/// fleets whose geometry is derived from the highway itself.
geom::Rect fleet_field(const FleetParams& params);

}  // namespace manet::mobility
