#include "mobility/factory.h"

#include "util/assert.h"
#include "util/strings.h"

namespace manet::mobility {

std::string_view model_kind_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::kStatic:
      return "static";
    case ModelKind::kRandomWaypoint:
      return "random_waypoint";
    case ModelKind::kRandomWalk:
      return "random_walk";
    case ModelKind::kRandomDirection:
      return "random_direction";
    case ModelKind::kGaussMarkov:
      return "gauss_markov";
    case ModelKind::kRpgm:
      return "rpgm";
    case ModelKind::kHighway:
      return "highway";
    case ModelKind::kManhattan:
      return "manhattan";
  }
  return "?";
}

ModelKind parse_model_kind(std::string_view name) {
  const std::string n = util::to_lower(name);
  if (n == "static") return ModelKind::kStatic;
  if (n == "rwp" || n == "random_waypoint" || n == "waypoint")
    return ModelKind::kRandomWaypoint;
  if (n == "walk" || n == "random_walk") return ModelKind::kRandomWalk;
  if (n == "direction" || n == "random_direction")
    return ModelKind::kRandomDirection;
  if (n == "gauss_markov" || n == "gm") return ModelKind::kGaussMarkov;
  if (n == "rpgm" || n == "group") return ModelKind::kRpgm;
  if (n == "highway") return ModelKind::kHighway;
  if (n == "manhattan" || n == "grid") return ModelKind::kManhattan;
  MANET_CHECK(false, "unknown mobility model: " << name);
  return ModelKind::kStatic;  // unreachable
}

std::vector<std::unique_ptr<MobilityModel>> make_fleet(
    const FleetParams& params, std::size_t n, const util::Rng& rng) {
  MANET_CHECK(n > 0, "empty fleet");
  std::vector<std::unique_ptr<MobilityModel>> fleet;
  fleet.reserve(n);
  switch (params.kind) {
    case ModelKind::kStatic: {
      util::Rng r = rng.substream("static");
      for (std::size_t i = 0; i < n; ++i) {
        fleet.push_back(
            std::make_unique<StaticModel>(params.field.sample(r)));
      }
      break;
    }
    case ModelKind::kRandomWaypoint: {
      const RandomWaypointParams p{params.field, params.max_speed,
                                   params.min_speed, params.pause_time};
      for (std::size_t i = 0; i < n; ++i) {
        fleet.push_back(std::make_unique<RandomWaypoint>(
            p, rng.substream("rwp", i)));
      }
      break;
    }
    case ModelKind::kRandomWalk: {
      const RandomWalkParams p{params.field, params.min_speed,
                               params.max_speed, params.walk_epoch};
      for (std::size_t i = 0; i < n; ++i) {
        fleet.push_back(
            std::make_unique<RandomWalk>(p, rng.substream("walk", i)));
      }
      break;
    }
    case ModelKind::kRandomDirection: {
      const RandomDirectionParams p{params.field, params.min_speed,
                                    params.max_speed, params.pause_time};
      for (std::size_t i = 0; i < n; ++i) {
        fleet.push_back(std::make_unique<RandomDirection>(
            p, rng.substream("dir", i)));
      }
      break;
    }
    case ModelKind::kGaussMarkov: {
      const GaussMarkovParams p{params.field, params.max_speed,
                                params.gm_alpha, params.gm_sigma, 1.0};
      for (std::size_t i = 0; i < n; ++i) {
        fleet.push_back(
            std::make_unique<GaussMarkov>(p, rng.substream("gm", i)));
      }
      break;
    }
    case ModelKind::kRpgm: {
      MANET_CHECK(params.rpgm_group_size > 0);
      RpgmParams p;
      p.field = params.field;
      p.duration = params.duration;
      p.center_max_speed = params.max_speed;
      p.center_min_speed = params.min_speed;
      p.center_pause = params.pause_time;
      p.offset_radius = params.rpgm_offset_radius;
      p.offset_speed = params.rpgm_offset_speed;
      std::size_t remaining = n;
      std::size_t group_idx = 0;
      while (remaining > 0) {
        const std::size_t size = std::min(remaining, params.rpgm_group_size);
        auto members =
            make_rpgm_group(p, size, rng.substream("rpgm", group_idx++));
        for (auto& m : members) {
          fleet.push_back(std::move(m));
        }
        remaining -= size;
      }
      break;
    }
    case ModelKind::kHighway: {
      fleet = make_highway(params.highway, n, rng.substream("highway"));
      break;
    }
    case ModelKind::kManhattan: {
      ManhattanParams p = params.manhattan;
      p.field = params.field;
      p.min_speed = params.min_speed;
      p.max_speed = params.max_speed;
      for (std::size_t i = 0; i < n; ++i) {
        fleet.push_back(
            std::make_unique<Manhattan>(p, rng.substream("manhattan", i)));
      }
      break;
    }
  }
  MANET_ASSERT(fleet.size() == n);
  return fleet;
}

geom::Rect fleet_field(const FleetParams& params) {
  if (params.kind == ModelKind::kHighway) {
    return highway_field(params.highway);
  }
  return params.field;
}

}  // namespace manet::mobility
