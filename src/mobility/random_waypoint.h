// Random Waypoint mobility — the model the paper's evaluation uses (ns-2
// `setdest` semantics): start at a uniform point, repeatedly pick a uniform
// destination, travel at a speed drawn uniformly from (0, MaxSpeed], then
// pause for a fixed pause time.
#pragma once

#include "mobility/mobility_model.h"
#include "util/rng.h"

namespace manet::mobility {

struct RandomWaypointParams {
  geom::Rect field;
  double max_speed = 20.0;  // m/s; paper uses {1, 20, 30}
  // setdest draws speed uniformly in (0, max]; a small floor avoids the
  // well-known RWP pathology of nodes crawling for the whole run.
  double min_speed = 0.1;   // m/s
  double pause_time = 0.0;  // s; paper uses {0, 30}
};

class RandomWaypoint final : public LegBasedModel {
 public:
  /// `rng` must be a dedicated substream for this node.
  RandomWaypoint(const RandomWaypointParams& params, util::Rng rng);

  /// Initial (uniformly drawn) position, for tests.
  geom::Vec2 initial_position() const { return initial_; }

 protected:
  Leg next_leg(const Leg& prev) override;

 private:
  Leg travel_leg(sim::Time t_begin, geom::Vec2 from);

  RandomWaypointParams params_;
  util::Rng rng_;
  geom::Vec2 initial_;
  bool last_was_travel_ = false;
};

}  // namespace manet::mobility
