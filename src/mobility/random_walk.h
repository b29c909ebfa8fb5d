// Random Walk and Random Direction models (standard MANET baselines; used by
// robustness tests and the scenario-characterization bench).
//
// Random Walk: pick a uniform heading and speed, walk for `epoch` seconds,
// reflecting off the field boundary, then redraw.
//
// Random Direction: walk to the boundary, pause, redraw heading inward.
#pragma once

#include "mobility/mobility_model.h"
#include "util/rng.h"

namespace manet::mobility {

struct RandomWalkParams {
  geom::Rect field;
  double min_speed = 0.1;  // m/s
  double max_speed = 20.0;
  double epoch = 10.0;     // s per heading
};

class RandomWalk final : public LegBasedModel {
 public:
  RandomWalk(const RandomWalkParams& params, util::Rng rng);

 protected:
  Leg next_leg(const Leg& prev) override;

 private:
  /// Builds one straight leg from `from` lasting up to the epoch remainder,
  /// truncated at the first boundary hit (where the heading reflects).
  Leg make_leg(sim::Time t_begin, geom::Vec2 from);

  RandomWalkParams params_;
  util::Rng rng_;
  geom::Vec2 dir_;          // unit heading
  double speed_ = 0.0;      // m/s
  double epoch_left_ = 0.0; // s remaining on the current heading
};

struct RandomDirectionParams {
  geom::Rect field;
  double min_speed = 0.1;
  double max_speed = 20.0;
  double pause_time = 0.0;  // pause at the boundary
};

class RandomDirection final : public LegBasedModel {
 public:
  RandomDirection(const RandomDirectionParams& params, util::Rng rng);

 protected:
  Leg next_leg(const Leg& prev) override;

 private:
  Leg travel_to_boundary(sim::Time t_begin, geom::Vec2 from);

  RandomDirectionParams params_;
  util::Rng rng_;
  bool last_was_travel_ = false;
};

}  // namespace manet::mobility
