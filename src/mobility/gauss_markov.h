// Gauss–Markov mobility: velocity evolves as a discretized
// Ornstein–Uhlenbeck process, giving temporally correlated motion — smoother
// than random walk, used in robustness ablations.
//
//   v[n+1] = a * v[n] + (1 - a) * v_mean + sigma * sqrt(1 - a^2) * w[n]
//
// per axis, with reflection at the field boundary (the mean heading flips
// with the bounce so nodes do not hug walls).
#pragma once

#include "mobility/mobility_model.h"
#include "util/rng.h"

namespace manet::mobility {

struct GaussMarkovParams {
  geom::Rect field;
  double mean_speed = 10.0;   // m/s; magnitude of the long-run velocity
  double alpha = 0.85;        // memory in [0, 1): 0 = IID, ->1 = straight line
  double sigma = 3.0;         // m/s; randomness scale
  double step = 1.0;          // s between velocity updates
};

class GaussMarkov final : public LegBasedModel {
 public:
  GaussMarkov(const GaussMarkovParams& params, util::Rng rng);

 protected:
  Leg next_leg(const Leg& prev) override;

 private:
  Leg step_leg(sim::Time t_begin, geom::Vec2 from);

  GaussMarkovParams params_;
  util::Rng rng_;
  geom::Vec2 v_;       // current velocity
  geom::Vec2 v_mean_;  // long-run mean velocity (heading flips on bounce)
};

}  // namespace manet::mobility
