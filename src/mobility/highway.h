// Highway mobility — the paper's §5 "cars traveling on a highway" scenario.
//
// A straight multi-lane road along the x axis. Each vehicle keeps its lane
// (fixed y), drives in the lane's direction with a per-vehicle cruise speed
// plus a slowly varying Gauss–Markov perturbation, and on reaching the end
// of the road segment re-enters at the opposite end (modelling a fresh
// vehicle arriving; the segment is much longer than radio range so the jump
// is out of range of its old neighbors).
//
// Vehicles in nearby same-direction lanes have low relative mobility
// (a convoy); opposite-direction lanes have very high relative mobility.
#pragma once

#include <memory>
#include <vector>

#include "mobility/mobility_model.h"
#include "util/rng.h"

namespace manet::mobility {

struct HighwayParams {
  double length = 2000.0;      // m; road segment
  double lane_width = 5.0;     // m between lane centers
  int lanes_per_direction = 2; // total lanes = 2 * this
  double mean_speed = 25.0;    // m/s cruise speed (~90 km/h)
  double speed_stddev = 3.0;   // m/s across vehicles
  double jitter_sigma = 1.0;   // m/s within-vehicle speed wander
  double jitter_alpha = 0.9;   // Gauss-Markov memory for the wander
  double update_step = 1.0;    // s between speed updates
};

class HighwayVehicle final : public LegBasedModel {
 public:
  /// `lane` in [0, 2*lanes_per_direction); lanes below lanes_per_direction
  /// drive in +x, the rest in -x.
  HighwayVehicle(const HighwayParams& params, int lane, util::Rng rng);

  int lane() const { return lane_; }
  /// +1 or -1 (direction of travel along x).
  int direction() const { return dir_; }
  double lane_y() const { return lane_y_; }

  /// Re-entry moves the vehicle the length of the road in one instant.
  double max_jump_m() const override { return params_.length; }

 protected:
  Leg next_leg(const Leg& prev) override;

 private:
  Leg step_leg(sim::Time t_begin, double x);

  HighwayParams params_;
  int lane_;
  int dir_;
  double lane_y_;
  util::Rng rng_;
  double cruise_;   // per-vehicle cruise speed
  double jitter_ = 0.0;  // Gauss-Markov speed perturbation
};

/// Builds `n` vehicles round-robin across lanes.
std::vector<std::unique_ptr<MobilityModel>> make_highway(
    const HighwayParams& params, std::size_t n, util::Rng rng);

/// Field rectangle that encloses the highway (for channel grid sizing).
geom::Rect highway_field(const HighwayParams& params);

}  // namespace manet::mobility
