// Manhattan-grid mobility: nodes move along the streets of a regular city
// grid, turning at intersections with configurable probability — the urban
// counterpart of the paper's §5 highway scenario (used by later MANET
// evaluation methodology, e.g. the "Manhattan model" of the IETF/UMTS
// evaluation suites).
#pragma once

#include "mobility/mobility_model.h"
#include "util/rng.h"

namespace manet::mobility {

struct ManhattanParams {
  geom::Rect field{600.0, 600.0};
  double block_size = 100.0;   // street spacing, meters
  double min_speed = 5.0;      // m/s
  double max_speed = 15.0;
  double turn_probability = 0.5;  // at each intersection: turn vs continue
  double speed_epoch = 10.0;   // seconds between speed redraws
};

class Manhattan final : public LegBasedModel {
 public:
  Manhattan(const ManhattanParams& params, util::Rng rng);

  /// Number of streets in each direction (for tests).
  int streets_x() const { return streets_x_; }
  int streets_y() const { return streets_y_; }

 protected:
  Leg next_leg(const Leg& prev) override;

 private:
  /// One leg: from the current position to the next intersection (or the
  /// epoch boundary, whichever is nearer).
  Leg make_leg(sim::Time t_begin, geom::Vec2 from);
  /// Snaps a direction choice at an intersection; u-turns only at field
  /// edges.
  void choose_direction(geom::Vec2 at);

  double street_coord(int index) const;
  bool at_intersection(geom::Vec2 p) const;

  ManhattanParams params_;
  util::Rng rng_;
  int streets_x_;  // vertical streets (constant x)
  int streets_y_;  // horizontal streets (constant y)
  geom::Vec2 dir_;        // axis-aligned unit direction
  double speed_ = 0.0;
  double epoch_left_ = 0.0;
};

}  // namespace manet::mobility
