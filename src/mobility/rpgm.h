// Reference Point Group Mobility (RPGM) — Hong et al. [9], cited by the
// paper as the group-mobility model behind "conference hall"-style scenarios
// (§5). Each group has a logical center following a random-waypoint path;
// members hover around the moving center within a bounded offset radius.
//
// Nodes in the same group have low *relative* mobility even when the group
// itself moves fast — exactly the structure MOBIC is designed to exploit.
#pragma once

#include <memory>
#include <vector>

#include "mobility/mobility_model.h"
#include "mobility/track.h"
#include "util/rng.h"

namespace manet::mobility {

struct RpgmParams {
  geom::Rect field;
  double duration = 900.0;      // s; the center path is materialized eagerly
  double center_max_speed = 10.0;  // group reference-point speed, m/s
  double center_min_speed = 0.1;
  double center_pause = 0.0;    // s
  double offset_radius = 30.0;  // m; members stay within this of the center
  double offset_speed = 1.0;    // m/s; intra-group jitter speed
};

/// The shared state of one group: the reference-point track. Members hold a
/// shared_ptr so group lifetime follows its last member.
class RpgmGroup {
 public:
  /// Builds the center's random-waypoint track covering [0, duration].
  RpgmGroup(const RpgmParams& params, util::Rng rng);

  const RpgmParams& params() const { return params_; }
  geom::Vec2 center(sim::Time t) const { return track_.position(t); }
  geom::Vec2 center_velocity(sim::Time t) const { return track_.velocity(t); }
  const PiecewiseLinearTrack& track() const { return track_; }

 private:
  RpgmParams params_;
  PiecewiseLinearTrack track_;
};

/// One group member: center(t) + a slowly wandering offset, clamped to the
/// field.
class RpgmMember final : public MobilityModel {
 public:
  RpgmMember(std::shared_ptr<const RpgmGroup> group, util::Rng rng);

  geom::Vec2 position(sim::Time t) override;
  geom::Vec2 velocity(sim::Time t) override;

 private:
  /// Offset relative to the center at time t (advances offset legs lazily).
  geom::Vec2 offset(sim::Time t);
  void next_offset_leg();

  std::shared_ptr<const RpgmGroup> group_;
  util::Rng rng_;
  // Current offset leg: move from `off_from_` to `off_to_` over
  // [off_t0_, off_t1_].
  sim::Time off_t0_ = 0.0;
  sim::Time off_t1_ = 0.0;
  geom::Vec2 off_from_;
  geom::Vec2 off_to_;
};

/// Builds `n_members` member models sharing one freshly generated group.
std::vector<std::unique_ptr<MobilityModel>> make_rpgm_group(
    const RpgmParams& params, std::size_t n_members, util::Rng rng);

}  // namespace manet::mobility
