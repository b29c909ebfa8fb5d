// Mobility model interface.
//
// Models are sampled lazily by the simulator: position(t) may be called with
// any non-decreasing sequence of times (repeats allowed). This lets waypoint
// models generate their itinerary on demand from a per-node RNG substream,
// which keeps runs reproducible regardless of how often they are sampled.
#pragma once

#include "geom/rect.h"
#include "geom/vec2.h"
#include "sim/event_queue.h"

namespace manet::mobility {

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Node position at time `t` (seconds). Query times must be
  /// non-decreasing across calls.
  virtual geom::Vec2 position(sim::Time t) = 0;

  /// Instantaneous velocity at time `t` (m/s). Same monotonicity contract;
  /// typically called right after position(t).
  virtual geom::Vec2 velocity(sim::Time t) = 0;

  /// Longest discontinuous jump the track can make, in metres (0 for
  /// continuous motion). Motion between position samples is bounded by
  /// speed x time plus this; the network pads stale grid queries by it.
  virtual double max_jump_m() const { return 0.0; }
};

/// A node that never moves.
class StaticModel final : public MobilityModel {
 public:
  explicit StaticModel(geom::Vec2 pos) : pos_(pos) {}

  geom::Vec2 position(sim::Time) override { return pos_; }
  geom::Vec2 velocity(sim::Time) override { return {}; }

 private:
  geom::Vec2 pos_;
};

/// Base for models whose motion decomposes into straight-line legs
/// (random waypoint, random walk, random direction, highway...). Subclasses
/// implement next_leg() to extend the itinerary; the base interpolates.
class LegBasedModel : public MobilityModel {
 public:
  geom::Vec2 position(sim::Time t) final;
  geom::Vec2 velocity(sim::Time t) final;

 protected:
  /// One straight-line constant-speed segment; `from == to` models a pause.
  struct Leg {
    sim::Time t_begin = 0.0;
    sim::Time t_end = 0.0;
    geom::Vec2 from;
    geom::Vec2 to;
  };

  /// Produces the leg that starts where `prev` ended, at time prev.t_end.
  /// Must return a leg with t_end > t_begin (use a tiny pause if needed).
  virtual Leg next_leg(const Leg& prev) = 0;

  /// Subclass constructors seed the itinerary with the initial leg.
  void set_initial_leg(Leg leg);

 private:
  /// Advances leg_ in place to the leg containing `t`.
  const Leg& locate(sim::Time t);

  Leg leg_{};
  bool initialized_ = false;
};

}  // namespace manet::mobility
