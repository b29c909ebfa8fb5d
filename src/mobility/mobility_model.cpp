#include "mobility/mobility_model.h"

#include <algorithm>

#include "util/assert.h"

namespace manet::mobility {

void LegBasedModel::set_initial_leg(Leg leg) {
  MANET_CHECK(leg.t_end > leg.t_begin, "initial leg must have positive span");
  leg_ = leg;
  initialized_ = true;
}

const LegBasedModel::Leg& LegBasedModel::locate(sim::Time t) {
  MANET_CHECK(initialized_, "mobility model used before set_initial_leg()");
  // Small tolerance: clustering code may re-query at the "current" time
  // after floating-point round-trips.
  MANET_ASSERT(t >= leg_.t_begin - 1e-9,
               "non-monotonic mobility query: " << t << " < "
                                                << leg_.t_begin);
  while (t > leg_.t_end) {
    Leg next = next_leg(leg_);
    MANET_CHECK(next.t_begin == leg_.t_end,
                "next_leg() must start when the previous leg ends");
    MANET_CHECK(next.t_end > next.t_begin, "zero-length leg");
    leg_ = next;
  }
  return leg_;
}

geom::Vec2 LegBasedModel::position(sim::Time t) {
  const Leg& leg = locate(t);
  if (t <= leg.t_begin) {
    return leg.from;
  }
  const double frac = (t - leg.t_begin) / (leg.t_end - leg.t_begin);
  return geom::lerp(leg.from, leg.to, std::min(frac, 1.0));
}

geom::Vec2 LegBasedModel::velocity(sim::Time t) {
  const Leg& leg = locate(t);
  const double span = leg.t_end - leg.t_begin;
  if (span <= 0.0) {
    return {};
  }
  return (leg.to - leg.from) / span;
}

}  // namespace manet::mobility
