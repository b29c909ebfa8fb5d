// Trace recording and replay: sample any mobility model onto a
// PiecewiseLinearTrack (ns-2 "movement scenario file" equivalent), persist it
// as CSV, and replay it as a MobilityModel. Makes experiments repeatable
// across algorithms: both clustering protocols can be driven by the *exact*
// same motion.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "mobility/mobility_model.h"
#include "mobility/track.h"

namespace manet::mobility {

/// Samples `model` every `dt` seconds over [0, duration] (inclusive of both
/// endpoints).
PiecewiseLinearTrack record_track(MobilityModel& model, sim::Time duration,
                                  sim::Time dt);

/// Replays a recorded track.
class TraceModel final : public MobilityModel {
 public:
  explicit TraceModel(std::shared_ptr<const PiecewiseLinearTrack> track);
  explicit TraceModel(PiecewiseLinearTrack track);

  geom::Vec2 position(sim::Time t) override { return track_->position(t); }
  geom::Vec2 velocity(sim::Time t) override { return track_->velocity(t); }

  const PiecewiseLinearTrack& track() const { return *track_; }

 private:
  std::shared_ptr<const PiecewiseLinearTrack> track_;
};

/// Serializes tracks for N nodes as CSV rows "node,t,x,y" (with header).
void write_traces_csv(std::ostream& os,
                      const std::vector<PiecewiseLinearTrack>& tracks);

/// Parses the CSV produced by write_traces_csv. Throws CheckError on
/// malformed input.
std::vector<PiecewiseLinearTrack> read_traces_csv(std::istream& is);

}  // namespace manet::mobility
