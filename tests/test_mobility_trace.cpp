// PiecewiseLinearTrack, trace recording/replay and CSV round-trip.
#include <sstream>

#include <gtest/gtest.h>

#include "mobility/random_waypoint.h"
#include "mobility/trace.h"
#include "mobility/track.h"
#include "util/assert.h"

namespace manet::mobility {
namespace {

TEST(TrackTest, InterpolatesLinearly) {
  PiecewiseLinearTrack t;
  t.append(0.0, {0.0, 0.0});
  t.append(10.0, {100.0, 0.0});
  t.append(20.0, {100.0, 50.0});
  EXPECT_EQ(t.position(0.0), (geom::Vec2{0.0, 0.0}));
  EXPECT_EQ(t.position(5.0), (geom::Vec2{50.0, 0.0}));
  EXPECT_EQ(t.position(10.0), (geom::Vec2{100.0, 0.0}));
  EXPECT_EQ(t.position(15.0), (geom::Vec2{100.0, 25.0}));
  EXPECT_EQ(t.position(20.0), (geom::Vec2{100.0, 50.0}));
}

TEST(TrackTest, ClampsOutsideSpan) {
  PiecewiseLinearTrack t;
  t.append(1.0, {5.0, 5.0});
  t.append(2.0, {6.0, 6.0});
  EXPECT_EQ(t.position(0.0), (geom::Vec2{5.0, 5.0}));
  EXPECT_EQ(t.position(99.0), (geom::Vec2{6.0, 6.0}));
  EXPECT_EQ(t.velocity(0.0), (geom::Vec2{0.0, 0.0}));
  EXPECT_EQ(t.velocity(99.0), (geom::Vec2{0.0, 0.0}));
}

TEST(TrackTest, VelocityPerSegment) {
  PiecewiseLinearTrack t;
  t.append(0.0, {0.0, 0.0});
  t.append(10.0, {100.0, 0.0});
  t.append(30.0, {100.0, 100.0});
  EXPECT_EQ(t.velocity(5.0), (geom::Vec2{10.0, 0.0}));
  EXPECT_EQ(t.velocity(20.0), (geom::Vec2{0.0, 5.0}));
}

TEST(TrackTest, SupportsArbitraryQueryOrder) {
  // Unlike LegBasedModel, tracks allow going back in time (needed by the
  // shared RPGM center and post-hoc route analysis).
  PiecewiseLinearTrack t;
  t.append(0.0, {0.0, 0.0});
  t.append(10.0, {10.0, 0.0});
  EXPECT_EQ(t.position(9.0), (geom::Vec2{9.0, 0.0}));
  EXPECT_EQ(t.position(1.0), (geom::Vec2{1.0, 0.0}));
  EXPECT_EQ(t.position(8.0), (geom::Vec2{8.0, 0.0}));
}

TEST(TrackTest, RejectsMisuse) {
  PiecewiseLinearTrack t;
  EXPECT_THROW(t.position(0.0), util::CheckError);
  t.append(5.0, {0.0, 0.0});
  EXPECT_THROW(t.append(5.0, {1.0, 1.0}), util::CheckError);  // not increasing
  EXPECT_THROW(t.append(4.0, {1.0, 1.0}), util::CheckError);
}

TEST(RecordTrackTest, MatchesSourceModel) {
  RandomWaypointParams p;
  p.field = geom::Rect(300.0, 300.0);
  p.max_speed = 10.0;
  RandomWaypoint source(p, util::Rng(3));
  RandomWaypoint reference(p, util::Rng(3));

  const auto track = record_track(source, 120.0, 0.5);
  EXPECT_DOUBLE_EQ(track.begin_time(), 0.0);
  EXPECT_DOUBLE_EQ(track.end_time(), 120.0);
  // At sample instants the track is exact; between them the linear
  // interpolation of a piecewise-linear motion is also near-exact away from
  // waypoint turns.
  for (double t = 0.0; t <= 120.0; t += 0.5) {
    EXPECT_LE(geom::distance(track.position(t), reference.position(t)), 1e-9);
  }
}

TEST(TraceModelTest, ReplaysTrack) {
  PiecewiseLinearTrack t;
  t.append(0.0, {0.0, 0.0});
  t.append(10.0, {10.0, 10.0});
  TraceModel model(std::move(t));
  EXPECT_EQ(model.position(5.0), (geom::Vec2{5.0, 5.0}));
  EXPECT_NEAR(model.velocity(5.0).x, 1.0, 1e-12);
}

TEST(TraceModelTest, RejectsEmptyTrack) {
  EXPECT_THROW(TraceModel(PiecewiseLinearTrack{}), util::CheckError);
}

TEST(TraceCsvTest, RoundTrips) {
  std::vector<PiecewiseLinearTrack> tracks(2);
  tracks[0].append(0.0, {1.5, 2.5});
  tracks[0].append(1.0, {3.5, 4.5});
  tracks[1].append(0.0, {9.0, 8.0});

  std::stringstream ss;
  write_traces_csv(ss, tracks);
  const auto parsed = read_traces_csv(ss);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].size(), 2u);
  EXPECT_EQ(parsed[1].size(), 1u);
  EXPECT_EQ(parsed[0].position(0.5), (geom::Vec2{2.5, 3.5}));
  EXPECT_EQ(parsed[1].position(0.0), (geom::Vec2{9.0, 8.0}));
}

TEST(TraceCsvTest, RejectsMalformedInput) {
  {
    std::stringstream ss("bogus header\n");
    EXPECT_THROW(read_traces_csv(ss), util::CheckError);
  }
  {
    std::stringstream ss("node,t,x,y\n0,1,2\n");  // missing field
    EXPECT_THROW(read_traces_csv(ss), util::CheckError);
  }
  {
    std::stringstream ss("node,t,x,y\n0,zero,2,3\n");  // bad number
    EXPECT_THROW(read_traces_csv(ss), util::CheckError);
  }
  // Node indices are whole-string unsigned integers, and dense: a negative,
  // fractional or huge index is an error, never a cast or an allocation.
  for (const char* node : {"-1", "2.5", "1e15", "", "1"}) {
    std::stringstream ss(std::string("node,t,x,y\n") + node + ",0,1,1\n");
    EXPECT_THROW(read_traces_csv(ss), util::CheckError) << node;
  }
  // Coordinates and times must be non-empty and finite.
  for (const char* row : {"0,0,,1", "0,0,nan,1", "0,inf,1,1"}) {
    std::stringstream ss(std::string("node,t,x,y\n") + row + "\n");
    EXPECT_THROW(read_traces_csv(ss), util::CheckError) << row;
  }
}

TEST(TraceCsvTest, SkipsBlankLines) {
  std::stringstream ss("node,t,x,y\n\n0,0,1,1\n\n0,1,2,2\n");
  const auto parsed = read_traces_csv(ss);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].size(), 2u);
}

}  // namespace
}  // namespace manet::mobility
