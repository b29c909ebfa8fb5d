// ns-2 setdest scenario import/export.
#include <sstream>

#include <gtest/gtest.h>

#include "mobility/random_waypoint.h"
#include "mobility/setdest.h"
#include "mobility/trace.h"
#include "util/assert.h"

namespace manet::mobility {
namespace {

TEST(SetdestReadTest, ParsesCanonicalScript) {
  std::stringstream ss(R"(
# a comment
$node_(0) set X_ 10.0
$node_(0) set Y_ 20.0
$node_(0) set Z_ 0.0
$node_(1) set X_ 0.0
$node_(1) set Y_ 0.0
$ns_ at 0.0 "$node_(1) setdest 100.0 0.0 10.0"
$ns_ at 5.0 "$node_(0) setdest 10.0 120.0 20.0"
)");
  const auto tracks = read_setdest(ss, 60.0);
  ASSERT_EQ(tracks.size(), 2u);

  // Node 0 sits still, then moves 100 m north at 20 m/s starting t=5.
  EXPECT_EQ(tracks[0].position(0.0), (geom::Vec2{10.0, 20.0}));
  EXPECT_EQ(tracks[0].position(5.0), (geom::Vec2{10.0, 20.0}));
  EXPECT_EQ(tracks[0].position(7.5), (geom::Vec2{10.0, 70.0}));
  EXPECT_EQ(tracks[0].position(10.0), (geom::Vec2{10.0, 120.0}));
  EXPECT_EQ(tracks[0].position(60.0), (geom::Vec2{10.0, 120.0}));

  // Node 1 crosses to x=100 at 10 m/s, arriving at t=10.
  EXPECT_EQ(tracks[1].position(5.0), (geom::Vec2{50.0, 0.0}));
  EXPECT_EQ(tracks[1].position(10.0), (geom::Vec2{100.0, 0.0}));
}

TEST(SetdestReadTest, MidFlightRedirection) {
  // Redirect at t=5 while the node is halfway: the new leg starts from the
  // in-flight position, exactly like the ns-2 mobile node.
  std::stringstream ss(R"(
$node_(0) set X_ 0.0
$node_(0) set Y_ 0.0
$ns_ at 0.0 "$node_(0) setdest 100.0 0.0 10.0"
$ns_ at 5.0 "$node_(0) setdest 50.0 40.0 10.0"
)");
  const auto tracks = read_setdest(ss, 30.0);
  EXPECT_EQ(tracks[0].position(5.0), (geom::Vec2{50.0, 0.0}));
  // From (50,0) to (50,40) is 40 m at 10 m/s -> arrive t=9.
  EXPECT_EQ(tracks[0].position(9.0), (geom::Vec2{50.0, 40.0}));
  EXPECT_EQ(tracks[0].position(7.0), (geom::Vec2{50.0, 20.0}));
}

TEST(SetdestReadTest, LegTruncatedAtDuration) {
  std::stringstream ss(R"(
$node_(0) set X_ 0.0
$node_(0) set Y_ 0.0
$ns_ at 0.0 "$node_(0) setdest 1000.0 0.0 10.0"
)");
  const auto tracks = read_setdest(ss, 20.0);  // arrival would be t=100
  EXPECT_DOUBLE_EQ(tracks[0].end_time(), 20.0);
  EXPECT_EQ(tracks[0].position(20.0), (geom::Vec2{200.0, 0.0}));
}

TEST(SetdestReadTest, SpeedZeroMeansStay) {
  std::stringstream ss(R"(
$node_(0) set X_ 5.0
$node_(0) set Y_ 5.0
$ns_ at 1.0 "$node_(0) setdest 50.0 50.0 0.0"
)");
  const auto tracks = read_setdest(ss, 10.0);
  EXPECT_EQ(tracks[0].position(10.0), (geom::Vec2{5.0, 5.0}));
}

TEST(SetdestReadTest, RejectsMalformedScripts) {
  {
    std::stringstream ss("$node_(0) set X_ 1\n");  // missing Y_
    EXPECT_THROW(read_setdest(ss, 10.0), util::CheckError);
  }
  {
    std::stringstream ss(
        "$node_(1) set X_ 1\n$node_(1) set Y_ 1\n");  // skips node 0
    EXPECT_THROW(read_setdest(ss, 10.0), util::CheckError);
  }
  {
    std::stringstream ss("walk north\n");
    EXPECT_THROW(read_setdest(ss, 10.0), util::CheckError);
  }
  {
    std::stringstream ss(
        "$node_(0) set X_ 1\n$node_(0) set Y_ 1\n"
        "$ns_ at -1 \"$node_(0) setdest 1 1 1\"\n");
    EXPECT_THROW(read_setdest(ss, 10.0), util::CheckError);
  }
  {
    std::stringstream ss("");
    EXPECT_THROW(read_setdest(ss, 10.0), util::CheckError);
  }
  // A huge or overflowing node index is a density error, not an
  // allocation sized by the index.
  for (const char* index : {"1000000000000", "18446744073709551616"}) {
    const std::string node = std::string("$node_(") + index + ")";
    std::stringstream ss(node + " set X_ 1\n" + node + " set Y_ 1\n");
    EXPECT_THROW(read_setdest(ss, 10.0), util::CheckError) << index;
  }
  {
    std::stringstream ss("$node_() set X_ 1\n$node_() set Y_ 1\n");
    EXPECT_THROW(read_setdest(ss, 10.0), util::CheckError);
  }
  // Non-finite numbers never reach a track.
  {
    std::stringstream ss("$node_(0) set X_ nan\n$node_(0) set Y_ 1\n");
    EXPECT_THROW(read_setdest(ss, 10.0), util::CheckError);
  }
  {
    std::stringstream ss(
        "$node_(0) set X_ 1\n$node_(0) set Y_ 1\n"
        "$ns_ at 1 \"$node_(0) setdest nan 3 2\"\n");
    EXPECT_THROW(read_setdest(ss, 10.0), util::CheckError);
  }
  {
    std::stringstream ss(
        "$node_(0) set X_ 1\n$node_(0) set Y_ 1\n"
        "$ns_ at 1 \"$node_(0) setdest 3 3 inf\"\n");
    EXPECT_THROW(read_setdest(ss, 10.0), util::CheckError);
  }
}

TEST(SetdestRoundTripTest, ExportedScriptReimportsExactly) {
  // Record a real random-waypoint motion, export, re-import, compare.
  RandomWaypointParams p;
  p.field = geom::Rect(300.0, 300.0);
  p.max_speed = 15.0;
  p.pause_time = 5.0;
  std::vector<PiecewiseLinearTrack> tracks;
  for (int i = 0; i < 3; ++i) {
    RandomWaypoint model(p, util::Rng(static_cast<std::uint64_t>(i)));
    tracks.push_back(record_track(model, 120.0, 1.0));
  }

  std::stringstream ss;
  write_setdest(ss, tracks);
  const auto parsed = read_setdest(ss, 120.0);
  ASSERT_EQ(parsed.size(), tracks.size());
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    for (double t = 0.0; t <= 120.0; t += 2.5) {
      EXPECT_LE(geom::distance(parsed[i].position(t),
                               tracks[i].position(t)),
                1e-6)
          << "node " << i << " t=" << t;
    }
  }
}

TEST(SetdestWriteTest, PausesProduceNoSetdest) {
  PiecewiseLinearTrack t;
  t.append(0.0, {1.0, 1.0});
  t.append(10.0, {1.0, 1.0});   // pause
  t.append(20.0, {11.0, 1.0});  // then move
  std::stringstream ss;
  write_setdest(ss, {t});
  const std::string s = ss.str();
  // Exactly one setdest statement (the move), none for the pause.
  std::size_t count = 0;
  for (std::size_t pos = s.find("setdest"); pos != std::string::npos;
       pos = s.find("setdest", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

}  // namespace
}  // namespace manet::mobility
