#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "geom/grid_index.h"
#include "geom/rect.h"
#include "geom/vec2.h"
#include "util/assert.h"
#include "util/rng.h"

namespace manet::geom {
namespace {

TEST(Vec2Test, Arithmetic) {
  const Vec2 a{1.0, 2.0}, b{3.0, -1.0};
  EXPECT_EQ(a + b, (Vec2{4.0, 1.0}));
  EXPECT_EQ(a - b, (Vec2{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Vec2{2.0, 4.0}));
  EXPECT_EQ(2.0 * a, a * 2.0);
  EXPECT_EQ(a / 2.0, (Vec2{0.5, 1.0}));
  Vec2 c = a;
  c += b;
  EXPECT_EQ(c, a + b);
  c -= b;
  EXPECT_EQ(c, a);
}

TEST(Vec2Test, NormsAndDot) {
  const Vec2 v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.norm_sq(), 25.0);
  EXPECT_DOUBLE_EQ(v.dot({1.0, 0.0}), 3.0);
  const Vec2 u = v.normalized();
  EXPECT_NEAR(u.norm(), 1.0, 1e-12);
  EXPECT_EQ((Vec2{}.normalized()), (Vec2{0.0, 0.0}));
}

TEST(Vec2Test, DistanceAndLerp) {
  EXPECT_DOUBLE_EQ(distance({0.0, 0.0}, {3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(distance_sq({1.0, 1.0}, {2.0, 2.0}), 2.0);
  EXPECT_EQ(lerp({0.0, 0.0}, {10.0, 20.0}, 0.5), (Vec2{5.0, 10.0}));
  EXPECT_EQ(lerp({0.0, 0.0}, {10.0, 20.0}, 0.0), (Vec2{0.0, 0.0}));
  EXPECT_EQ(lerp({0.0, 0.0}, {10.0, 20.0}, 1.0), (Vec2{10.0, 20.0}));
}

TEST(RectTest, ContainsAndClamp) {
  const Rect r(100.0, 50.0);
  EXPECT_TRUE(r.contains({0.0, 0.0}));
  EXPECT_TRUE(r.contains({100.0, 50.0}));
  EXPECT_FALSE(r.contains({100.1, 10.0}));
  EXPECT_FALSE(r.contains({-0.1, 10.0}));
  EXPECT_EQ(r.clamp({-5.0, 60.0}), (Vec2{0.0, 50.0}));
  EXPECT_EQ(r.clamp({50.0, 25.0}), (Vec2{50.0, 25.0}));
  EXPECT_DOUBLE_EQ(r.area(), 5000.0);
}

TEST(RectTest, RejectsDegenerate) {
  EXPECT_THROW(Rect(0.0, 10.0), util::CheckError);
  EXPECT_THROW(Rect(10.0, -1.0), util::CheckError);
}

TEST(RectTest, SampleStaysInside) {
  const Rect r(670.0, 1000.0);
  util::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(r.contains(r.sample(rng)));
  }
}

TEST(RectTest, ReflectFoldsBackInside) {
  const Rect r(100.0, 100.0);
  Vec2 dir{1.0, 0.0};
  // 130 -> mirrored at the right wall to 70, direction flipped.
  const Vec2 p = r.reflect({130.0, 50.0}, dir);
  EXPECT_NEAR(p.x, 70.0, 1e-12);
  EXPECT_DOUBLE_EQ(p.y, 50.0);
  EXPECT_DOUBLE_EQ(dir.x, -1.0);
}

TEST(RectTest, ReflectEvenFoldKeepsDirection) {
  const Rect r(100.0, 100.0);
  Vec2 dir{1.0, 0.0};
  // 230 = 2*100 + 30: two wall crossings -> back to 30 moving forward.
  const Vec2 p = r.reflect({230.0, 10.0}, dir);
  EXPECT_NEAR(p.x, 30.0, 1e-12);
  EXPECT_DOUBLE_EQ(dir.x, 1.0);
}

TEST(RectTest, ReflectNegativeCoordinate) {
  const Rect r(100.0, 100.0);
  Vec2 dir{-1.0, -1.0};
  const Vec2 p = r.reflect({-20.0, -30.0}, dir);
  EXPECT_NEAR(p.x, 20.0, 1e-12);
  EXPECT_NEAR(p.y, 30.0, 1e-12);
  EXPECT_DOUBLE_EQ(dir.x, 1.0);
  EXPECT_DOUBLE_EQ(dir.y, 1.0);
}

TEST(GridIndexTest, EmptyIndex) {
  GridIndex g(Rect(100.0, 100.0), 10.0);
  g.rebuild({});
  EXPECT_EQ(g.size(), 0u);
  EXPECT_TRUE(g.query_radius({50.0, 50.0}, 100.0).empty());
}

TEST(GridIndexTest, FindsExactMatches) {
  GridIndex g(Rect(100.0, 100.0), 10.0);
  const std::vector<Vec2> pts = {{10.0, 10.0}, {50.0, 50.0}, {90.0, 90.0}};
  g.rebuild(pts);
  const auto near = g.query_radius({12.0, 10.0}, 5.0);
  ASSERT_EQ(near.size(), 1u);
  EXPECT_EQ(near[0], 0u);
  const auto all = g.query_radius({50.0, 50.0}, 100.0);
  EXPECT_EQ(all.size(), 3u);
}

TEST(GridIndexTest, RadiusIsInclusive) {
  GridIndex g(Rect(100.0, 100.0), 10.0);
  g.rebuild(std::vector<Vec2>{{0.0, 0.0}, {10.0, 0.0}});
  const auto hits = g.query_radius({0.0, 0.0}, 10.0);
  EXPECT_EQ(hits.size(), 2u);
}

TEST(GridIndexTest, HandlesPointsOutsideField) {
  GridIndex g(Rect(100.0, 100.0), 10.0);
  // Points beyond the field are binned at the edge but matched exactly.
  g.rebuild(std::vector<Vec2>{{150.0, 50.0}, {50.0, 50.0}});
  const auto hits = g.query_radius({149.0, 50.0}, 2.0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 0u);
}

class GridVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(GridVsBruteForce, MatchesReference) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Rect field(670.0, 670.0);
  std::vector<Vec2> pts;
  const int n = 1 + static_cast<int>(rng.index(200));
  for (int i = 0; i < n; ++i) {
    pts.push_back(field.sample(rng));
  }
  GridIndex g(field, 40.0);
  g.rebuild(pts);
  for (int q = 0; q < 20; ++q) {
    const Vec2 center = field.sample(rng);
    const double radius = rng.uniform(0.0, 300.0);
    auto got = g.query_radius(center, radius);
    auto want = GridIndex::brute_force(pts, center, radius);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "n=" << n << " r=" << radius;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, GridVsBruteForce,
                         ::testing::Range(0, 12));

// The documented binning: clamp into the field, floor-divide by the cell
// size, cap at the last column / row; cells are numbered row-major.
std::size_t binned_cell(const Rect& field, double cell_size, Vec2 p) {
  const auto cols = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(field.width / cell_size)));
  const auto rows = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(field.height / cell_size)));
  const Vec2 c = field.clamp(p);
  const auto col = std::min(
      cols - 1, static_cast<std::size_t>(std::floor(c.x / cell_size)));
  const auto row = std::min(
      rows - 1, static_cast<std::size_t>(std::floor(c.y / cell_size)));
  return row * cols + col;
}

// A point anywhere in the field grown by 60 m on every side, so some land
// outside it.
Vec2 loose_point(const Rect& field, util::Rng& rng) {
  return {rng.uniform(-60.0, field.width + 60.0),
          rng.uniform(-60.0, field.height + 60.0)};
}

// Checks the unsorted query output against the brute-force hits ordered by
// (cell, index): the order a broadcast consumes its sender's fading and
// loss draws in, so it is part of the determinism contract.
void expect_row_major_order(const GridIndex& g, std::span<const Vec2> pts,
                            const Rect& field, double cell_size,
                            util::Rng& rng, const char* stage) {
  for (int q = 0; q < 25; ++q) {
    const Vec2 center = loose_point(field, rng);
    const double radius = rng.uniform(0.0, 350.0);
    std::vector<std::size_t> want =
        GridIndex::brute_force(pts, center, radius);
    std::stable_sort(want.begin(), want.end(),
                     [&](std::size_t a, std::size_t b) {
                       return binned_cell(field, cell_size, pts[a]) <
                              binned_cell(field, cell_size, pts[b]);
                     });
    EXPECT_EQ(g.query_radius(center, radius), want)
        << stage << ": n=" << pts.size() << " r=" << radius;
  }
}

TEST(GridIndexTest, CandidateOrderIsRowMajorCellsThenIndex) {
  for (int seed = 0; seed < 12; ++seed) {
    util::Rng rng(static_cast<std::uint64_t>(1000 + seed));
    const Rect field(670.0, 310.0);
    const double cell_size = seed % 2 == 0 ? 41.875 : 37.0;
    std::vector<Vec2> pts;
    const int n = 1 + static_cast<int>(rng.index(120));
    for (int i = 0; i < n; ++i) {
      pts.push_back(i % 5 == 0 ? loose_point(field, rng) : field.sample(rng));
    }
    GridIndex g(field, cell_size);
    g.rebuild(pts);
    expect_row_major_order(g, pts, field, cell_size, rng, "rebuild");

    // Nudge every point without leaving its cell: the in-place update.
    std::vector<Vec2> nudged = pts;
    for (std::size_t i = 0; i < nudged.size(); ++i) {
      const Vec2 p = {pts[i].x + rng.uniform(-0.5, 0.5),
                      pts[i].y + rng.uniform(-0.5, 0.5)};
      if (binned_cell(field, cell_size, p) ==
          binned_cell(field, cell_size, pts[i])) {
        nudged[i] = p;
      }
    }
    ASSERT_TRUE(g.update_positions(nudged));
    expect_row_major_order(g, nudged, field, cell_size, rng, "in-cell move");

    // Move one point to a different cell: the update refuses, a rebuild
    // re-bins.
    std::vector<Vec2> moved = nudged;
    moved[0] = binned_cell(field, cell_size, moved[0]) == 0
                   ? Vec2{field.width, field.height}
                   : Vec2{0.0, 0.0};
    for (std::size_t i = 1; i < moved.size(); ++i) {
      moved[i] = loose_point(field, rng);
    }
    ASSERT_FALSE(g.update_positions(moved));
    g.rebuild(moved);
    expect_row_major_order(g, moved, field, cell_size, rng, "cross-cell move");
  }
}

}  // namespace
}  // namespace manet::geom
