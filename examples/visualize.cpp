// Renders cluster-topology frames of a running scenario as SVG — a
// Figure-1-style picture of the live system: clusterheads as squares,
// members colored by their cluster, gateways ringed, member->head edges,
// and dashed coverage disks around each head.
//
//   ./visualize [--algorithm mobic] [--frames 4] [--time 300]
//               [--range 150] [--out-prefix clusters]
//
// Produces <out-prefix>_t<seconds>.svg per frame.
#include <iostream>

#include "scenario/experiment.h"
#include "scenario/timeline.h"
#include "util/flags.h"
#include "util/svg.h"
#include "util/table.h"

namespace {

using namespace manet;

void render_frame(const std::vector<scenario::TimelineRecorder::SnapshotRow>&
                      rows,
                  const geom::Rect& field, double tx_range,
                  const std::string& path) {
  constexpr double kMargin = 30.0;
  constexpr double kScale = 0.9;  // px per meter, clamped below
  const double scale =
      std::min(kScale, std::min(800.0 / field.width, 800.0 / field.height));
  const double w = field.width * scale + 2 * kMargin;
  const double h = field.height * scale + 2 * kMargin;
  util::SvgDocument svg(w, h);
  svg.add_rect(0, 0, w, h, "white");
  svg.add_rect(kMargin, kMargin, field.width * scale, field.height * scale,
               "none", "#888", 1.0);

  const auto px = [&](geom::Vec2 p) {
    // SVG y grows downward; flip so the field reads like a map.
    return geom::Vec2{kMargin + p.x * scale,
                      kMargin + (field.height - p.y) * scale};
  };

  // Color per clusterhead id.
  const auto color_of = [&](net::NodeId head) {
    return head == net::kInvalidNode ? std::string("#cccccc")
                                     : util::SvgDocument::palette(head);
  };

  // Pass 1: coverage disks + member->head edges (under the nodes).
  for (const auto& r : rows) {
    if (r.role == cluster::Role::kHead) {
      const auto c = px(r.pos);
      svg.add_circle_outline(c.x, c.y, tx_range * scale, color_of(r.node),
                             1.0);
    }
  }
  for (const auto& r : rows) {
    if (r.role == cluster::Role::kMember &&
        r.head != net::kInvalidNode) {
      for (const auto& head_row : rows) {
        if (head_row.node == r.head) {
          const auto a = px(r.pos);
          const auto b = px(head_row.pos);
          svg.add_line(a.x, a.y, b.x, b.y, color_of(r.head), 1.0, 0.5);
          break;
        }
      }
    }
  }
  // Pass 2: nodes.
  for (const auto& r : rows) {
    const auto c = px(r.pos);
    const std::string color = color_of(r.head);
    switch (r.role) {
      case cluster::Role::kHead: {
        const double s = 7.0;
        svg.add_rect(c.x - s, c.y - s, 2 * s, 2 * s, color, "black", 1.5);
        break;
      }
      case cluster::Role::kMember:
        svg.add_circle(c.x, c.y, 4.5, color,
                       r.gateway ? "black" : "none", r.gateway ? 2.0 : 0.0);
        break;
      case cluster::Role::kUndecided:
        svg.add_circle(c.x, c.y, 4.5, "#cccccc", "#666", 1.0);
        break;
    }
    svg.add_text(c.x + 7, c.y - 7, std::to_string(r.node), 9, "#333");
  }
  svg.add_text(kMargin, h - 8,
               "squares = clusterheads, ringed dots = gateways, t = " +
                   util::Table::fmt(rows.front().t, 0) + " s",
               11, "#333");
  svg.save(path);
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::string algorithm = flags.get_string("algorithm", "mobic");
  const int frames = flags.get_int("frames", 4);
  const double time = flags.get_double("time", 300.0);
  const double range = flags.get_double("range", 150.0);
  const std::string prefix = flags.get_string("out-prefix", "clusters");
  const std::uint64_t seed = flags.get_u64("seed", 1);
  flags.finish();

  scenario::Scenario s;
  s.n_nodes = 50;
  s.fleet.field = geom::Rect(670.0, 670.0);
  s.fleet.max_speed = 20.0;
  s.tx_range = range;
  s.sim_time = time;
  s.seed = seed;

  const double frame_period = time / frames;
  scenario::TimelineRecorder recorder;
  run_scenario(
      s, scenario::factory_by_name(algorithm),
      [&](scenario::LiveContext& ctx) {
        recorder.schedule_snapshots(ctx, frame_period, time);
      },
      &recorder);

  // Group snapshot rows by frame time and render each (skip t = 0, which is
  // all-undecided).
  std::map<double, std::vector<scenario::TimelineRecorder::SnapshotRow>>
      by_time;
  for (const auto& row : recorder.snapshots()) {
    by_time[row.t].push_back(row);
  }
  int rendered = 0;
  for (const auto& [t, rows] : by_time) {
    if (t == 0.0) {
      continue;
    }
    const std::string path =
        prefix + "_t" + std::to_string(static_cast<int>(t)) + ".svg";
    render_frame(rows, s.fleet.field, s.tx_range, path);
    std::cout << "wrote " << path << " (" << rows.size() << " nodes)\n";
    ++rendered;
  }
  std::cout << rendered << " frames rendered for algorithm '" << algorithm
            << "'.\n";
  return rendered > 0 ? 0 : 1;
}
