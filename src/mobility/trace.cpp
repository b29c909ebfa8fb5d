#include "mobility/trace.h"

#include <charconv>
#include <istream>
#include <map>
#include <ostream>

#include "util/assert.h"
#include "util/strings.h"

namespace manet::mobility {

PiecewiseLinearTrack record_track(MobilityModel& model, sim::Time duration,
                                  sim::Time dt) {
  MANET_CHECK(duration >= 0.0 && dt > 0.0,
              "duration=" << duration << " dt=" << dt);
  PiecewiseLinearTrack track;
  sim::Time t = 0.0;
  while (t < duration) {
    track.append(t, model.position(t));
    t += dt;
  }
  track.append(duration, model.position(duration));
  return track;
}

TraceModel::TraceModel(std::shared_ptr<const PiecewiseLinearTrack> track)
    : track_(std::move(track)) {
  MANET_CHECK(track_ != nullptr && !track_->empty(),
              "trace model needs a non-empty track");
}

TraceModel::TraceModel(PiecewiseLinearTrack track)
    : TraceModel(std::make_shared<const PiecewiseLinearTrack>(
          std::move(track))) {}

void write_traces_csv(std::ostream& os,
                      const std::vector<PiecewiseLinearTrack>& tracks) {
  os << "node,t,x,y\n";
  os.precision(12);
  for (std::size_t n = 0; n < tracks.size(); ++n) {
    for (const auto& p : tracks[n].points()) {
      os << n << ',' << p.t << ',' << p.pos.x << ',' << p.pos.y << '\n';
    }
  }
}

std::vector<PiecewiseLinearTrack> read_traces_csv(std::istream& is) {
  std::map<std::size_t, PiecewiseLinearTrack> by_node;
  std::string line;
  bool first = true;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto trimmed = util::trim(line);
    if (trimmed.empty()) {
      continue;
    }
    if (first) {
      first = false;
      MANET_CHECK(trimmed == "node,t,x,y",
                  "bad trace header: '" << trimmed << "'");
      continue;
    }
    const auto fields = util::split(trimmed, ',');
    MANET_CHECK(fields.size() == 4,
                "trace line " << line_no << ": expected 4 fields");
    const auto num = [&](const std::string& s) {
      const auto v = util::parse_finite(s);
      MANET_CHECK(v.has_value(), "trace line " << line_no
                                               << ": not a finite number '"
                                               << s << "'");
      return *v;
    };
    // The node index is a whole-string unsigned integer: "-1" and "2.5"
    // are errors, not a wrapped or truncated index.
    const std::string& id = fields[0];
    std::size_t node = 0;
    const auto [ptr, ec] =
        std::from_chars(id.data(), id.data() + id.size(), node);
    MANET_CHECK(ec == std::errc() && ptr == id.data() + id.size(),
                "trace line " << line_no << ": bad node index '" << id << "'");
    by_node[node].append(num(fields[1]), {num(fields[2]), num(fields[3])});
  }
  // Density is checked before `tracks` grows, so a huge node index is an
  // error, never an allocation.
  std::vector<PiecewiseLinearTrack> tracks;
  tracks.reserve(by_node.size());
  for (auto& entry : by_node) {
    MANET_CHECK(entry.first == tracks.size(),
                "trace skips node " << tracks.size() << " (indices not dense)");
    tracks.push_back(std::move(entry.second));
  }
  return tracks;
}

}  // namespace manet::mobility
