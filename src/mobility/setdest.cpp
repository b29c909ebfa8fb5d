#include "mobility/setdest.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <istream>
#include <map>
#include <ostream>
#include <string>

#include "util/assert.h"
#include "util/strings.h"

namespace manet::mobility {

namespace {

struct SetdestEvent {
  double t = 0.0;
  geom::Vec2 dest;
  double speed = 0.0;
};

struct NodeScript {
  bool has_x = false;
  bool has_y = false;
  geom::Vec2 initial;
  std::vector<SetdestEvent> events;
};

// Parses "$node_(12)" -> 12. The index must be a whole-string unsigned
// integer: "$node_(-1)", "$node_(2.5)" and "$node_()" are not node refs.
bool parse_node_index(std::string_view token, std::size_t& out) {
  if (!util::starts_with(token, "$node_(")) {
    return false;
  }
  const auto close = token.find(')');
  if (close == std::string_view::npos) {
    return false;
  }
  const char* last = token.data() + close;
  const auto [ptr, ec] = std::from_chars(token.data() + 7, last, out);
  return ec == std::errc() && ptr == last;
}

double parse_num(const std::string& s, int line_no) {
  const auto v = util::parse_finite(s);
  MANET_CHECK(v.has_value(), "setdest line " << line_no
                                             << ": not a finite number '" << s
                                             << "'");
  return *v;
}

std::vector<std::string> tokens_of(std::string_view line) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : line) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == '"') {
      if (!cur.empty()) {
        out.push_back(std::move(cur));
        cur.clear();
      }
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) {
    out.push_back(std::move(cur));
  }
  return out;
}

}  // namespace

std::vector<PiecewiseLinearTrack> read_setdest(std::istream& is,
                                               double duration) {
  MANET_CHECK(duration > 0.0, "duration=" << duration);
  std::map<std::size_t, NodeScript> scripts;
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto t = util::trim(line);
    if (t.empty() || t.front() == '#') {
      continue;
    }
    const auto toks = tokens_of(t);
    if (toks.empty()) {
      continue;
    }
    std::size_t node = 0;
    if (parse_node_index(toks[0], node)) {
      // "$node_(i) set X_ <v>"
      MANET_CHECK(toks.size() == 4 && toks[1] == "set",
                  "setdest line " << line_no << ": expected set X_/Y_/Z_");
      const double v = parse_num(toks[3], line_no);
      auto& ns = scripts[node];
      if (toks[2] == "X_") {
        ns.initial.x = v;
        ns.has_x = true;
      } else if (toks[2] == "Y_") {
        ns.initial.y = v;
        ns.has_y = true;
      } else if (toks[2] == "Z_") {
        // ignored (2-D simulator)
      } else {
        MANET_CHECK(false, "setdest line " << line_no << ": unknown attr '"
                                           << toks[2] << "'");
      }
      continue;
    }
    if (toks[0] == "$ns_") {
      // "$ns_ at <t> $node_(i) setdest <x> <y> <speed>"
      MANET_CHECK(toks.size() == 8 && toks[1] == "at" &&
                      toks[4] == "setdest",
                  "setdest line " << line_no
                                  << ": expected $ns_ at T \"$node_(i) "
                                     "setdest x y s\"");
      MANET_CHECK(parse_node_index(toks[3], node),
                  "setdest line " << line_no << ": bad node ref");
      SetdestEvent e;
      e.t = parse_num(toks[2], line_no);
      e.dest = {parse_num(toks[5], line_no), parse_num(toks[6], line_no)};
      e.speed = parse_num(toks[7], line_no);
      MANET_CHECK(e.t >= 0.0 && e.speed >= 0.0,
                  "setdest line " << line_no << ": negative time/speed");
      scripts[node].events.push_back(e);
      continue;
    }
    MANET_CHECK(false,
                "setdest line " << line_no << ": unrecognized statement");
  }

  MANET_CHECK(!scripts.empty(), "empty setdest script");
  // Density is checked before `tracks` is sized, so a huge node index is an
  // error, never an allocation: the sorted keys are 0..n-1 exactly when the
  // k-th key is k.
  std::size_t n = 0;
  for (const auto& entry : scripts) {
    MANET_CHECK(entry.first == n,
                "setdest script skips node " << n << " (indices not dense)");
    ++n;
  }
  std::vector<PiecewiseLinearTrack> tracks(n);
  for (std::size_t i = 0; i < n; ++i) {
    NodeScript& ns = scripts[i];
    MANET_CHECK(ns.has_x && ns.has_y,
                "node " << i << " missing initial X_/Y_");
    std::stable_sort(ns.events.begin(), ns.events.end(),
                     [](const SetdestEvent& a, const SetdestEvent& b) {
                       return a.t < b.t;
                     });

    PiecewiseLinearTrack& track = tracks[i];
    track.append(0.0, ns.initial);
    geom::Vec2 pos = ns.initial;
    double pos_t = 0.0;
    // In-flight leg: toward `target`, arriving at `arrival`.
    bool moving = false;
    geom::Vec2 target;
    double arrival = 0.0;

    const auto position_at = [&](double t) {
      if (!moving || t <= pos_t) {
        return pos;
      }
      if (t >= arrival) {
        return target;
      }
      const double frac = (t - pos_t) / (arrival - pos_t);
      return geom::lerp(pos, target, frac);
    };

    for (const SetdestEvent& e : ns.events) {
      if (e.t >= duration) {
        break;
      }
      // Close out an arrival that happened before this event.
      if (moving && arrival < e.t) {
        if (arrival > pos_t) {
          track.append(arrival, target);
        }
        pos = target;
        pos_t = arrival;
        moving = false;
      }
      // Breakpoint at the redirection instant.
      const geom::Vec2 here = position_at(e.t);
      if (e.t > pos_t) {
        track.append(e.t, here);
      }
      pos = here;
      pos_t = e.t;
      if (e.speed <= 0.0 || geom::distance(pos, e.dest) < 1e-12) {
        moving = false;  // ns-2 treats speed 0 as "stay"
        continue;
      }
      moving = true;
      target = e.dest;
      arrival = e.t + geom::distance(pos, e.dest) / e.speed;
    }
    // Close the final leg within the duration.
    if (moving) {
      if (arrival <= duration) {
        if (arrival > pos_t) {
          track.append(arrival, target);
        }
        pos = target;
        pos_t = arrival;
      } else {
        track.append(duration, position_at(duration));
        pos_t = duration;
      }
    }
    if (pos_t < duration) {
      track.append(duration, pos);
    }
  }
  return tracks;
}

void write_setdest(std::ostream& os,
                   const std::vector<PiecewiseLinearTrack>& tracks) {
  os << "# ns-2 movement scenario exported by mobic-manet\n";
  os.precision(10);
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    MANET_CHECK(!tracks[i].empty(), "empty track for node " << i);
    const auto start = tracks[i].points().front().pos;
    os << "$node_(" << i << ") set X_ " << start.x << '\n'
       << "$node_(" << i << ") set Y_ " << start.y << '\n'
       << "$node_(" << i << ") set Z_ 0.0\n";
  }
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    const auto& pts = tracks[i].points();
    for (std::size_t k = 0; k + 1 < pts.size(); ++k) {
      const auto& a = pts[k];
      const auto& b = pts[k + 1];
      const double dist = geom::distance(a.pos, b.pos);
      if (dist < 1e-12) {
        continue;  // pause segment: no setdest needed
      }
      const double speed = dist / (b.t - a.t);
      os << "$ns_ at " << a.t << " \"$node_(" << i << ") setdest "
         << b.pos.x << " " << b.pos.y << " " << speed << "\"\n";
    }
  }
}

}  // namespace manet::mobility
