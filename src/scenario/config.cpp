#include "scenario/config.h"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/assert.h"
#include "util/strings.h"

namespace manet::scenario {

namespace {

double parse_number(const std::string& value, int line_no) {
  const auto v = util::parse_finite(value);
  MANET_CHECK(v.has_value(), "config line " << line_no
                                            << ": not a finite number: '"
                                            << value << "'");
  return *v;
}

// Integer keys never pass through a double: "2.5" and "-1" are rejected
// rather than truncated or wrapped, and every 64-bit seed stays exact.
template <typename T>
T parse_integer(const std::string& value, int line_no) {
  std::uint64_t v = 0;
  const char* last = value.data() + value.size();
  const auto [end, ec] = std::from_chars(value.data(), last, v);
  const auto max = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  MANET_CHECK(ec == std::errc() && end == last && v <= max,
              "config line " << line_no << ": not an integer in [0, " << max
                             << "]: '" << value << "'");
  return static_cast<T>(v);
}

// "670x670" or "670" (square).
geom::Rect parse_field(const std::string& value, int line_no) {
  const auto x = value.find('x');
  if (x == std::string::npos) {
    const double side = parse_number(value, line_no);
    return geom::Rect(side, side);
  }
  return geom::Rect(parse_number(value.substr(0, x), line_no),
                    parse_number(value.substr(x + 1), line_no));
}

}  // namespace

Scenario read_config(std::istream& is) {
  Scenario s;
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    // Strip comments and whitespace.
    const auto hash = line.find('#');
    if (hash != std::string::npos) {
      line.erase(hash);
    }
    const auto trimmed = util::trim(line);
    if (trimmed.empty()) {
      continue;
    }
    const auto eq = trimmed.find('=');
    MANET_CHECK(eq != std::string::npos,
                "config line " << line_no << ": expected 'key = value'");
    const std::string key =
        util::to_lower(util::trim(trimmed.substr(0, eq)));
    const std::string value{util::trim(trimmed.substr(eq + 1))};
    MANET_CHECK(!value.empty(), "config line " << line_no << ": empty value");

    const auto num = [&] { return parse_number(value, line_no); };
    if (key == "n_nodes") {
      s.n_nodes = parse_integer<std::size_t>(value, line_no);
    } else if (key == "field") {
      s.fleet.field = parse_field(value, line_no);
    } else if (key == "mobility") {
      s.fleet.kind = mobility::parse_model_kind(value);
    } else if (key == "max_speed") {
      s.fleet.max_speed = num();
    } else if (key == "min_speed") {
      s.fleet.min_speed = num();
    } else if (key == "pause_time") {
      s.fleet.pause_time = num();
    } else if (key == "walk_epoch") {
      s.fleet.walk_epoch = num();
    } else if (key == "gm_alpha") {
      s.fleet.gm_alpha = num();
    } else if (key == "gm_sigma") {
      s.fleet.gm_sigma = num();
    } else if (key == "rpgm_group_size") {
      s.fleet.rpgm_group_size = parse_integer<std::size_t>(value, line_no);
    } else if (key == "rpgm_offset_radius") {
      s.fleet.rpgm_offset_radius = num();
    } else if (key == "rpgm_offset_speed") {
      s.fleet.rpgm_offset_speed = num();
    } else if (key == "highway_length") {
      s.fleet.highway.length = num();
    } else if (key == "highway_lanes_per_direction") {
      s.fleet.highway.lanes_per_direction = parse_integer<int>(value, line_no);
    } else if (key == "highway_mean_speed") {
      s.fleet.highway.mean_speed = num();
    } else if (key == "highway_speed_stddev") {
      s.fleet.highway.speed_stddev = num();
    } else if (key == "tx_range") {
      s.tx_range = num();
    } else if (key == "sim_time") {
      s.sim_time = num();
    } else if (key == "broadcast_interval") {
      s.net.broadcast_interval = num();
    } else if (key == "neighbor_timeout") {
      s.net.neighbor_timeout = num();
    } else if (key == "packet_loss") {
      s.net.packet_loss = num();
    } else if (key == "collision_window") {
      s.net.collision_window = num();
    } else if (key == "propagation") {
      s.propagation = value;
    } else if (key == "pathloss_exponent") {
      s.pathloss_exponent = num();
    } else if (key == "shadowing_sigma_db") {
      s.shadowing_sigma_db = num();
    } else if (key == "energy") {
      s.energy.enabled = num() != 0.0;
    } else if (key == "energy_capacity_j") {
      s.energy.capacity_j = num();
    } else if (key == "energy_capacity_jitter") {
      s.energy.capacity_jitter = num();
    } else if (key == "energy_idle_drain_w") {
      s.energy.idle_drain_w = num();
    } else if (key == "energy_hello_tx_cost_j") {
      s.energy.hello_tx_cost_j = num();
    } else if (key == "energy_hello_rx_cost_j") {
      s.energy.hello_rx_cost_j = num();
    } else if (key == "energy_msg_tx_cost_j") {
      s.energy.msg_tx_cost_j = num();
    } else if (key == "energy_msg_rx_cost_j") {
      s.energy.msg_rx_cost_j = num();
    } else if (key == "seed") {
      s.seed = parse_integer<std::uint64_t>(value, line_no);
    } else if (key == "warmup") {
      s.warmup = num();
    } else if (key == "sample_period") {
      s.sample_period = num();
    } else {
      MANET_CHECK(false,
                  "config line " << line_no << ": unknown key '" << key
                                 << "'");
    }
  }
  return s;
}

Scenario read_config_file(const std::string& path) {
  std::ifstream in(path);
  MANET_CHECK(in.is_open(), "cannot open config file: " << path);
  return read_config(in);
}

void write_config(std::ostream& os, const Scenario& s) {
  os.precision(12);
  os << "# MANET clustering scenario (MOBIC reproduction)\n"
     << "n_nodes = " << s.n_nodes << '\n'
     << "field = " << s.fleet.field.width << 'x' << s.fleet.field.height
     << '\n'
     << "mobility = " << mobility::model_kind_name(s.fleet.kind) << '\n'
     << "max_speed = " << s.fleet.max_speed << '\n'
     << "min_speed = " << s.fleet.min_speed << '\n'
     << "pause_time = " << s.fleet.pause_time << '\n'
     << "walk_epoch = " << s.fleet.walk_epoch << '\n'
     << "gm_alpha = " << s.fleet.gm_alpha << '\n'
     << "gm_sigma = " << s.fleet.gm_sigma << '\n'
     << "rpgm_group_size = " << s.fleet.rpgm_group_size << '\n'
     << "rpgm_offset_radius = " << s.fleet.rpgm_offset_radius << '\n'
     << "rpgm_offset_speed = " << s.fleet.rpgm_offset_speed << '\n'
     << "highway_length = " << s.fleet.highway.length << '\n'
     << "highway_lanes_per_direction = "
     << s.fleet.highway.lanes_per_direction << '\n'
     << "highway_mean_speed = " << s.fleet.highway.mean_speed << '\n'
     << "highway_speed_stddev = " << s.fleet.highway.speed_stddev << '\n'
     << "tx_range = " << s.tx_range << '\n'
     << "sim_time = " << s.sim_time << '\n'
     << "broadcast_interval = " << s.net.broadcast_interval << '\n'
     << "neighbor_timeout = " << s.net.neighbor_timeout << '\n'
     << "packet_loss = " << s.net.packet_loss << '\n'
     << "collision_window = " << s.net.collision_window << '\n'
     << "propagation = " << s.propagation << '\n'
     << "pathloss_exponent = " << s.pathloss_exponent << '\n'
     << "shadowing_sigma_db = " << s.shadowing_sigma_db << '\n'
     << "seed = " << s.seed << '\n'
     << "warmup = " << s.warmup << '\n'
     << "sample_period = " << s.sample_period << '\n';
  // Battery keys only appear on energy scenarios so pre-energy configs stay
  // byte-identical (and round-trip through read_config unchanged).
  if (s.energy.enabled) {
    os << "energy = 1\n"
       << "energy_capacity_j = " << s.energy.capacity_j << '\n'
       << "energy_capacity_jitter = " << s.energy.capacity_jitter << '\n'
       << "energy_idle_drain_w = " << s.energy.idle_drain_w << '\n'
       << "energy_hello_tx_cost_j = " << s.energy.hello_tx_cost_j << '\n'
       << "energy_hello_rx_cost_j = " << s.energy.hello_rx_cost_j << '\n'
       << "energy_msg_tx_cost_j = " << s.energy.msg_tx_cost_j << '\n'
       << "energy_msg_rx_cost_j = " << s.energy.msg_rx_cost_j << '\n';
  }
}

}  // namespace manet::scenario
