#include "scenario/cache.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <concepts>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/trace.h"
#include "util/assert.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/strings.h"

namespace manet::scenario {

namespace {

// The code-version salt folded into every key (cache.h). Bump it whenever
// simulation results change without a Scenario field changing, so every old
// cell misses instead of serving a stale result.
//   2: cell records gained the energy and head-tenure-fairness fields.
//   3: stale highway grid queries pad for re-entry jumps, so highway cells
//      deliver Hellos they used to miss.
constexpr const char* kCacheEpoch = "3";

// --- primitive renderings ---------------------------------------------------
// Doubles travel as their IEEE-754 bit pattern in hex: exact round-trip,
// byte-stable across platforms and locales (hexfloat %a is neither).

double parse_dbits(std::string_view v) {
  MANET_CHECK(v.size() == 16, "bad double field '" << v << "'");
  std::uint64_t bits = 0;
  for (const char c : v) {
    bits <<= 4;
    if (c >= '0' && c <= '9') {
      bits |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      bits |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      MANET_CHECK(false, "bad double field '" << v << "'");
    }
  }
  return std::bit_cast<double>(bits);
}

std::uint64_t parse_u64(std::string_view v) {
  const std::string s(v);
  char* end = nullptr;
  const unsigned long long x = std::strtoull(s.c_str(), &end, 10);
  MANET_CHECK(end == s.c_str() + s.size() && !s.empty(),
              "bad integer field '" << s << "'");
  return static_cast<std::uint64_t>(x);
}

long parse_long(std::string_view v) {
  const std::string s(v);
  char* end = nullptr;
  const long x = std::strtol(s.c_str(), &end, 10);
  MANET_CHECK(end == s.c_str() + s.size() && !s.empty(),
              "bad integer field '" << s << "'");
  return x;
}

// --- line-record scaffolding ------------------------------------------------
// Both the canonical scenario text and the cell record are strict "key =
// value" lines in a fixed order; any deviation is a parse error (and thus,
// for cells, corruption).

/// Appends a record to one growing string: "key = v1 v2 ..." lines whose
/// values are separated by single spaces. Integers go through
/// std::to_chars and doubles as 16 hex digits written in place, so a field
/// costs no stream and no temporary string.
class RecordWriter {
 public:
  RecordWriter(std::string_view header, std::size_t reserve) {
    out_.reserve(reserve);
    out_ += header;
  }

  /// One whole line; each value is rendered by its type (add() below).
  template <typename... Values>
  void line(std::string_view key, const Values&... values) {
    begin(key);
    (add(values), ...);
    end();
  }

  // A line built piecewise: begin(), add() per value, end().
  void begin(std::string_view key) {
    out_ += key;
    out_ += " = ";
    first_ = true;
  }
  void add(std::string_view v) {
    sep();
    out_ += v;
  }
  void add(double v) { add_hex(std::bit_cast<std::uint64_t>(v)); }
  template <std::integral Int>
  void add(Int v) {
    sep();
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out_.append(buf, res.ptr);
  }
  void add_hex(std::uint64_t v) {
    sep();
    char buf[16];
    util::hex64_to(buf, v);
    out_.append(buf, sizeof buf);
  }
  void end() { out_ += '\n'; }

  const std::string& text() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void sep() {
    if (!first_) {
      out_ += ' ';
    }
    first_ = false;
  }

  std::string out_;
  bool first_ = true;
};

class LineReader {
 public:
  explicit LineReader(const std::string& text)
      : in_(text), size_(text.size()) {}

  /// Next "key = value" line; throws unless the key matches.
  std::string expect(std::string_view key) {
    auto value = next(key);
    MANET_CHECK(value.has_value(),
                "record truncated before key '" << key << "'");
    return *value;
  }

  /// Like expect(), but returns nullopt (and consumes nothing) when the
  /// next line carries a different key or the record ended.
  std::optional<std::string> take(std::string_view key) {
    if (!peeked_) {
      if (!std::getline(in_, line_)) {
        ended_ = true;
      }
      peeked_ = true;
    }
    if (ended_) {
      return std::nullopt;
    }
    const auto sep = line_.find(" = ");
    if (sep == std::string::npos || line_.substr(0, sep) != key) {
      return std::nullopt;
    }
    peeked_ = false;
    return line_.substr(sep + 3);
  }

  double expect_d(std::string_view key) { return parse_dbits(expect(key)); }
  std::uint64_t expect_u(std::string_view key) {
    return parse_u64(expect(key));
  }

  /// An entry count ("key = N", one line per entry to follow). Each entry
  /// takes at least one byte of what is left of the record, so a larger
  /// count is corrupt — checked here, before any caller reserves for it.
  std::uint64_t expect_count(std::string_view key) {
    const std::uint64_t n = expect_u(key);
    const auto pos = in_.tellg();
    const std::size_t left =
        pos < 0 ? 0 : size_ - static_cast<std::size_t>(pos);
    MANET_CHECK(n <= left, "'" << key << " = " << n << "' exceeds the "
                                   << left << " bytes left in the record");
    return n;
  }

 private:
  std::optional<std::string> next(std::string_view key) {
    auto v = take(key);
    if (!v.has_value() && !ended_) {
      MANET_CHECK(false, "expected key '" << key << "', got line '"
                                          << line_ << "'");
    }
    return v;
  }

  std::istringstream in_;
  std::size_t size_;
  std::string line_;
  bool peeked_ = false;
  bool ended_ = false;
};

// --- fault events -----------------------------------------------------------

void put_fault_event(RecordWriter& w, std::string_view key,
                     const fault::FaultEvent& e) {
  w.line(key, static_cast<int>(e.kind), e.at, e.until, e.node, e.peer,
         e.probability, e.center.x, e.center.y, e.radius, e.vertical ? 1 : 0,
         e.boundary);
}

fault::FaultEvent decode_fault_event(const std::string& value) {
  const auto f = util::split(value, ' ');
  MANET_CHECK(f.size() == 11, "bad fault event '" << value << "'");
  const long kind = parse_long(f[0]);
  MANET_CHECK(
      kind >= 0 &&
          kind <= static_cast<long>(fault::FaultKind::kBatteryDepleted),
      "bad fault kind " << kind);
  fault::FaultEvent e;
  e.kind = static_cast<fault::FaultKind>(kind);
  e.at = parse_dbits(f[1]);
  e.until = parse_dbits(f[2]);
  e.node = static_cast<net::NodeId>(parse_u64(f[3]));
  e.peer = static_cast<net::NodeId>(parse_u64(f[4]));
  e.probability = parse_dbits(f[5]);
  e.center = {parse_dbits(f[6]), parse_dbits(f[7])};
  e.radius = parse_dbits(f[8]);
  e.vertical = parse_u64(f[9]) != 0;
  e.boundary = parse_dbits(f[10]);
  return e;
}

std::string sanitize_for_filename(std::string_view s) {
  std::string out;
  out.reserve(std::min<std::size_t>(s.size(), 32));
  for (const char c : s.substr(0, 32)) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    out.push_back(ok ? c : '_');
  }
  return out.empty() ? "run" : out;
}

}  // namespace

std::string cache_epoch() {
  if (const char* env = std::getenv("MANET_CACHE_EPOCH")) {
    if (*env != '\0') {
      return env;
    }
  }
  return kCacheEpoch;
}

std::string canonical_scenario_text(const Scenario& s) {
  RecordWriter w("manet-scenario/1\n", 2048);
  w.line("n_nodes", s.n_nodes);
  w.line("seed", s.seed);
  w.line("tx_range", s.tx_range);
  w.line("sim_time", s.sim_time);
  w.line("warmup", s.warmup);
  w.line("sample_period", s.sample_period);
  w.line("propagation", s.propagation);
  w.line("pathloss_exponent", s.pathloss_exponent);
  w.line("shadowing_sigma_db", s.shadowing_sigma_db);
  w.line("mobility", mobility::model_kind_name(s.fleet.kind));
  w.line("field", s.fleet.field.width, s.fleet.field.height);
  w.line("max_speed", s.fleet.max_speed);
  w.line("min_speed", s.fleet.min_speed);
  w.line("pause_time", s.fleet.pause_time);
  w.line("walk_epoch", s.fleet.walk_epoch);
  w.line("gm_alpha", s.fleet.gm_alpha);
  w.line("gm_sigma", s.fleet.gm_sigma);
  w.line("rpgm_group_size", s.fleet.rpgm_group_size);
  w.line("rpgm_offset_radius", s.fleet.rpgm_offset_radius);
  w.line("rpgm_offset_speed", s.fleet.rpgm_offset_speed);
  const mobility::HighwayParams& h = s.fleet.highway;
  w.line("highway", h.length, h.lane_width, h.lanes_per_direction,
         h.mean_speed, h.speed_stddev, h.jitter_sigma, h.jitter_alpha,
         h.update_step);
  const mobility::ManhattanParams& m = s.fleet.manhattan;
  w.line("manhattan", m.field.width, m.field.height, m.block_size,
         m.min_speed, m.max_speed, m.turn_probability, m.speed_epoch);
  const net::NetworkParams& n = s.net;
  w.line("net", n.broadcast_interval, n.neighbor_timeout,
         n.per_beacon_jitter, n.packet_loss, n.collision_window,
         n.delivery_delay, n.speed_bound, n.grid_refresh);
  // The energy line exists only when the battery model is on: a disabled
  // model is physically identical to a pre-energy build, so its key (and
  // the golden cache-key pin) must not move.
  if (s.energy.enabled) {
    const net::EnergyParams& e = s.energy;
    w.line("energy", e.capacity_j, e.capacity_jitter, e.idle_drain_w,
           e.hello_tx_cost_j, e.hello_rx_cost_j, e.msg_tx_cost_j,
           e.msg_rx_cost_j);
  }
  const fault::ScheduleSpec& f = s.faults;
  w.line("faults", f.begin, f.end, f.crash_rate, f.mean_downtime,
         f.churn_rate, f.mean_absence, f.loss_burst_rate,
         f.loss_burst_duration, f.loss_burst_probability, f.jam_rate,
         f.jam_duration, f.jam_radius, f.jam_probability, f.partitions,
         f.partition_duration);
  w.line("fault_extra_count", f.extra.size());
  for (const fault::FaultEvent& e : f.extra) {
    put_fault_event(w, "fault_extra", e);
  }
  w.line("obs_metrics", s.obs.metrics ? 1 : 0);
  w.line("obs_trace", obs::trace_level_name(s.obs.trace));
  w.line("obs_counter_sample_period", s.obs.counter_sample_period);
  if (!s.obs.trace_path.empty()) {
    w.line("obs_trace_path", s.obs.trace_path);
  }
  if (!s.obs.tag.empty()) {
    w.line("obs_tag", s.obs.tag);
  }
  return w.take();
}

Scenario decode_canonical_scenario(const std::string& text) {
  const std::string header = "manet-scenario/1\n";
  MANET_CHECK(text.rfind(header, 0) == 0,
              "not a canonical scenario record");
  LineReader body(text.substr(header.size()));
  Scenario s;
  s.n_nodes = static_cast<std::size_t>(body.expect_u("n_nodes"));
  s.seed = body.expect_u("seed");
  s.tx_range = body.expect_d("tx_range");
  s.sim_time = body.expect_d("sim_time");
  s.warmup = body.expect_d("warmup");
  s.sample_period = body.expect_d("sample_period");
  s.propagation = body.expect("propagation");
  s.pathloss_exponent = body.expect_d("pathloss_exponent");
  s.shadowing_sigma_db = body.expect_d("shadowing_sigma_db");
  s.fleet.kind = mobility::parse_model_kind(body.expect("mobility"));
  {
    const auto f = util::split(body.expect("field"), ' ');
    MANET_CHECK(f.size() == 2, "bad field line");
    s.fleet.field = geom::Rect(parse_dbits(f[0]), parse_dbits(f[1]));
  }
  s.fleet.max_speed = body.expect_d("max_speed");
  s.fleet.min_speed = body.expect_d("min_speed");
  s.fleet.pause_time = body.expect_d("pause_time");
  s.fleet.walk_epoch = body.expect_d("walk_epoch");
  s.fleet.gm_alpha = body.expect_d("gm_alpha");
  s.fleet.gm_sigma = body.expect_d("gm_sigma");
  s.fleet.rpgm_group_size =
      static_cast<std::size_t>(body.expect_u("rpgm_group_size"));
  s.fleet.rpgm_offset_radius = body.expect_d("rpgm_offset_radius");
  s.fleet.rpgm_offset_speed = body.expect_d("rpgm_offset_speed");
  {
    const auto f = util::split(body.expect("highway"), ' ');
    MANET_CHECK(f.size() == 8, "bad highway line");
    mobility::HighwayParams& h = s.fleet.highway;
    h.length = parse_dbits(f[0]);
    h.lane_width = parse_dbits(f[1]);
    h.lanes_per_direction = static_cast<int>(parse_long(f[2]));
    h.mean_speed = parse_dbits(f[3]);
    h.speed_stddev = parse_dbits(f[4]);
    h.jitter_sigma = parse_dbits(f[5]);
    h.jitter_alpha = parse_dbits(f[6]);
    h.update_step = parse_dbits(f[7]);
  }
  {
    const auto f = util::split(body.expect("manhattan"), ' ');
    MANET_CHECK(f.size() == 7, "bad manhattan line");
    mobility::ManhattanParams& m = s.fleet.manhattan;
    m.field = geom::Rect(parse_dbits(f[0]), parse_dbits(f[1]));
    m.block_size = parse_dbits(f[2]);
    m.min_speed = parse_dbits(f[3]);
    m.max_speed = parse_dbits(f[4]);
    m.turn_probability = parse_dbits(f[5]);
    m.speed_epoch = parse_dbits(f[6]);
  }
  {
    const auto f = util::split(body.expect("net"), ' ');
    MANET_CHECK(f.size() == 8, "bad net line");
    net::NetworkParams& n = s.net;
    n.broadcast_interval = parse_dbits(f[0]);
    n.neighbor_timeout = parse_dbits(f[1]);
    n.per_beacon_jitter = parse_dbits(f[2]);
    n.packet_loss = parse_dbits(f[3]);
    n.collision_window = parse_dbits(f[4]);
    n.delivery_delay = parse_dbits(f[5]);
    n.speed_bound = parse_dbits(f[6]);
    n.grid_refresh = parse_dbits(f[7]);
  }
  if (auto v = body.take("energy")) {
    const auto f = util::split(*v, ' ');
    MANET_CHECK(f.size() == 7, "bad energy line");
    net::EnergyParams& e = s.energy;
    e.enabled = true;
    e.capacity_j = parse_dbits(f[0]);
    e.capacity_jitter = parse_dbits(f[1]);
    e.idle_drain_w = parse_dbits(f[2]);
    e.hello_tx_cost_j = parse_dbits(f[3]);
    e.hello_rx_cost_j = parse_dbits(f[4]);
    e.msg_tx_cost_j = parse_dbits(f[5]);
    e.msg_rx_cost_j = parse_dbits(f[6]);
  }
  {
    const auto f = util::split(body.expect("faults"), ' ');
    MANET_CHECK(f.size() == 15, "bad faults line");
    fault::ScheduleSpec& fs = s.faults;
    fs.begin = parse_dbits(f[0]);
    fs.end = parse_dbits(f[1]);
    fs.crash_rate = parse_dbits(f[2]);
    fs.mean_downtime = parse_dbits(f[3]);
    fs.churn_rate = parse_dbits(f[4]);
    fs.mean_absence = parse_dbits(f[5]);
    fs.loss_burst_rate = parse_dbits(f[6]);
    fs.loss_burst_duration = parse_dbits(f[7]);
    fs.loss_burst_probability = parse_dbits(f[8]);
    fs.jam_rate = parse_dbits(f[9]);
    fs.jam_duration = parse_dbits(f[10]);
    fs.jam_radius = parse_dbits(f[11]);
    fs.jam_probability = parse_dbits(f[12]);
    fs.partitions = static_cast<int>(parse_long(f[13]));
    fs.partition_duration = parse_dbits(f[14]);
  }
  const std::uint64_t extras = body.expect_count("fault_extra_count");
  s.faults.extra.reserve(extras);
  for (std::uint64_t i = 0; i < extras; ++i) {
    s.faults.extra.push_back(decode_fault_event(body.expect("fault_extra")));
  }
  s.obs.metrics = body.expect_u("obs_metrics") != 0;
  s.obs.trace = obs::parse_trace_level(body.expect("obs_trace"));
  s.obs.counter_sample_period = body.expect_d("obs_counter_sample_period");
  if (auto v = body.take("obs_trace_path")) {
    s.obs.trace_path = *v;
  }
  if (auto v = body.take("obs_tag")) {
    s.obs.tag = *v;
  }
  return s;
}

std::string cache_key(const Scenario& s, const std::string& algorithm) {
  // Identity excludes presentation-only fields: where a trace is written
  // (and under which tag) never changes the result bytes. The effective
  // trace *level* stays in — kFull schedules sampler events, which moves
  // events_executed.
  Scenario keyed = s;
  if (keyed.obs.trace == obs::TraceLevel::kOff &&
      !keyed.obs.trace_path.empty()) {
    keyed.obs.trace = obs::TraceLevel::kSpans;  // run_scenario's promotion
  }
  keyed.obs.trace_path.clear();
  keyed.obs.tag.clear();
  util::Fnv64 h;
  h.update("manet-cache-key/1\n");
  h.update("epoch = " + cache_epoch() + "\n");
  h.update("algorithm = " + algorithm + "\n");
  h.update(canonical_scenario_text(keyed));
  return util::hex64(h.digest());
}

std::string cache_cell_filename(const Scenario& s,
                                const std::string& algorithm) {
  return sanitize_for_filename(algorithm) + "-s" + std::to_string(s.seed) +
         "-" + cache_key(s, algorithm) + ".cell";
}

std::string encode_cell(const RunResult& r) {
  RecordWriter w("manet-cell/1\n", 4096);
  w.line("ch_changes", r.ch_changes);
  w.line("head_gains", r.head_gains);
  w.line("head_losses", r.head_losses);
  w.line("reaffiliations", r.reaffiliations);
  w.line("mean_head_lifetime", r.mean_head_lifetime);
  w.line("avg_clusters", r.avg_clusters);
  w.line("avg_gateways", r.avg_gateways);
  w.line("avg_undecided", r.avg_undecided);
  w.line("avg_cluster_size", r.avg_cluster_size);
  w.line("mean_degree", r.mean_degree);
  w.line("beacons_sent", r.beacons_sent);
  w.line("hellos_delivered", r.hellos_delivered);
  w.line("bytes_sent", r.bytes_sent);
  w.line("events_executed", r.events_executed);
  const cluster::ValidationReport& v = r.final_validation;
  w.line("validation", v.undecided, v.head_pairs_in_range,
         v.members_beyond_head_range, v.members_of_non_head,
         v.connected_nodes, v.dead_nodes);
  w.line("faults_injected", r.faults_injected);
  w.line("recoveries", r.recoveries);
  w.line("mean_recovery_s", r.mean_recovery_s);
  w.line("max_recovery_s", r.max_recovery_s);
  w.line("unrecovered_disruptions", r.unrecovered_disruptions);
  w.line("orphaned_member_seconds", r.orphaned_member_seconds);
  w.line("convergence_samples", r.convergence_samples);
  w.line("violation_samples", r.violation_samples);
  w.line("final_heads", r.final_heads);
  w.line("energy_initial_j", r.energy_initial_j);
  w.line("energy_residual_j", r.energy_residual_j);
  w.line("energy_drained_j", r.energy_drained_j);
  w.line("battery_deaths", r.battery_deaths);
  w.line("head_tenure_fairness", r.head_tenure_fairness);
  w.line("fault_count", r.fault_timeline.size());
  for (const fault::FaultEvent& e : r.fault_timeline) {
    put_fault_event(w, "fault", e);
  }
  w.line("counter_count", r.metrics.counters.size());
  for (const auto& c : r.metrics.counters) {
    MANET_CHECK(c.name.find_first_of(" \n") == std::string::npos,
                "counter name '" << c.name << "' not cell-serializable");
    w.line("counter", c.name, c.value);
  }
  w.line("histogram_count", r.metrics.histograms.size());
  for (const auto& hg : r.metrics.histograms) {
    MANET_CHECK(hg.name.find_first_of(" \n") == std::string::npos,
                "histogram name '" << hg.name << "' not cell-serializable");
    MANET_CHECK(hg.counts.size() == hg.bounds.size() + 1,
                "histogram '" << hg.name << "' bucket shape");
    w.begin("histogram");
    w.add(hg.name);
    w.add(hg.bounds.size());
    for (const double b : hg.bounds) {
      w.add(b);
    }
    for (const std::uint64_t c : hg.counts) {
      w.add(c);
    }
    w.add(hg.sum);
    w.end();
  }
  // The digest covers every byte above its own line.
  const std::uint64_t digest = util::Fnv64::hash(w.text());
  w.begin("digest");
  w.add_hex(digest);
  w.end();
  return w.take();
}

RunResult decode_cell(const std::string& text) {
  // Integrity first: the trailing digest covers every byte above it.
  const std::string marker = "digest = ";
  const std::size_t pos = text.rfind(marker);
  MANET_CHECK(pos != std::string::npos && pos > 0 && text[pos - 1] == '\n',
              "cell record has no digest line");
  const std::string body = text.substr(0, pos);
  std::string stated = text.substr(pos + marker.size());
  if (!stated.empty() && stated.back() == '\n') {
    stated.pop_back();
  }
  MANET_CHECK(stated == util::hex64(util::Fnv64::hash(body)),
              "cell digest mismatch (truncated or edited cell)");
  MANET_CHECK(body.rfind("manet-cell/1\n", 0) == 0,
              "not a cell record");

  LineReader r(body.substr(std::string("manet-cell/1\n").size()));
  RunResult res;
  res.ch_changes = r.expect_u("ch_changes");
  res.head_gains = r.expect_u("head_gains");
  res.head_losses = r.expect_u("head_losses");
  res.reaffiliations = r.expect_u("reaffiliations");
  res.mean_head_lifetime = r.expect_d("mean_head_lifetime");
  res.avg_clusters = r.expect_d("avg_clusters");
  res.avg_gateways = r.expect_d("avg_gateways");
  res.avg_undecided = r.expect_d("avg_undecided");
  res.avg_cluster_size = r.expect_d("avg_cluster_size");
  res.mean_degree = r.expect_d("mean_degree");
  res.beacons_sent = r.expect_u("beacons_sent");
  res.hellos_delivered = r.expect_u("hellos_delivered");
  res.bytes_sent = r.expect_u("bytes_sent");
  res.events_executed = r.expect_u("events_executed");
  {
    const auto f = util::split(r.expect("validation"), ' ');
    MANET_CHECK(f.size() == 6, "bad validation line");
    cluster::ValidationReport& v = res.final_validation;
    v.undecided = static_cast<std::size_t>(parse_u64(f[0]));
    v.head_pairs_in_range = static_cast<std::size_t>(parse_u64(f[1]));
    v.members_beyond_head_range = static_cast<std::size_t>(parse_u64(f[2]));
    v.members_of_non_head = static_cast<std::size_t>(parse_u64(f[3]));
    v.connected_nodes = static_cast<std::size_t>(parse_u64(f[4]));
    v.dead_nodes = static_cast<std::size_t>(parse_u64(f[5]));
  }
  res.faults_injected = r.expect_u("faults_injected");
  res.recoveries = r.expect_u("recoveries");
  res.mean_recovery_s = r.expect_d("mean_recovery_s");
  res.max_recovery_s = r.expect_d("max_recovery_s");
  res.unrecovered_disruptions = r.expect_u("unrecovered_disruptions");
  res.orphaned_member_seconds = r.expect_d("orphaned_member_seconds");
  res.convergence_samples = r.expect_u("convergence_samples");
  res.violation_samples = r.expect_u("violation_samples");
  res.final_heads = r.expect_u("final_heads");
  res.energy_initial_j = r.expect_d("energy_initial_j");
  res.energy_residual_j = r.expect_d("energy_residual_j");
  res.energy_drained_j = r.expect_d("energy_drained_j");
  res.battery_deaths = r.expect_u("battery_deaths");
  res.head_tenure_fairness = r.expect_d("head_tenure_fairness");
  const std::uint64_t faults = r.expect_count("fault_count");
  res.fault_timeline.reserve(faults);
  for (std::uint64_t i = 0; i < faults; ++i) {
    res.fault_timeline.push_back(decode_fault_event(r.expect("fault")));
  }
  const std::uint64_t counters = r.expect_count("counter_count");
  res.metrics.counters.reserve(counters);
  for (std::uint64_t i = 0; i < counters; ++i) {
    const std::string v = r.expect("counter");
    const auto sp = v.rfind(' ');
    MANET_CHECK(sp != std::string::npos && sp > 0, "bad counter line");
    obs::Snapshot::CounterCell cell;
    cell.name = v.substr(0, sp);
    cell.value = parse_u64(v.substr(sp + 1));
    res.metrics.counters.push_back(std::move(cell));
  }
  const std::uint64_t histograms = r.expect_count("histogram_count");
  res.metrics.histograms.reserve(histograms);
  for (std::uint64_t i = 0; i < histograms; ++i) {
    const auto f = util::split(r.expect("histogram"), ' ');
    MANET_CHECK(f.size() >= 3, "bad histogram line");
    obs::Snapshot::HistogramCell cell;
    cell.name = f[0];
    const std::uint64_t nb = parse_u64(f[1]);
    // nb < f.size() first: it keeps the size sum below from wrapping.
    MANET_CHECK(nb < f.size() && f.size() == 2 + nb + (nb + 1) + 1,
                "bad histogram line for '" << cell.name << "'");
    cell.bounds.reserve(nb);
    for (std::uint64_t b = 0; b < nb; ++b) {
      cell.bounds.push_back(parse_dbits(f[2 + b]));
    }
    cell.counts.reserve(nb + 1);
    for (std::uint64_t c = 0; c <= nb; ++c) {
      cell.counts.push_back(parse_u64(f[2 + nb + c]));
    }
    cell.sum = parse_dbits(f.back());
    res.metrics.histograms.push_back(std::move(cell));
  }
  return res;
}

std::string first_cell_difference(const std::string& fresh,
                                  const std::string& cached) {
  std::istringstream fin(fresh);
  std::istringstream cin_(cached);
  std::string fline;
  std::string cline;
  for (std::size_t lineno = 1;; ++lineno) {
    const bool fok = static_cast<bool>(std::getline(fin, fline));
    const bool cok = static_cast<bool>(std::getline(cin_, cline));
    if (!fok && !cok) {
      return {};  // byte-identical (modulo a trailing newline, which both
                  // encoders always emit)
    }
    if (fok && cok && fline == cline) {
      continue;
    }
    // Name the field when the diverging line is a "key = value" line.
    const std::string& named = fok ? fline : cline;
    const std::size_t sep = named.find(" = ");
    std::ostringstream os;
    if (sep != std::string::npos) {
      os << "field '" << named.substr(0, sep) << "' (line " << lineno
         << "): ";
    } else {
      os << "line " << lineno << ": ";
    }
    os << "recomputed "
       << (fok ? "'" + fline + "'" : "<record ended>") << " vs cached "
       << (cok ? "'" + cline + "'" : "<record ended>");
    return os.str();
  }
}

std::string encode_cell_meta(const std::string& algorithm,
                             const std::string& scenario_text) {
  MANET_CHECK(algorithm.find('\n') == std::string::npos,
              "algorithm label not meta-serializable");
  return "manet-cell-meta/1\nalgorithm = " + algorithm + "\n" +
         scenario_text;
}

CellMeta decode_cell_meta(const std::string& text) {
  const std::string header = "manet-cell-meta/1\n";
  MANET_CHECK(text.rfind(header, 0) == 0, "not a cell meta record");
  const std::string marker = "algorithm = ";
  MANET_CHECK(text.compare(header.size(), marker.size(), marker) == 0,
              "cell meta record has no algorithm line");
  const std::size_t alg_begin = header.size() + marker.size();
  const std::size_t alg_end = text.find('\n', alg_begin);
  MANET_CHECK(alg_end != std::string::npos, "truncated cell meta record");
  CellMeta meta;
  meta.algorithm = text.substr(alg_begin, alg_end - alg_begin);
  meta.scenario_text = text.substr(alg_end + 1);
  // Round-trip the scenario now so a torn sidecar fails here, at the
  // decode boundary, not later inside a repair run.
  (void)decode_canonical_scenario(meta.scenario_text);
  return meta;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  MANET_CHECK(!dir_.empty(), "empty cache directory");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  MANET_CHECK(!ec, "cannot create cache directory " << dir_ << ": "
                                                    << ec.message());
}

std::string ResultCache::path_for(const std::string& filename) const {
  return dir_ + "/" + filename;
}

std::optional<RunResult> ResultCache::load(const std::string& filename,
                                           std::string* raw_text) {
  const std::string path = path_for(filename);
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  try {
    RunResult result = decode_cell(text);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.hits;
    }
    if (raw_text != nullptr) {
      *raw_text = std::move(text);
    }
    return result;
  } catch (const util::CheckError& e) {
    // Truncated, edited, or written by an incompatible build without an
    // epoch bump: never reused — recomputed and overwritten.
    MANET_LOG(Warn) << "corrupt cache cell " << path << ": " << e.what()
                    << " (recomputing)";
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.corrupt;
    return std::nullopt;
  }
}

void ResultCache::store(const std::string& filename, const RunResult& result,
                        const std::string& meta_text) {
  const std::string cell = encode_cell(result);
  const auto publish = [&](const std::string& name,
                           const std::string& bytes) {
    std::string tmp;
    {
      std::lock_guard<std::mutex> lock(mu_);
      tmp = dir_ + "/.tmp-" + std::to_string(tmp_seq_++) + "-" + name;
    }
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      MANET_CHECK(out.is_open(), "cannot write cache cell " << tmp);
      out << bytes;
    }
    // rename() within one directory is atomic: readers see the old cell,
    // no cell, or the complete new cell — never a torn write.
    std::error_code ec;
    std::filesystem::rename(tmp, path_for(name), ec);
    MANET_CHECK(!ec, "cannot publish cache cell " << path_for(name) << ": "
                                                  << ec.message());
  };
  publish(filename, cell);
  if (!meta_text.empty()) {
    publish(filename + ".meta", meta_text);
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.stores;
}

void ResultCache::note_verified() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.verified;
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

namespace {

std::string read_file_or_empty(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in.is_open()) {
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Moves `from` under quarantine_dir, replacing any previous quarantined
/// copy of the same name (a re-scrub must not fail on its own leftovers).
void move_to_quarantine(const std::filesystem::path& from,
                        const std::filesystem::path& quarantine_dir) {
  std::error_code ec;
  std::filesystem::create_directories(quarantine_dir, ec);
  MANET_CHECK(!ec, "cannot create " << quarantine_dir.string() << ": "
                                    << ec.message());
  const std::filesystem::path to = quarantine_dir / from.filename();
  std::filesystem::remove(to, ec);
  ec.clear();
  std::filesystem::rename(from, to, ec);
  MANET_CHECK(!ec, "cannot quarantine " << from.string() << ": "
                                        << ec.message());
}

}  // namespace

ScrubReport scrub_cache(const std::string& dir, bool repair,
                        std::ostream* log) {
  namespace fs = std::filesystem;
  MANET_CHECK(fs::is_directory(dir),
              "--scrub-cache: " << dir << " is not a directory");
  const fs::path root(dir);
  const fs::path quarantine = root / "quarantine";

  // Sorted filename order: deterministic reports and deterministic
  // repair-recompute order no matter what readdir() returns.
  std::vector<std::string> cells;
  std::vector<std::string> strays;
  for (const auto& entry : fs::directory_iterator(root)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string name = entry.path().filename().string();
    if (name.rfind(".tmp-", 0) == 0) {
      strays.push_back(name);
    } else if (name.size() > 5 &&
               name.compare(name.size() - 5, 5, ".cell") == 0) {
      cells.push_back(name);
    }
  }
  std::sort(cells.begin(), cells.end());
  std::sort(strays.begin(), strays.end());

  ScrubReport report;
  for (const std::string& name : strays) {
    move_to_quarantine(root / name, quarantine);
    ++report.stray_tmp;
    if (log != nullptr) {
      *log << "scrub: quarantined stray temp file " << name << "\n";
    }
  }
  for (const std::string& name : cells) {
    ++report.scanned;
    const fs::path cell_path = root / name;
    std::string why;
    try {
      (void)decode_cell(read_file_or_empty(cell_path));
      ++report.ok;
      continue;
    } catch (const util::CheckError& e) {
      why = e.what();
    }
    ++report.corrupt;
    if (log != nullptr) {
      *log << "scrub: corrupt cell " << name << ": " << why << "\n";
    }
    move_to_quarantine(cell_path, quarantine);
    if (!repair) {
      continue;  // the .meta sidecar (if any) stays in place so a later
                 // --scrub-repair pass can still recompute the cell
    }
    // Repair path: the .meta sidecar carries the cell's inputs; recompute
    // and publish under the *canonical* filename for the current epoch
    // (identical to `name` unless the corrupt cell came from another
    // epoch — then the recompute fills today's key and the stale name
    // stays quarantined).
    const fs::path meta_path = root / (name + ".meta");
    bool repaired = false;
    if (fs::exists(meta_path)) {
      try {
        const CellMeta meta = decode_cell_meta(read_file_or_empty(meta_path));
        const Scenario scenario =
            decode_canonical_scenario(meta.scenario_text);
        const RunResult fresh =
            run_scenario(scenario, factory_by_name(meta.algorithm));
        ResultCache cache(dir);
        cache.store(cache_cell_filename(scenario, meta.algorithm), fresh,
                    encode_cell_meta(meta.algorithm, meta.scenario_text));
        repaired = true;
      } catch (const util::CheckError& e) {
        if (log != nullptr) {
          *log << "scrub: cannot repair " << name << ": " << e.what()
               << "\n";
        }
      }
    }
    if (repaired) {
      ++report.repaired;
      if (log != nullptr) {
        *log << "scrub: repaired " << name << " by recompute\n";
      }
    } else {
      ++report.unrepairable;
    }
  }
  if (log != nullptr) {
    *log << "scrub: " << report.scanned << " cells, " << report.ok
         << " ok, " << report.corrupt << " corrupt, " << report.repaired
         << " repaired, " << report.unrepairable << " unrepairable, "
         << report.stray_tmp << " stray temp files\n";
  }
  return report;
}

}  // namespace manet::scenario
