// Declarative, seed-deterministic fault model.
//
// A fault::Schedule is a flat, time-sorted list of FaultEvents — node
// crashes/recoveries, churn (a node leaving and later rejoining), per-link
// or per-node loss-burst windows, circular beacon-suppression ("jamming")
// zones, and geometric bisection partitions. Schedules are either written by
// hand (tests) or generated from a ScheduleSpec by make_schedule(), which
// draws every arrival time and target from one util::Rng substream — the
// same (spec, n_nodes, field, seed) always yields the same schedule, so a
// replayed run produces an identical fault timeline.
//
// Execution lives in fault::Injector (injector.h); this header is pure data.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "geom/rect.h"
#include "geom/vec2.h"
#include "net/types.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace manet::fault {

enum class FaultKind : std::uint8_t {
  kCrash,       // node fails at `at` (protocol state lost)
  kRecover,     // node restarts at `at` (fresh tables)
  kChurnLeave,  // same mechanics as kCrash; tagged as planned churn
  kChurnJoin,   // same mechanics as kRecover
  kLossBurst,   // window [at, until): matching links drop with `probability`
  kJam,         // window: receivers inside the zone drop with `probability`
  kPartition,   // window: packets crossing the bisection line are dropped
  kBatteryDepleted,  // node's battery reached zero (energy model; injected
                     // at drain time via Injector::inject_now, never
                     // scheduled — same mechanics as kCrash, no recovery)
};

/// True for window faults (have a duration); false for point faults.
bool is_window(FaultKind kind);

/// Stable lower-case name ("crash", "loss_burst", ...), used in logs.
const char* kind_name(FaultKind kind);

/// One fault. Point faults use `at`; window faults are active on
/// [at, until). Fields beyond the common ones are kind-specific and ignored
/// elsewhere.
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  sim::Time at = 0.0;
  sim::Time until = 0.0;  // window faults only; must be > at

  /// Crash/recover/churn: the target node. Loss burst: endpoint filter —
  /// the burst applies to links touching `node` (and, when `peer` is also
  /// set, only the {node, peer} link in either direction). kInvalidNode
  /// means "any".
  net::NodeId node = net::kInvalidNode;
  net::NodeId peer = net::kInvalidNode;

  /// Drop probability for loss bursts and jam zones (1.0 = total outage).
  double probability = 1.0;

  // Jam zone geometry.
  geom::Vec2 center{};
  double radius = 0.0;

  // Partition geometry: a vertical (x = boundary) or horizontal
  // (y = boundary) bisection line.
  bool vertical = true;
  double boundary = 0.0;

  bool operator==(const FaultEvent&) const = default;
};

/// Compact one-line JSON rendering ({"t":..,"kind":"crash","node":3}),
/// used by the runner's JSONL run log.
std::string to_json(const FaultEvent& event);

struct Schedule {
  std::vector<FaultEvent> events;  // sorted by (at, kind, node)

  bool empty() const { return events.empty(); }
  std::size_t size() const { return events.size(); }

  /// Appends and re-sorts (stable deterministic order).
  void add(FaultEvent event);

  /// Throws CheckError unless every event is well-formed for a network of
  /// `n_nodes` nodes: node ids in range, windows non-empty, probabilities
  /// in [0, 1], non-negative times.
  void validate(std::size_t n_nodes) const;
};

/// Stochastic fault workload description; compiled to a concrete Schedule
/// by make_schedule(). All processes are Poisson with the given rates
/// (events per second, network-wide) over the window [begin, end); a rate
/// of zero disables that fault class.
struct ScheduleSpec {
  double begin = 0.0;  // no faults before this time
  double end = 0.0;    // no new faults at/after this time (end > begin)

  /// Node crashes: a uniformly chosen up node fails; it recovers after an
  /// Exp(mean_downtime) outage (nodes whose recovery would land at/after
  /// `end` stay down).
  double crash_rate = 0.0;
  double mean_downtime = 30.0;

  /// Planned churn: like crashes, but tagged kChurnLeave/kChurnJoin and
  /// with its own absence distribution.
  double churn_rate = 0.0;
  double mean_absence = 20.0;

  /// Loss bursts: a uniformly chosen node's links drop with
  /// `loss_burst_probability` for `loss_burst_duration` seconds (a radio
  /// brown-out). Bursts may overlap; the loss stack composes them.
  double loss_burst_rate = 0.0;
  double loss_burst_duration = 5.0;
  double loss_burst_probability = 0.8;

  /// Jamming: a disc of `jam_radius` meters at a uniform position in the
  /// field suppresses receptions for `jam_duration` seconds.
  double jam_rate = 0.0;
  double jam_duration = 10.0;
  double jam_radius = 150.0;
  double jam_probability = 1.0;

  /// Geometric bisections: `partitions` windows of `partition_duration`
  /// seconds, evenly spaced over [begin, end), alternating
  /// vertical/horizontal, each placed uniformly within the middle half of
  /// the field so both sides stay populated.
  int partitions = 0;
  double partition_duration = 30.0;

  /// Hand-written events merged into the generated schedule (this is how
  /// tests and custom scenarios express exact timelines; a spec whose rates
  /// are all zero with only `extra` set is a fully manual schedule).
  std::vector<FaultEvent> extra;

  bool any_random() const {
    return crash_rate > 0.0 || churn_rate > 0.0 || loss_burst_rate > 0.0 ||
           jam_rate > 0.0 || partitions > 0;
  }
  bool empty() const { return !any_random() && extra.empty(); }
};

/// Compiles a spec into a concrete, validated schedule. Deterministic in
/// (spec, n_nodes, field, rng seed). The generator tracks which nodes are
/// up so crash/churn victims are always currently-up nodes and recoveries
/// pair with their outages.
Schedule make_schedule(const ScheduleSpec& spec, std::size_t n_nodes,
                       const geom::Rect& field, util::Rng rng);

}  // namespace manet::fault
