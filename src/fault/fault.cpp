#include "fault/fault.h"

#include <algorithm>
#include <sstream>

#include "util/assert.h"

namespace manet::fault {

bool is_window(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLossBurst:
    case FaultKind::kJam:
    case FaultKind::kPartition:
      return true;
    case FaultKind::kCrash:
    case FaultKind::kRecover:
    case FaultKind::kChurnLeave:
    case FaultKind::kChurnJoin:
    case FaultKind::kBatteryDepleted:
      return false;
  }
  return false;
}

const char* kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kRecover:
      return "recover";
    case FaultKind::kChurnLeave:
      return "churn_leave";
    case FaultKind::kChurnJoin:
      return "churn_join";
    case FaultKind::kLossBurst:
      return "loss_burst";
    case FaultKind::kJam:
      return "jam";
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kBatteryDepleted:
      return "battery_depleted";
  }
  return "unknown";
}

std::string to_json(const FaultEvent& event) {
  std::ostringstream oss;
  oss << "{\"t\":" << event.at << ",\"kind\":\"" << kind_name(event.kind)
      << "\"";
  if (is_window(event.kind)) {
    oss << ",\"until\":" << event.until;
  }
  if (event.node != net::kInvalidNode) {
    oss << ",\"node\":" << event.node;
  }
  if (event.peer != net::kInvalidNode) {
    oss << ",\"peer\":" << event.peer;
  }
  switch (event.kind) {
    case FaultKind::kLossBurst:
      oss << ",\"p\":" << event.probability;
      break;
    case FaultKind::kJam:
      oss << ",\"p\":" << event.probability << ",\"x\":" << event.center.x
          << ",\"y\":" << event.center.y << ",\"r\":" << event.radius;
      break;
    case FaultKind::kPartition:
      oss << ",\"axis\":\"" << (event.vertical ? "x" : "y")
          << "\",\"boundary\":" << event.boundary;
      break;
    default:
      break;
  }
  oss << "}";
  return oss.str();
}

namespace {

// Canonical deterministic order: activation time, then kind, then target.
bool event_less(const FaultEvent& a, const FaultEvent& b) {
  if (a.at != b.at) {
    return a.at < b.at;
  }
  if (a.kind != b.kind) {
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  }
  return a.node < b.node;
}

}  // namespace

void Schedule::add(FaultEvent event) {
  events.push_back(event);
  std::stable_sort(events.begin(), events.end(), event_less);
}

void Schedule::validate(std::size_t n_nodes) const {
  for (const FaultEvent& e : events) {
    MANET_CHECK(e.at >= 0.0, "" << kind_name(e.kind) << " at negative time " << e.at);
    if (is_window(e.kind)) {
      MANET_CHECK(e.until > e.at, "" << kind_name(e.kind) << " window [" << e.at
                                                    << ", " << e.until
                                                    << ") is empty");
      MANET_CHECK(e.probability >= 0.0 && e.probability <= 1.0,
                  "" << kind_name(e.kind) << " probability "
                     << e.probability);
    }
    switch (e.kind) {
      case FaultKind::kCrash:
      case FaultKind::kRecover:
      case FaultKind::kChurnLeave:
      case FaultKind::kChurnJoin:
      case FaultKind::kBatteryDepleted:
        MANET_CHECK(e.node < n_nodes,
                    "" << kind_name(e.kind) << " targets node " << e.node
                                      << " of " << n_nodes);
        break;
      case FaultKind::kLossBurst:
        MANET_CHECK(e.node == net::kInvalidNode || e.node < n_nodes,
                    "loss burst endpoint " << e.node << " of " << n_nodes);
        MANET_CHECK(e.peer == net::kInvalidNode || e.peer < n_nodes,
                    "loss burst endpoint " << e.peer << " of " << n_nodes);
        break;
      case FaultKind::kJam:
        MANET_CHECK(e.radius > 0.0, "jam radius " << e.radius);
        break;
      case FaultKind::kPartition:
        break;
    }
  }
  MANET_CHECK(std::is_sorted(events.begin(), events.end(),
                             [](const FaultEvent& a, const FaultEvent& b) {
                               return a.at < b.at;
                             }),
              "schedule not time-sorted");
}

namespace {

// Up/down bookkeeping for crash & churn generation: victims are drawn from
// the currently-up set; each outage pairs with at most one recovery.
class UpSet {
 public:
  explicit UpSet(std::size_t n) : up_(n) {
    for (std::size_t i = 0; i < n; ++i) {
      up_[i] = static_cast<net::NodeId>(i);
    }
  }

  bool any_up() const { return !up_.empty(); }

  net::NodeId take_down(util::Rng& rng) {
    const std::size_t idx = rng.index(up_.size());
    const net::NodeId victim = up_[idx];
    up_[idx] = up_.back();
    up_.pop_back();
    return victim;
  }

  void bring_up(net::NodeId node) { up_.push_back(node); }

 private:
  std::vector<net::NodeId> up_;
};

}  // namespace

Schedule make_schedule(const ScheduleSpec& spec, std::size_t n_nodes,
                       const geom::Rect& field, util::Rng rng) {
  MANET_CHECK(n_nodes > 0, "schedule for empty network");
  if (spec.any_random()) {
    MANET_CHECK(spec.end > spec.begin,
                "fault window [" << spec.begin << ", " << spec.end << ")");
  }

  Schedule schedule;
  schedule.events = spec.extra;

  // One substream per fault class: adding a class never perturbs the
  // arrivals of another.
  UpSet up(n_nodes);

  const auto generate_outages = [&](double rate, double mean_repair,
                                    FaultKind down, FaultKind restore,
                                    util::Rng stream) {
    if (rate <= 0.0) {
      return;
    }
    MANET_CHECK(mean_repair > 0.0, "mean repair time " << mean_repair);
    double t = spec.begin + stream.exponential_mean(1.0 / rate);
    // Recoveries become visible to the victim pool in time order, so the
    // generated sequence stays causal: collect (time, node) pairs first.
    std::vector<std::pair<sim::Time, net::NodeId>> pending_up;
    while (t < spec.end) {
      // Apply recoveries that happened before this arrival.
      std::sort(pending_up.begin(), pending_up.end());
      while (!pending_up.empty() && pending_up.front().first <= t) {
        up.bring_up(pending_up.front().second);
        pending_up.erase(pending_up.begin());
      }
      if (up.any_up()) {
        const net::NodeId victim = up.take_down(stream);
        schedule.events.push_back({.kind = down, .at = t, .node = victim});
        const double t_up = t + stream.exponential_mean(mean_repair);
        if (t_up < spec.end) {
          schedule.events.push_back(
              {.kind = restore, .at = t_up, .node = victim});
          pending_up.emplace_back(t_up, victim);
        }
        // else: the node stays down to the end of the run.
      }
      t += stream.exponential_mean(1.0 / rate);
    }
  };

  generate_outages(spec.crash_rate, spec.mean_downtime, FaultKind::kCrash,
                   FaultKind::kRecover, rng.substream("crash"));
  generate_outages(spec.churn_rate, spec.mean_absence, FaultKind::kChurnLeave,
                   FaultKind::kChurnJoin, rng.substream("churn"));

  if (spec.loss_burst_rate > 0.0) {
    MANET_CHECK(spec.loss_burst_duration > 0.0);
    MANET_CHECK(spec.loss_burst_probability >= 0.0 &&
                spec.loss_burst_probability <= 1.0);
    util::Rng stream = rng.substream("burst");
    double t = spec.begin + stream.exponential_mean(1.0 / spec.loss_burst_rate);
    while (t < spec.end) {
      FaultEvent e;
      e.kind = FaultKind::kLossBurst;
      e.at = t;
      e.until = t + spec.loss_burst_duration;
      e.node = static_cast<net::NodeId>(stream.index(n_nodes));
      e.probability = spec.loss_burst_probability;
      schedule.events.push_back(e);
      t += stream.exponential_mean(1.0 / spec.loss_burst_rate);
    }
  }

  if (spec.jam_rate > 0.0) {
    MANET_CHECK(spec.jam_duration > 0.0);
    MANET_CHECK(spec.jam_radius > 0.0);
    util::Rng stream = rng.substream("jam");
    double t = spec.begin + stream.exponential_mean(1.0 / spec.jam_rate);
    while (t < spec.end) {
      FaultEvent e;
      e.kind = FaultKind::kJam;
      e.at = t;
      e.until = t + spec.jam_duration;
      e.center = field.sample(stream);
      e.radius = spec.jam_radius;
      e.probability = spec.jam_probability;
      schedule.events.push_back(e);
      t += stream.exponential_mean(1.0 / spec.jam_rate);
    }
  }

  if (spec.partitions > 0) {
    MANET_CHECK(spec.partition_duration > 0.0);
    util::Rng stream = rng.substream("partition");
    const double spacing =
        (spec.end - spec.begin) / static_cast<double>(spec.partitions);
    for (int i = 0; i < spec.partitions; ++i) {
      FaultEvent e;
      e.kind = FaultKind::kPartition;
      e.at = spec.begin + spacing * static_cast<double>(i);
      e.until = std::min(e.at + spec.partition_duration, spec.end);
      e.vertical = (i % 2) == 0;
      const double extent = e.vertical ? field.width : field.height;
      e.boundary = stream.uniform(0.25 * extent, 0.75 * extent);
      schedule.events.push_back(e);
    }
  }

  std::stable_sort(schedule.events.begin(), schedule.events.end(), event_less);
  schedule.validate(n_nodes);
  return schedule;
}

}  // namespace manet::fault
