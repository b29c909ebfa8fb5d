#include "fault/injector.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/assert.h"

namespace manet::fault {

Injector::Injector(net::Network& network, Schedule schedule)
    : network_(network), schedule_(std::move(schedule)) {
  schedule_.validate(network_.size());
  timeline_.reserve(schedule_.size());
  // Pre-size the active-window set to its worst case (every window fault
  // open at once) so activate() never allocates mid-run — part of the
  // steady-state zero-allocation contract (tests/test_zero_alloc.cpp).
  std::size_t windows = 0;
  for (const FaultEvent& e : schedule_.events) {
    if (is_window(e.kind)) {
      ++windows;
    }
  }
  active_.reserve(windows);
}

void Injector::set_on_fault(std::function<void(const FaultEvent&)> on_fault) {
  on_fault_ = std::move(on_fault);
}

void Injector::arm() {
  MANET_CHECK(!armed_, "injector armed twice");
  armed_ = true;
  network_.add_loss_layer(this);
  sim::Simulator& sim = network_.simulator();
  for (std::size_t i = 0; i < schedule_.events.size(); ++i) {
    const FaultEvent& e = schedule_.events[i];
    sim.schedule_at(e.at, [this, i] { activate(i); });
    if (is_window(e.kind)) {
      sim.schedule_at(e.until, [this, i] { deactivate(i); });
    }
  }
}

void Injector::activate(std::size_t index) {
  const FaultEvent& e = schedule_.events[index];
  bool applied = true;
  switch (e.kind) {
    case FaultKind::kCrash:
    case FaultKind::kChurnLeave:
    case FaultKind::kBatteryDepleted: {
      net::Node& node = network_.node(e.node);
      applied = node.alive();
      if (applied) {
        node.fail();
      }
      break;
    }
    case FaultKind::kRecover:
    case FaultKind::kChurnJoin: {
      net::Node& node = network_.node(e.node);
      applied = !node.alive();
      if (applied) {
        node.recover();
      }
      break;
    }
    case FaultKind::kLossBurst:
    case FaultKind::kJam:
    case FaultKind::kPartition:
      active_.push_back(index);
      break;
  }
  timeline_.push_back({e, applied});
  if (hooks_ != nullptr) {
    (applied ? hooks_->activated : hooks_->moot)->inc();
    if (hooks_->trace != nullptr && applied) {
      if (is_window(e.kind)) {
        // Both endpoints are known up front, so the whole window goes out
        // as one span on the fault track.
        hooks_->trace->complete(obs::TraceSink::kFaultPid,
                                static_cast<int>(index), kind_name(e.kind),
                                e.at, e.until, "node",
                                static_cast<std::int64_t>(e.node));
      } else {
        hooks_->trace->instant(obs::TraceSink::kNodePid,
                               static_cast<int>(e.node), kind_name(e.kind),
                               e.at);
      }
    }
  }
  // Moot activations (e.g. crashing an already-dead node) are recorded on
  // the timeline but not reported: observers such as the convergence
  // monitor would otherwise book a disruption for a fault that changed
  // nothing and could never produce a matching recovery.
  if (applied && on_fault_ != nullptr) {
    on_fault_(e);
  }
}

void Injector::reserve_external(std::size_t n) {
  timeline_.reserve(schedule_.size() + n);
}

void Injector::inject_now(const FaultEvent& e) {
  MANET_CHECK(!is_window(e.kind), "inject_now() takes point faults only");
  MANET_CHECK(e.node < network_.size(),
              "" << kind_name(e.kind) << " targets node " << e.node << " of "
                 << network_.size());
  net::Node& node = network_.node(e.node);
  const bool applied = node.alive();
  if (applied) {
    node.fail();
  }
  timeline_.push_back({e, applied});
  if (hooks_ != nullptr) {
    (applied ? hooks_->activated : hooks_->moot)->inc();
    if (hooks_->trace != nullptr && applied) {
      hooks_->trace->instant(obs::TraceSink::kNodePid,
                             static_cast<int>(e.node), kind_name(e.kind),
                             e.at);
    }
  }
  if (applied && on_fault_ != nullptr) {
    on_fault_(e);
  }
}

void Injector::deactivate(std::size_t index) {
  active_.erase(std::remove(active_.begin(), active_.end(), index),
                active_.end());
  if (hooks_ != nullptr) {
    hooks_->window_expired->inc();
  }
}

double Injector::drop_probability(const net::LinkContext& link) const {
  if (active_.empty()) {
    return 0.0;
  }
  double survive = 1.0;
  for (const std::size_t index : active_) {
    const FaultEvent& e = schedule_.events[index];
    double p = 0.0;
    switch (e.kind) {
      case FaultKind::kLossBurst: {
        const bool touches_node = e.node == net::kInvalidNode ||
                                  e.node == link.src || e.node == link.dst;
        const bool touches_peer = e.peer == net::kInvalidNode ||
                                  e.peer == link.src || e.peer == link.dst;
        if (touches_node && touches_peer) {
          p = e.probability;
        }
        break;
      }
      case FaultKind::kJam:
        // Receiver-side suppression: a jammed receiver hears nothing.
        if (geom::distance(link.dst_pos, e.center) <= e.radius) {
          p = e.probability;
        }
        break;
      case FaultKind::kPartition: {
        const double a = e.vertical ? link.src_pos.x : link.src_pos.y;
        const double b = e.vertical ? link.dst_pos.x : link.dst_pos.y;
        if ((a < e.boundary) != (b < e.boundary)) {
          p = 1.0;
        }
        break;
      }
      default:
        break;
    }
    survive *= 1.0 - p;
    if (survive <= 0.0) {
      return 1.0;
    }
  }
  return 1.0 - survive;
}

}  // namespace manet::fault
