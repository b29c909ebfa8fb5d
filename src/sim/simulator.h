// The discrete-event simulator: replaces the ns-2 scheduler for this
// reproduction. Single-threaded; event handlers may schedule and cancel
// further events freely.
#pragma once

#include <cstdint>

#include "obs/hooks.h"
#include "sim/event_queue.h"
#include "util/assert.h"

namespace manet::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time (seconds). 0 before the first event fires.
  Time now() const { return now_; }

  /// Pre-sizes the event queue for `capacity` concurrent events (see
  /// EventQueue::reserve).
  void reserve_events(std::size_t capacity) { queue_.reserve(capacity); }

  /// Schedules `fn` at absolute time `t` (>= now). Returns a handle usable
  /// with cancel().
  EventId schedule_at(Time t, EventFn fn) {
    MANET_CHECK(t >= now_, "scheduling into the past: " << t << " < " << now_);
    return queue_.push(t, std::move(fn));
  }

  /// Schedules `fn` after `delay` seconds (>= 0).
  EventId schedule_in(Time delay, EventFn fn) {
    MANET_CHECK(delay >= 0.0, "negative delay " << delay);
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancels a pending event; returns false if it already fired/cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }
  bool pending(EventId id) const { return queue_.pending(id); }

  /// Runs events in order until the queue drains or stop() is called.
  void run();

  /// Runs events with time <= t_end, then advances the clock to exactly
  /// t_end (even if the queue still holds later events).
  void run_until(Time t_end);

  /// Fires the single earliest event. Returns false if the queue is empty.
  bool step();

  /// Makes run()/run_until() return after the current handler completes.
  void stop() { stopped_ = true; }

  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t events_executed() const { return executed_; }
  std::uint64_t events_scheduled() const { return queue_.total_scheduled(); }

  /// Observability hooks (may be null; must outlive the simulator). The
  /// queue-depth histogram is sampled every SimHooks::kQueueDepthSamplePeriod
  /// executed events.
  void set_hooks(const obs::SimHooks* hooks) { hooks_ = hooks; }

 private:
  void sample_queue_depth();

  EventQueue queue_;
  Time now_ = 0.0;
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
  const obs::SimHooks* hooks_ = nullptr;
};

}  // namespace manet::sim
