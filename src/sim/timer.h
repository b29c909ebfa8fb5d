// Timer helpers built on the simulator.
//
// PeriodicTimer — fires a callback every `period` seconds starting at
//   `first_at`; models the Hello broadcast-interval timer.
// OneShotTimer  — restartable single-shot timer; models the MOBIC Cluster
//   Contention Interval (CCI) deferral.
//
// Both hold a reference to the Simulator and must not outlive it.
#pragma once

#include "sim/simulator.h"

namespace manet::sim {

class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, EventFn on_fire)
      : sim_(sim), on_fire_(std::move(on_fire)) {
    MANET_CHECK(on_fire_ != nullptr);
  }
  ~PeriodicTimer() { stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Starts firing at absolute time `first_at`, then every `period` seconds.
  void start(Time first_at, Time period);
  void stop();
  bool running() const { return event_ != kNoEvent; }
  Time period() const { return period_; }

  /// Changes the period; takes effect from the next firing (used by the
  /// mobility-adaptive beacon-interval extension).
  void set_period(Time period);

 private:
  void fire();

  Simulator& sim_;
  EventFn on_fire_;
  Time period_ = 0.0;
  EventId event_ = kNoEvent;
};

class OneShotTimer {
 public:
  OneShotTimer(Simulator& sim, EventFn on_fire)
      : sim_(sim), on_fire_(std::move(on_fire)) {
    MANET_CHECK(on_fire_ != nullptr);
  }
  ~OneShotTimer() { cancel(); }

  OneShotTimer(const OneShotTimer&) = delete;
  OneShotTimer& operator=(const OneShotTimer&) = delete;

  /// (Re)arms the timer `delay` seconds from now, replacing any pending
  /// expiry.
  void arm(Time delay);
  /// Cancels a pending expiry; no-op when idle.
  void cancel();
  bool armed() const { return event_ != kNoEvent && sim_.pending(event_); }

 private:
  Simulator& sim_;
  EventFn on_fire_;
  EventId event_ = kNoEvent;
};

}  // namespace manet::sim
