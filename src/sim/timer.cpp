#include "sim/timer.h"

namespace manet::sim {

void PeriodicTimer::start(Time first_at, Time period) {
  MANET_CHECK(period > 0.0, "period=" << period);
  stop();
  period_ = period;
  event_ = sim_.schedule_at(first_at, [this] { fire(); });
}

void PeriodicTimer::stop() {
  if (event_ != kNoEvent) {
    sim_.cancel(event_);
    event_ = kNoEvent;
  }
}

void PeriodicTimer::set_period(Time period) {
  MANET_CHECK(period > 0.0, "period=" << period);
  period_ = period;
}

void PeriodicTimer::fire() {
  // Reschedule before invoking the callback so the callback can stop() or
  // set_period() and observe a consistent timer state.
  event_ = sim_.schedule_in(period_, [this] { fire(); });
  on_fire_();
}

void OneShotTimer::arm(Time delay) {
  cancel();
  event_ = sim_.schedule_in(delay, [this] {
    event_ = kNoEvent;
    on_fire_();
  });
}

void OneShotTimer::cancel() {
  if (event_ != kNoEvent) {
    sim_.cancel(event_);
    event_ = kNoEvent;
  }
}

}  // namespace manet::sim
