// Executes a fault::Schedule against a live simulation.
//
// The Injector registers one simulator event per fault activation (and one
// per window expiry): crashes and churn call Node::fail()/recover(), while
// window faults (loss bursts, jamming zones, partitions) toggle membership
// of an active set that the Injector — itself a net::LossLayer — consults on
// every delivery attempt. arm() registers the injector on the network's loss
// stack and schedules everything; after that the injector is passive.
//
// The applied timeline (what actually fired, in order, with whether it had
// effect) is recorded for observability; an observer callback lets a
// convergence monitor react to each fault as it lands. Both are fully
// deterministic in (schedule, network seed).
#pragma once

#include <functional>
#include <vector>

#include "fault/fault.h"
#include "net/network.h"
#include "obs/hooks.h"

namespace manet::fault {

class Injector final : public net::LossLayer {
 public:
  /// One executed fault: `applied` is false when the action was moot (e.g.
  /// crashing an already-dead node).
  struct Applied {
    FaultEvent event;
    bool applied = true;
  };

  /// The schedule must validate against the network's node count. The
  /// network must outlive the injector.
  Injector(net::Network& network, Schedule schedule);

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// Called as each fault that *had effect* activates (window expiries and
  /// moot activations — crashing an already-dead node — are not reported;
  /// moot ones still land on the timeline with applied=false). Set before
  /// arm().
  void set_on_fault(std::function<void(const FaultEvent&)> on_fault);

  /// Observability hooks; may be null. When set, all counter fields must
  /// be resolved; `hooks->trace` may still be null.
  void set_hooks(const obs::FaultHooks* hooks) { hooks_ = hooks; }

  /// Registers this injector on the network's loss stack and schedules
  /// every fault on the simulator. Call exactly once, before or right after
  /// network start (all events must lie in the future).
  void arm();

  /// Extends the timeline's capacity by `n` beyond the schedule, for
  /// externally generated faults delivered through inject_now() (the energy
  /// model's battery deaths: at most one per node). Keeps mid-run injection
  /// off the allocator; call before the run starts.
  void reserve_external(std::size_t n);

  /// Applies an externally generated point fault immediately: fails the
  /// target (kill mechanics — the node loses protocol state and its beacon
  /// stops), records the event on the timeline, and reports it to hooks and
  /// the on_fault observer exactly like a scheduled activation. The energy
  /// model feeds battery depletions through this path at drain time, so the
  /// fault lands at the exact deterministic instant the battery empties.
  void inject_now(const FaultEvent& e);

  const Schedule& schedule() const { return schedule_; }
  const std::vector<Applied>& timeline() const { return timeline_; }
  std::size_t active_windows() const { return active_.size(); }

  // net::LossLayer: combined drop probability of the active windows.
  double drop_probability(const net::LinkContext& link) const override;

 private:
  void activate(std::size_t index);
  void deactivate(std::size_t index);

  net::Network& network_;
  Schedule schedule_;
  std::function<void(const FaultEvent&)> on_fault_;
  const obs::FaultHooks* hooks_ = nullptr;
  bool armed_ = false;
  std::vector<std::size_t> active_;  // indices into schedule_.events
  std::vector<Applied> timeline_;
};

}  // namespace manet::fault
