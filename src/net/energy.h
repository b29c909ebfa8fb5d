// Node battery model: the scenario axis behind the energy-aware composite
// protocols (SD_DWCA) and the battery-churn ablations. Each node starts
// with a (seed-jittered) capacity in joules and pays
//
//   - a fixed cost per Hello transmitted / received,
//   - a fixed cost per protocol Message transmitted / received,
//   - a continuous idle draw (watts = joules per simulated second),
//
// all charged from simulator events, so energy state is replayed in exact
// event order. Idle draw is settled lazily: each discrete drain first
// integrates the idle cost since the node's last settlement, and
// settle_all() closes the books at end of run. A node whose battery reaches
// zero is depleted exactly once (a latch survives fault-injected
// recoveries): the on_depleted callback fires and the scenario driver feeds
// it to fault::Injector::inject_now as a kBatteryDepleted point fault. A
// node idling to zero between beacons is detected at its next discrete
// drain — the model's deterministic granularity.
//
// All storage is sized at construction; the drain paths never allocate
// (pinned by test_zero_alloc).
#pragma once

#include <cstdint>
#include <vector>

#include "net/types.h"
#include "obs/hooks.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace manet::net {

struct EnergyParams {
  /// Master switch; a default-constructed (disabled) EnergyParams leaves
  /// every scenario untouched (and out of the result-cache key).
  bool enabled = false;
  /// Mean initial battery capacity in joules.
  double capacity_j = 100.0;
  /// Per-node capacity spread: initial = capacity_j * (1 - jitter * U[0,1)),
  /// drawn from the scenario's "energy" substream. 0 = identical batteries.
  double capacity_jitter = 0.0;
  /// Continuous idle draw in watts (J per simulated second).
  double idle_drain_w = 0.0;
  /// Discrete costs in joules.
  double hello_tx_cost_j = 0.0;
  double hello_rx_cost_j = 0.0;
  double msg_tx_cost_j = 0.0;
  double msg_rx_cost_j = 0.0;

  bool operator==(const EnergyParams&) const = default;
};

class EnergyModel {
 public:
  // Plain function pointer + context, not std::function: the callback is
  // invoked on the drain path, which must never allocate (the lone caller
  // passes a captureless lambda over a fault::Injector*).
  using DepletedFn = void (*)(void* ctx, NodeId node, sim::Time t);

  /// Draws per-node capacities from `rng` (pass a dedicated substream; the
  /// draw order is node id ascending, so capacities are seed-deterministic).
  EnergyModel(const EnergyParams& params, std::size_t n_nodes, util::Rng rng);

  void set_hooks(const obs::EnergyHooks* hooks) { hooks_ = hooks; }
  /// Invoked exactly once per node, at the drain that empties its battery.
  void set_on_depleted(DepletedFn on_depleted, void* ctx) {
    on_depleted_ = on_depleted;
    on_depleted_ctx_ = ctx;
  }

  void drain_hello_tx(NodeId node, sim::Time t) {
    drain(node, t, params_.hello_tx_cost_j);
  }
  void drain_hello_rx(NodeId node, sim::Time t) {
    drain(node, t, params_.hello_rx_cost_j);
  }
  void drain_msg_tx(NodeId node, sim::Time t) {
    drain(node, t, params_.msg_tx_cost_j);
  }
  void drain_msg_rx(NodeId node, sim::Time t) {
    drain(node, t, params_.msg_rx_cost_j);
  }

  /// Settles idle draw for every node up to `t` (end of run) and records
  /// the residual-ratio histogram. Pure accounting: batteries may clamp to
  /// zero here but no depletion callbacks fire outside the simulation.
  void settle_all(sim::Time t);

  bool depleted(NodeId node) const { return dead_[node] != 0; }
  double initial_j(NodeId node) const { return initial_[node]; }
  double residual_j(NodeId node) const { return residual_[node]; }
  /// Cumulative energy actually drained from `node` (== initial - residual
  /// up to floating-point accumulation order).
  double drained_j(NodeId node) const { return drained_[node]; }
  /// residual / initial in [0, 1]; the SD_DWCA energy term reads this.
  double residual_ratio(NodeId node) const {
    return initial_[node] > 0.0 ? residual_[node] / initial_[node] : 0.0;
  }

  double total_initial_j() const;
  double total_residual_j() const;
  double total_drained_j() const;
  /// Batteries that hit zero during the run (== kBatteryDepleted events).
  std::uint64_t deaths() const { return deaths_; }

  std::size_t size() const { return initial_.size(); }
  const EnergyParams& params() const { return params_; }

 private:
  void drain(NodeId node, sim::Time t, double cost);
  /// Integrates idle draw since the node's last settlement. Depletion
  /// callbacks fire only when `notify` (false from settle_all).
  void settle(NodeId node, sim::Time t, bool notify);
  void take(NodeId node, double amount);
  void deplete(NodeId node, sim::Time t);

  EnergyParams params_;
  std::vector<double> initial_;
  std::vector<double> residual_;
  std::vector<double> drained_;
  std::vector<sim::Time> last_settle_;
  std::vector<std::uint8_t> dead_;  // depletion latch; recovery never resets
  std::uint64_t deaths_ = 0;
  const obs::EnergyHooks* hooks_ = nullptr;
  DepletedFn on_depleted_ = nullptr;
  void* on_depleted_ctx_ = nullptr;
};

}  // namespace manet::net
