// Scenario description + single-run driver. A Scenario is the complete
// recipe for one simulation run (Table 1 of the paper plus the mobility and
// propagation configuration); run_scenario() executes it for one clustering
// configuration and returns the measured metrics.
#pragma once

#include <cstdint>
#include <string>

#include "cluster/presets.h"
#include "cluster/stats.h"
#include "cluster/validation.h"
#include "fault/fault.h"
#include "mobility/factory.h"
#include "net/energy.h"
#include "net/network.h"
#include "obs/config.h"
#include "obs/metrics.h"

namespace manet::scenario {

struct Scenario {
  std::size_t n_nodes = 50;           // N (paper: 50)
  double tx_range = 250.0;            // Tx, meters (paper sweeps 10-250)
  double sim_time = 900.0;            // S, seconds (paper: 900)

  /// Mobility configuration; fleet.field is the m x n scenario area
  /// (paper: 670^2 and 1000^2) and fleet.duration is kept in sync with
  /// sim_time by run_scenario().
  mobility::FleetParams fleet{};

  /// Hello-protocol timing: BI = 2.0 s, TP = 3.0 s (paper defaults).
  net::NetworkParams net{};

  /// Propagation: "free_space" (paper), "two_ray", "log_distance",
  /// "shadowing".
  std::string propagation = "free_space";
  double pathloss_exponent = 2.7;   // log-distance / shadowing models
  double shadowing_sigma_db = 4.0;  // shadowing model

  std::uint64_t seed = 1;

  /// Measurement warm-up: clusterhead changes before this time (the initial
  /// election) are not counted, and role sampling starts here.
  double warmup = 10.0;
  /// Role-distribution sampling period.
  double sample_period = 1.0;

  /// Fault workload (crashes, churn, loss bursts, jamming, partitions).
  /// Empty (the default) runs fault-free and is bit-identical to a build
  /// without the fault subsystem. When set, run_scenario() compiles it with
  /// the run seed's "faults" substream, arms a fault::Injector and attaches
  /// a cluster::ConvergenceMonitor; a [begin, end) of [0, 0) defaults to
  /// [warmup, sim_time).
  fault::ScheduleSpec faults{};

  /// Battery model (disabled by default — a disabled model is bit-identical
  /// to a build without the energy subsystem and stays out of the
  /// result-cache key). When enabled, run_scenario() draws per-node
  /// capacities from the run seed's "energy" substream, wires a
  /// net::EnergyModel into the network and the agents, and feeds battery
  /// depletions to the fault injector as kBatteryDepleted point faults.
  net::EnergyParams energy{};

  /// Observability: metrics (default on — consumes no RNG, schedules no
  /// events, so it cannot perturb the run) and tracing (default off; at
  /// TraceLevel::kFull the periodic counter sampler *does* add simulator
  /// events, visible in events_executed). See obs::ObsConfig.
  obs::ObsConfig obs{};
};

/// Everything a run measures; aggregated across seeds by the experiment
/// harness.
struct RunResult {
  // Stability (paper metric CS) and its decomposition.
  std::uint64_t ch_changes = 0;
  std::uint64_t head_gains = 0;
  std::uint64_t head_losses = 0;
  std::uint64_t reaffiliations = 0;
  double mean_head_lifetime = 0.0;  // s

  // Role-distribution averages over the measurement window.
  double avg_clusters = 0.0;  // paper Figure 4 quantity
  double avg_gateways = 0.0;
  double avg_undecided = 0.0;
  double avg_cluster_size = 0.0;

  // Substrate statistics.
  double mean_degree = 0.0;  // delivered receptions per beacon
  std::uint64_t beacons_sent = 0;
  std::uint64_t hellos_delivered = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t events_executed = 0;  // simulator events fired over the run

  // Invariant check at simulation end (ground truth).
  cluster::ValidationReport final_validation;

  // Resilience metrics (all zero on fault-free runs). A "disruption" spans
  // from the first fault observed while the clustering is clean to the first
  // clean convergence sample afterwards.
  std::uint64_t faults_injected = 0;
  std::uint64_t recoveries = 0;
  double mean_recovery_s = 0.0;
  double max_recovery_s = 0.0;
  std::uint64_t unrecovered_disruptions = 0;
  double orphaned_member_seconds = 0.0;
  std::uint64_t convergence_samples = 0;
  std::uint64_t violation_samples = 0;
  /// The injected timeline, in activation order (echoed to the run log).
  std::vector<fault::FaultEvent> fault_timeline;

  /// Clusterheads standing at sim end (ground truth for the obs identity
  /// ch.elected - ch.resigned == final_heads).
  std::uint64_t final_heads = 0;

  // Energy-model results (all zero when Scenario::energy is disabled).
  double energy_initial_j = 0.0;   // summed initial capacity
  double energy_residual_j = 0.0;  // summed residual at end of run
  double energy_drained_j = 0.0;   // summed per-node drain accounting
  std::uint64_t battery_deaths = 0;  // kBatteryDepleted faults injected

  /// Jain's fairness index of per-node cumulative clusterhead tenure over
  /// all N nodes: (sum x)^2 / (N * sum x^2), 1.0 = every node served
  /// equally, 1/N = one node served alone, 0.0 = nobody ever served.
  /// Computed on every run (it is derived bookkeeping, not a new RNG draw).
  double head_tenure_fairness = 0.0;
  /// Observability snapshot; empty when Scenario::obs.metrics is off.
  obs::Snapshot metrics;

  /// Bit-exact equality — the result-cache round-trip contract
  /// (decode_cell(encode_cell(r)) == r) and --resume verification rest on
  /// this.
  bool operator==(const RunResult&) const = default;
};

/// Builds the cluster options for a run; receives the per-run stats sink.
using OptionsFactory =
    std::function<cluster::ClusterOptions(cluster::ClusterEventSink*)>;

/// Factory from an algorithm name (see cluster::options_by_name).
OptionsFactory factory_by_name(const std::string& name);

/// Access to the live simulation, handed to a hook right after the network
/// starts: lets callers schedule custom in-simulation sampling (the routing
/// experiments use this).
struct LiveContext {
  sim::Simulator& sim;
  net::Network& network;
  const std::vector<const cluster::WeightedClusterAgent*>& agents;
};

/// Executes one full simulation of `scenario` with every node running the
/// clustering configuration produced by `factory`. `on_start`, if given, is
/// invoked once before the clock runs; `extra_sink`, if given, receives the
/// clustering events alongside the internal stats collector (e.g. a
/// TimelineRecorder).
RunResult run_scenario(
    const Scenario& scenario, const OptionsFactory& factory,
    const std::function<void(LiveContext&)>& on_start = nullptr,
    cluster::ClusterEventSink* extra_sink = nullptr);

}  // namespace manet::scenario
