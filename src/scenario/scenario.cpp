#include "scenario/scenario.h"

#include <fstream>
#include <memory>

#include "cluster/convergence.h"
#include "cluster/obs_sink.h"
#include "fault/injector.h"
#include "obs/trace.h"
#include "radio/medium.h"
#include "sim/simulator.h"
#include "util/assert.h"

namespace manet::scenario {

namespace {

/// All observability state of one run, built only when the scenario asks
/// for any of it. Handle resolution (registry lookups, string hashing)
/// happens here, once, at setup; the hook structs hold plain pointers.
struct ObsBundle {
  obs::Registry registry;
  obs::TraceSink trace;
  obs::SimHooks sim_hooks;
  obs::NetHooks net_hooks;
  obs::AgentHooks agent_hooks;
  obs::FaultHooks fault_hooks;
  obs::EnergyHooks energy_hooks;
  cluster::ObsClusterSink cluster_sink;
  /// Owns the kFull counter-sampler closure so the recurring event can
  /// reschedule itself without a shared_ptr cycle.
  std::function<void()> sampler_tick;

  ObsBundle(const obs::ObsConfig& cfg, double warmup, double cascade_window,
            bool energy_enabled)
      : trace(cfg.trace == obs::TraceLevel::kOff && !cfg.trace_path.empty()
                  ? obs::TraceLevel::kSpans
                  : cfg.trace),
        cluster_sink(registry, warmup, cascade_window,
                     trace.enabled() ? &trace : nullptr) {
    obs::TraceSink* t = trace.enabled() ? &trace : nullptr;
    sim_hooks.queue_depth = registry.histogram(
        "event_queue.depth",
        {8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0});
    net_hooks.beacon_sent = registry.counter("beacon.sent");
    net_hooks.hello_sent = registry.counter("hello.sent");
    net_hooks.hello_delivered = registry.counter("hello.delivered");
    net_hooks.hello_dropped_fading = registry.counter("hello.dropped.fading");
    net_hooks.hello_dropped_loss = registry.counter("hello.dropped.loss");
    net_hooks.hello_dropped_collision =
        registry.counter("hello.dropped.collision");
    net_hooks.neighbor_timeout = registry.counter("neighbor.timeout");
    net_hooks.msg_sent = registry.counter("msg.sent");
    net_hooks.msg_delivered = registry.counter("msg.delivered");
    agent_hooks.cci_deferral = registry.counter("cci.deferral");
    agent_hooks.cci_resolved = registry.counter("cci.resolved");
    agent_hooks.trace = t;
    fault_hooks.activated = registry.counter("fault.activated");
    fault_hooks.moot = registry.counter("fault.moot");
    fault_hooks.window_expired = registry.counter("fault.window_expired");
    fault_hooks.trace = t;
    // Energy instruments exist only when the scenario enables the battery
    // model, so energy-free snapshots stay byte-identical to older builds.
    if (energy_enabled) {
      energy_hooks.depleted = registry.counter("energy.depleted");
      energy_hooks.drains = registry.counter("energy.drain");
      energy_hooks.residual_ratio = registry.histogram(
          "energy.residual_ratio",
          {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0});
    }
  }
};

std::string expand_placeholder(std::string s, const std::string& key,
                               const std::string& value) {
  for (std::size_t pos = s.find(key); pos != std::string::npos;
       pos = s.find(key, pos + value.size())) {
    s.replace(pos, key.size(), value);
  }
  return s;
}

std::string expand_trace_path(const std::string& path, std::uint64_t seed,
                              const std::string& tag) {
  std::string s = expand_placeholder(path, "{seed}", std::to_string(seed));
  return expand_placeholder(s, "{tag}", tag);
}

}  // namespace

OptionsFactory factory_by_name(const std::string& name) {
  return [name](cluster::ClusterEventSink* sink) {
    return cluster::options_by_name(name, sink);
  };
}

RunResult run_scenario(const Scenario& scenario,
                       const OptionsFactory& factory,
                       const std::function<void(LiveContext&)>& on_start,
                       cluster::ClusterEventSink* extra_sink) {
  MANET_CHECK(scenario.n_nodes >= 2, "need at least two nodes");
  MANET_CHECK(scenario.tx_range > 0.0);
  MANET_CHECK(scenario.sim_time > scenario.warmup,
              "sim_time must exceed warmup");

  sim::Simulator sim;
  util::Rng root(scenario.seed);

  // Radio medium calibrated for the scenario's nominal range.
  radio::Medium medium(
      radio::make_propagation(scenario.propagation,
                              scenario.pathloss_exponent,
                              scenario.shadowing_sigma_db),
      radio::RadioParams{}, scenario.tx_range);

  // Mobility fleet; keep the horizon and field coherent with the scenario.
  mobility::FleetParams fleet = scenario.fleet;
  fleet.duration = scenario.sim_time;
  const geom::Rect field = mobility::fleet_field(fleet);

  net::NetworkParams net_params = scenario.net;
  net_params.speed_bound =
      std::max(net_params.speed_bound, fleet.max_speed * 2.0);

  net::Network network(sim, std::move(medium), field, net_params,
                       root.substream("network"));
  network.add_fleet(
      mobility::make_fleet(fleet, scenario.n_nodes,
                           root.substream("mobility")));

  // Battery model — created only when enabled so energy-free runs draw no
  // "energy" substream and stay bit-identical to pre-energy builds.
  std::unique_ptr<net::EnergyModel> energy;
  if (scenario.energy.enabled) {
    energy = std::make_unique<net::EnergyModel>(
        scenario.energy, scenario.n_nodes, root.substream("energy"));
    network.set_energy(energy.get());
  }

  std::unique_ptr<ObsBundle> bundle;
  if (scenario.obs.any()) {
    bundle = std::make_unique<ObsBundle>(
        scenario.obs, scenario.warmup,
        net_params.broadcast_interval * 1.25, energy != nullptr);
    bundle->cluster_sink.reserve_nodes(scenario.n_nodes);
    bundle->trace.reserve(1024);
    sim.set_hooks(&bundle->sim_hooks);
    network.set_hooks(&bundle->net_hooks);
  }

  cluster::ClusterStats stats(scenario.warmup);
  stats.reserve_nodes(scenario.n_nodes);
  cluster::FanoutClusterEventSink fanout(
      {&stats, extra_sink,
       bundle == nullptr ? nullptr : &bundle->cluster_sink});
  cluster::ClusterEventSink* sink =
      extra_sink == nullptr && bundle == nullptr
          ? static_cast<cluster::ClusterEventSink*>(&stats)
          : &fanout;
  std::vector<const cluster::WeightedClusterAgent*> agents;
  agents.reserve(scenario.n_nodes);
  for (auto& node : network.nodes()) {
    cluster::ClusterOptions opts = factory(sink);
    if (bundle != nullptr) {
      opts.obs = &bundle->agent_hooks;
    }
    opts.energy = energy.get();
    auto agent = std::make_unique<cluster::WeightedClusterAgent>(opts);
    agents.push_back(agent.get());
    node->set_agent(std::move(agent));
  }

  cluster::ClusterSampler sampler(sim, agents);
  sampler.start(scenario.warmup, scenario.sample_period, scenario.sim_time);

  // The fault machinery is only instantiated when the scenario asks for it:
  // a fault-free run draws no "faults" substream, registers no loss layer
  // and schedules no monitor ticks, so its event trace and RNG consumption
  // are bit-identical to pre-fault-subsystem builds.
  std::unique_ptr<fault::Injector> injector;
  std::unique_ptr<cluster::ConvergenceMonitor> monitor;
  if (!scenario.faults.empty() || energy != nullptr) {
    fault::Schedule schedule;  // stays empty on energy-only runs: no
                               // "faults" substream is drawn for them
    if (!scenario.faults.empty()) {
      fault::ScheduleSpec fault_spec = scenario.faults;
      if (fault_spec.begin == 0.0 && fault_spec.end == 0.0) {
        fault_spec.begin = scenario.warmup;
        fault_spec.end = scenario.sim_time;
      }
      schedule = fault::make_schedule(fault_spec, scenario.n_nodes, field,
                                      root.substream("faults"));
    }
    injector = std::make_unique<fault::Injector>(network, std::move(schedule));
    monitor = std::make_unique<cluster::ConvergenceMonitor>(sim, network,
                                                            agents);
    injector->set_on_fault([mon = monitor.get()](const fault::FaultEvent& e) {
      mon->note_fault(e.at);
    });
    if (bundle != nullptr) {
      injector->set_hooks(&bundle->fault_hooks);
    }
    if (energy != nullptr) {
      // Battery deaths reach the injector mid-drain; reserving one timeline
      // slot per node keeps inject_now() off the allocator.
      injector->reserve_external(scenario.n_nodes);
      energy->set_on_depleted(
          [](void* ctx, net::NodeId node, sim::Time t) {
            fault::FaultEvent e;
            e.kind = fault::FaultKind::kBatteryDepleted;
            e.at = t;
            e.node = node;
            static_cast<fault::Injector*>(ctx)->inject_now(e);
          },
          injector.get());
      if (bundle != nullptr) {
        energy->set_hooks(&bundle->energy_hooks);
      }
    }
    injector->arm();
    monitor->start(scenario.warmup, scenario.sample_period,
                   scenario.sim_time);
  }

  network.start();
  // Full-level tracing samples a few counter tracks on a fixed period.
  // This is the one observability feature that schedules simulator events
  // (and thus moves events_executed); it is gated on the opt-in kFull.
  if (bundle != nullptr && bundle->trace.full()) {
    const double period = std::max(scenario.obs.counter_sample_period, 1e-3);
    bundle->sampler_tick = [&sim, &network, &agents, b = bundle.get(),
                            period, end = scenario.sim_time] {
      const sim::Time now = sim.now();
      b->trace.counter("event_queue.depth", now,
                       static_cast<double>(sim.pending_events()));
      b->trace.counter("hello.delivered", now,
                       static_cast<double>(
                           b->net_hooks.hello_delivered->value()));
      std::size_t heads = 0;
      for (const auto* a : agents) {
        heads += a->role() == cluster::Role::kHead ? 1 : 0;
      }
      b->trace.counter("clusterheads", now, static_cast<double>(heads));
      if (now + period <= end) {
        sim.schedule_in(period, b->sampler_tick);
      }
    };
    sim.schedule_at(0.0, bundle->sampler_tick);
  }
  // The context must outlive the whole run, not just the hook call: hooks
  // routinely schedule events that capture it by reference and fire from
  // run_until (timeline recorder, routing probes, test instrumentation).
  LiveContext ctx{sim, network, agents};
  if (on_start != nullptr) {
    on_start(ctx);
  }
  sim.run_until(scenario.sim_time);
  stats.finish(scenario.sim_time);
  if (bundle != nullptr) {
    bundle->cluster_sink.finish(scenario.sim_time);
  }

  RunResult result;
  result.ch_changes = stats.clusterhead_changes();
  result.head_gains = stats.head_gains();
  result.head_losses = stats.head_losses();
  result.reaffiliations = stats.reaffiliations();
  result.mean_head_lifetime = stats.head_lifetimes().mean();
  result.avg_clusters = sampler.num_clusters().mean();
  result.avg_gateways = sampler.num_gateways().mean();
  result.avg_undecided = sampler.num_undecided().mean();
  result.avg_cluster_size = sampler.cluster_sizes().mean();
  result.mean_degree = network.stats().mean_degree();
  result.beacons_sent = network.stats().beacons_sent;
  result.hellos_delivered = network.stats().hellos_delivered;
  result.bytes_sent = network.stats().bytes_sent;
  result.events_executed = sim.events_executed();
  result.final_validation =
      cluster::validate_clusters(network, agents, scenario.sim_time);
  if (monitor != nullptr) {
    const cluster::ConvergenceMonitor::Summary s =
        monitor->finish(scenario.sim_time);
    result.faults_injected = s.faults_observed;
    result.recoveries = s.recovery.count();
    result.mean_recovery_s = s.recovery.mean();
    result.max_recovery_s = s.recovery.empty() ? 0.0 : s.recovery.max();
    result.unrecovered_disruptions = s.unrecovered_disruptions;
    result.orphaned_member_seconds = s.orphaned_member_seconds;
    result.convergence_samples = s.samples;
    result.violation_samples = s.violation_samples;
  }
  if (injector != nullptr) {
    result.fault_timeline.reserve(injector->timeline().size());
    for (const auto& applied : injector->timeline()) {
      result.fault_timeline.push_back(applied.event);
    }
  }
  for (const auto* a : agents) {
    result.final_heads += a->role() == cluster::Role::kHead ? 1 : 0;
  }
  if (energy != nullptr) {
    energy->settle_all(scenario.sim_time);
    result.energy_initial_j = energy->total_initial_j();
    result.energy_residual_j = energy->total_residual_j();
    result.energy_drained_j = energy->total_drained_j();
    result.battery_deaths = energy->deaths();
  }
  {
    // Jain's fairness of per-node head tenure over all N nodes; nodes that
    // never served count as zeros (they shrink the index), so a rotation
    // protocol that shares the role scores higher than a single long reign.
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const auto& [node, tenure] : stats.head_tenure()) {
      sum += tenure;
      sum_sq += tenure * tenure;
    }
    result.head_tenure_fairness =
        sum_sq > 0.0
            ? (sum * sum) / (static_cast<double>(scenario.n_nodes) * sum_sq)
            : 0.0;
  }
  if (bundle != nullptr) {
    if (bundle->trace.enabled()) {
      bundle->trace.complete(obs::TraceSink::kRunPid, 0, "warmup", 0.0,
                             scenario.warmup);
      bundle->trace.complete(obs::TraceSink::kRunPid, 0, "measurement",
                             scenario.warmup, scenario.sim_time, "events",
                             static_cast<std::int64_t>(sim.events_executed()));
      if (!scenario.obs.trace_path.empty()) {
        const std::string path = expand_trace_path(
            scenario.obs.trace_path, scenario.seed, scenario.obs.tag);
        std::ofstream out(path, std::ios::binary);
        MANET_CHECK(out.is_open(), "cannot write trace to " << path);
        bundle->trace.write_json(out);
      }
    }
    if (scenario.obs.metrics) {
      result.metrics = bundle->registry.snapshot();
    }
  }
  return result;
}

}  // namespace manet::scenario
