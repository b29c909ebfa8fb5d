#include "routing/cbrp_experiment.h"

#include "radio/medium.h"
#include "sim/simulator.h"
#include "util/assert.h"

namespace manet::routing {

CbrpExperimentResult run_cbrp_experiment(
    const CbrpExperimentParams& params,
    const scenario::OptionsFactory& factory) {
  const auto& sc = params.scenario;
  MANET_CHECK(sc.n_nodes >= 2, "need at least two nodes");
  MANET_CHECK(params.flows > 0 && params.data_interval > 0.0);

  sim::Simulator sim;
  util::Rng root(sc.seed);

  radio::Medium medium(
      radio::make_propagation(sc.propagation, sc.pathloss_exponent,
                              sc.shadowing_sigma_db),
      radio::RadioParams{}, sc.tx_range);
  mobility::FleetParams fleet = sc.fleet;
  fleet.duration = sc.sim_time;
  const geom::Rect field = mobility::fleet_field(fleet);
  net::NetworkParams net_params = sc.net;
  net_params.speed_bound =
      std::max(net_params.speed_bound, fleet.max_speed * 2.0);

  net::Network network(sim, std::move(medium), field, net_params,
                       root.substream("network"));
  network.add_fleet(
      mobility::make_fleet(fleet, sc.n_nodes, root.substream("mobility")));

  cluster::ClusterStats cluster_stats(sc.warmup);
  CbrpStats stats;
  std::vector<CbrpAgent*> agents;
  agents.reserve(sc.n_nodes);
  for (auto& node : network.nodes()) {
    CbrpOptions o = params.cbrp;
    o.clustering = factory(&cluster_stats);
    o.stats = &stats;
    auto agent = std::make_unique<CbrpAgent>(o);
    agents.push_back(agent.get());
    node->set_agent(std::move(agent));
  }
  network.start();

  // Application flows: distinct random pairs, constant bit rate from
  // warm-up (clusters need a moment to form) to the end.
  util::Rng traffic = root.substream("traffic");
  for (int f = 0; f < params.flows; ++f) {
    const auto src = static_cast<net::NodeId>(traffic.index(sc.n_nodes));
    auto dst = static_cast<net::NodeId>(traffic.index(sc.n_nodes));
    while (dst == src) {
      dst = static_cast<net::NodeId>(traffic.index(sc.n_nodes));
    }
    // Small phase offset so flows do not all fire simultaneously.
    const double phase = traffic.uniform(0.0, params.data_interval);
    for (double t = sc.warmup + phase; t < sc.sim_time;
         t += params.data_interval) {
      sim.schedule_at(t, [&network, &agents, src, dst, &params] {
        agents[src]->send_data(network.node(src), dst,
                               params.payload_bytes);
      });
    }
  }

  sim.run_until(sc.sim_time);
  cluster_stats.finish(sc.sim_time);

  CbrpExperimentResult result;
  result.ch_changes = cluster_stats.clusterhead_changes();
  result.stats = stats;
  result.delivery_ratio = stats.delivery_ratio();
  result.control_per_delivery = stats.control_per_delivery();
  result.mean_discovery_latency = stats.discovery_latency.mean();
  result.mean_route_hops = stats.route_hops.mean();
  return result;
}

}  // namespace manet::routing
