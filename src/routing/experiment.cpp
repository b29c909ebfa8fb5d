#include "routing/experiment.h"

#include <algorithm>

#include "mobility/track.h"
#include "routing/discovery.h"
#include "util/assert.h"
#include "util/stats.h"

namespace manet::routing {

namespace {

struct RecordedRoute {
  sim::Time discovered_at = 0.0;
  std::vector<net::NodeId> path;
};

// First sampled time >= t0 at which some consecutive route pair exceeds the
// range; returns the survival duration (censored at duration).
double route_lifetime(const std::vector<mobility::PiecewiseLinearTrack>& tracks,
                      const RecordedRoute& route, double range_m,
                      double duration, double dt) {
  for (double t = route.discovered_at; t <= duration + 1e-9; t += dt) {
    for (std::size_t i = 0; i + 1 < route.path.size(); ++i) {
      const auto a = tracks[route.path[i]].position(t);
      const auto b = tracks[route.path[i + 1]].position(t);
      if (geom::distance(a, b) > range_m) {
        return t - route.discovered_at;
      }
    }
  }
  return duration - route.discovered_at;
}

// Mutable state shared between the scheduled sampler callbacks and the
// post-run aggregation. Bundled in one struct so the discovery-sampler
// lambda captures two pointers instead of a reference per local (event
// callbacks must fit InplaceEvent's 48-byte inline buffer).
struct SamplerState {
  explicit SamplerState(util::Rng rng) : pair_rng(std::move(rng)) {}

  util::Rng pair_rng;
  std::size_t n_nodes = 0;
  int discoveries_per_sample = 0;
  std::size_t attempts = 0;
  std::size_t flood_ok = 0;
  std::size_t cluster_ok = 0;
  util::RunningStats tx_flood, tx_cluster, hops_flood, hops_cluster, stretch;
  util::RunningStats overlay_churn;
  std::vector<char> prev_overlay;
  std::vector<RecordedRoute> flood_routes;
  std::vector<RecordedRoute> cluster_routes;
};

}  // namespace

RoutingResult run_routing_experiment(const RoutingExperimentParams& params,
                                     const scenario::OptionsFactory& factory) {
  MANET_CHECK(params.sample_period > 0.0);
  MANET_CHECK(params.discoveries_per_sample > 0);
  MANET_CHECK(params.track_dt > 0.0);
  const auto& sc = params.scenario;

  SamplerState st(util::Rng(sc.seed).substream("routing-pairs"));
  st.n_nodes = sc.n_nodes;
  st.discoveries_per_sample = params.discoveries_per_sample;

  std::vector<mobility::PiecewiseLinearTrack> tracks(sc.n_nodes);

  const auto on_start = [&](scenario::LiveContext& ctx) {
    // Track recorder.
    const double dt = params.track_dt;
    for (double t = 0.0; t <= sc.sim_time + 1e-9; t += dt) {
      ctx.sim.schedule_at(t, [&ctx, &tracks] {
        const sim::Time now = ctx.sim.now();
        for (std::size_t i = 0; i < ctx.network.size(); ++i) {
          tracks[i].append(now, ctx.network.node(
                                    static_cast<net::NodeId>(i)).position(now));
        }
      });
    }
    // Discovery sampler.
    for (double t = sc.warmup; t <= sc.sim_time - 1e-9;
         t += params.sample_period) {
      ctx.sim.schedule_at(t, [&ctx, s = &st] {
        const sim::Time now = ctx.sim.now();
        const Adjacency adj = ctx.network.true_adjacency(now);
        std::vector<NodeClusterState> state(ctx.agents.size());
        for (std::size_t i = 0; i < ctx.agents.size(); ++i) {
          state[i] = NodeClusterState{ctx.agents[i]->role(),
                                      ctx.agents[i]->cluster_head(),
                                      ctx.agents[i]->is_gateway()};
        }
        // Overlay membership churn vs the previous sample instant.
        std::vector<char> overlay(state.size(), 0);
        for (std::size_t i = 0; i < state.size(); ++i) {
          overlay[i] =
              (state[i].role == cluster::Role::kHead || state[i].gateway)
                  ? 1
                  : 0;
        }
        if (!s->prev_overlay.empty()) {
          std::size_t flips = 0;
          for (std::size_t i = 0; i < overlay.size(); ++i) {
            flips += overlay[i] != s->prev_overlay[i] ? 1 : 0;
          }
          s->overlay_churn.add(static_cast<double>(flips) /
                               static_cast<double>(overlay.size()));
        }
        s->prev_overlay = std::move(overlay);
        for (int k = 0; k < s->discoveries_per_sample; ++k) {
          const auto src =
              static_cast<net::NodeId>(s->pair_rng.index(s->n_nodes));
          auto dst = static_cast<net::NodeId>(s->pair_rng.index(s->n_nodes));
          while (dst == src) {
            dst = static_cast<net::NodeId>(s->pair_rng.index(s->n_nodes));
          }
          ++s->attempts;
          const auto f = flood_discovery(adj, src, dst);
          const auto c = cluster_discovery(adj, state, src, dst);
          s->tx_flood.add(static_cast<double>(f.control_transmissions));
          s->tx_cluster.add(static_cast<double>(c.control_transmissions));
          if (f.reached) {
            ++s->flood_ok;
            s->hops_flood.add(static_cast<double>(f.route_hops));
            s->flood_routes.push_back({now, f.path});
          }
          if (c.reached) {
            ++s->cluster_ok;
            s->hops_cluster.add(static_cast<double>(c.route_hops));
            s->cluster_routes.push_back({now, c.path});
          }
          if (f.reached && c.reached && f.route_hops > 0) {
            s->stretch.add(static_cast<double>(c.route_hops) /
                           static_cast<double>(f.route_hops));
          }
        }
      });
    }
  };

  const scenario::RunResult run = run_scenario(sc, factory, on_start);

  RoutingResult out;
  out.ch_changes = run.ch_changes;
  out.avg_clusters = run.avg_clusters;
  out.attempts = st.attempts;
  if (st.attempts > 0) {
    out.delivery_flood =
        static_cast<double>(st.flood_ok) / static_cast<double>(st.attempts);
    out.delivery_cluster =
        static_cast<double>(st.cluster_ok) / static_cast<double>(st.attempts);
  }
  out.mean_tx_flood = st.tx_flood.mean();
  out.mean_tx_cluster = st.tx_cluster.mean();
  out.mean_hops_flood = st.hops_flood.mean();
  out.mean_hops_cluster = st.hops_cluster.mean();
  out.mean_stretch = st.stretch.mean();

  util::RunningStats life_flood, life_cluster;
  for (const auto& r : st.flood_routes) {
    life_flood.add(route_lifetime(tracks, r, sc.tx_range, sc.sim_time,
                                  params.track_dt));
  }
  for (const auto& r : st.cluster_routes) {
    life_cluster.add(route_lifetime(tracks, r, sc.tx_range, sc.sim_time,
                                    params.track_dt));
  }
  out.mean_route_lifetime_flood = life_flood.mean();
  out.mean_route_lifetime_cluster = life_cluster.mean();
  out.overlay_churn = st.overlay_churn.mean();
  return out;
}

}  // namespace manet::routing
