#include "layers.h"

#include <algorithm>
#include <filesystem>

#include "cluster/validation.h"
#include "fault/fault.h"
#include "geom/grid_index.h"
#include "metrics/aggregate_mobility.h"
#include "mobility/factory.h"
#include "net/neighbor_table.h"
#include "radio/medium.h"
#include "scenario/cache.h"
#include "sim/simulator.h"
#include "util/alloc_hook.h"
#include "util/assert.h"
#include "util/rng.h"

namespace perfbench {

namespace {

namespace sc = manet::scenario;
using manet::util::Rng;

// Calls and host seconds spent in one entry point.
struct Acc {
  std::uint64_t calls = 0;
  double s = 0.0;
  void add(double t0, double t1, std::uint64_t n = 1) {
    calls += n;
    s += t1 - t0;
  }
  double ns_per_call() const {
    return calls == 0 ? 0.0 : s * 1e9 / static_cast<double>(calls);
  }
};

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

struct BroadcastReplay {
  double make_fleet_s = 0.0;
  Acc position, rebuild, query, rx, table, update;
  std::uint64_t candidates = 0;  // grid query results, sender excluded
  std::uint64_t in_range = 0;    // candidates within delivery range
  std::uint64_t delivered = 0;   // receptions above threshold
  std::uint64_t eligible = 0;    // M_rel samples the estimator used
  std::uint64_t live = 0;        // table entries at those updates
};

// The Hello broadcast path of one cell, rebuilt from the public classes
// the network composes: every grid refresh samples all positions and
// rebuilds the grid; every beacon queries it, samples exact positions,
// evaluates the medium per in-range candidate, updates the receivers' and
// the sender's neighbour tables and (MOBIC) the sender's M estimator.
// Beacons keep fixed phases (no per-beacon jitter) and the loss stack is
// not modelled; the replay measures the cost of each entry point, not the
// run's exact outcome.
BroadcastReplay replay_broadcast(const sc::Scenario& s,
                                 const std::string& algorithm,
                                 Tracer& tr, int parent) {
  using namespace manet;
  BroadcastReplay out;
  const Rng root(s.seed);
  mobility::FleetParams fp = s.fleet;
  fp.duration = s.sim_time;
  const geom::Rect field = mobility::fleet_field(fp);
  const std::size_t n = s.n_nodes;

  double a = now_s();
  auto fleet = mobility::make_fleet(fp, n, root.substream("mobility"));
  double b = now_s();
  out.make_fleet_s = b - a;
  tr.add("make_fleet", "mobility", a, b, parent);

  const radio::Medium medium(
      radio::make_propagation(s.propagation, s.pathloss_exponent,
                              s.shadowing_sigma_db),
      radio::RadioParams{}, s.tx_range);
  const bool stochastic = medium.propagation().stochastic();
  const double max_range = medium.max_delivery_range_m();
  geom::GridIndex grid(field,
                       std::max(25.0, std::min(field.width, field.height) /
                                          16.0));  // as net::Network
  std::vector<net::NeighborTable> tables(n);
  for (auto& t : tables) {
    t.reserve(n - 1);
  }
  metrics::AggregateMobilityConfig mc;
  mc.successive_max_gap = s.net.neighbor_timeout;
  mc.neighbor_timeout = s.net.neighbor_timeout;
  std::vector<metrics::AggregateMobilityEstimator> est(
      n, metrics::AggregateMobilityEstimator(mc));
  const bool mobic = algorithm == "mobic";

  const double bi = s.net.broadcast_interval;
  const double tp = s.net.neighbor_timeout;
  const double speed_bound = std::max(s.net.speed_bound, fp.max_speed * 2.0);
  Rng phase = root.substream("perfbench.phase");
  Rng fading = root.substream("perfbench.fading");
  std::vector<double> next(n);
  for (double& t : next) {
    t = phase.uniform(0.0, bi);
  }

  std::vector<geom::Vec2> snap(n);
  std::vector<geom::Vec2> cpos;
  std::vector<std::size_t> cand;
  std::vector<std::size_t> rx_node;
  std::vector<double> rx_w;
  std::vector<std::pair<double, std::size_t>> due;
  cpos.reserve(n);
  cand.reserve(n);
  rx_node.reserve(n);
  rx_w.reserve(n);
  net::HelloPacket pkt;
  std::uint32_t seq = 0;

  for (double t = 0.0; t < s.sim_time; t += s.net.grid_refresh) {
    const double t_end = std::min(t + s.net.grid_refresh, s.sim_time);
    a = now_s();
    for (std::size_t i = 0; i < n; ++i) {
      snap[i] = fleet[i]->position(t);
    }
    b = now_s();
    out.position.add(a, b, n);
    tr.add("position.snapshot", "mobility", a, b, parent);
    grid.rebuild(snap);
    a = now_s();
    out.rebuild.add(b, a);
    tr.add("GridIndex::rebuild", "geom", b, a, parent);

    due.clear();
    for (std::size_t i = 0; i < n; ++i) {
      while (next[i] < t_end) {
        due.emplace_back(next[i], i);
        next[i] += bi;
      }
    }
    std::sort(due.begin(), due.end());
    for (const auto& [tb, sender] : due) {
      const double pad = 2.0 * speed_bound * (tb - t) + 1.0;
      a = now_s();
      cand.clear();
      grid.query_radius(snap[sender], max_range + pad, cand);
      b = now_s();
      out.query.add(a, b);
      tr.add("GridIndex::query_radius", "geom", a, b, parent);

      const geom::Vec2 spos = fleet[sender]->position(tb);
      cpos.clear();
      std::size_t self_pos = cand.size();
      for (std::size_t j = 0; j < cand.size(); ++j) {
        if (cand[j] == sender) {
          self_pos = j;
          cpos.push_back(spos);
        } else {
          cpos.push_back(fleet[cand[j]]->position(tb));
        }
      }
      a = now_s();
      out.position.add(b, a, cand.size());
      tr.add("position", "mobility", b, a, parent);
      out.candidates += cand.size() - (self_pos < cand.size() ? 1 : 0);

      rx_node.clear();
      rx_w.clear();
      std::uint64_t rx_calls = 0;
      for (std::size_t j = 0; j < cand.size(); ++j) {
        const double d = geom::distance(spos, cpos[j]);
        if (j == self_pos || d > max_range) {
          continue;
        }
        ++rx_calls;
        double w = 0.0;
        bool ok = false;
        if (stochastic) {
          const auto r = medium.try_receive(d, fading);
          w = r.rx_power_w;
          ok = r.delivered;
        } else {
          w = medium.median_rx_power_w(d);
          ok = w >= medium.rx_threshold_w();
        }
        if (ok) {
          rx_node.push_back(cand[j]);
          rx_w.push_back(w);
        }
      }
      b = now_s();
      out.rx.add(a, b, rx_calls);
      tr.add("Medium", "radio", a, b, parent);
      out.in_range += rx_calls;
      out.delivered += rx_node.size();

      pkt.sender = static_cast<net::NodeId>(sender);
      pkt.seq = ++seq;
      pkt.weight = est[sender].value();
      tables[sender].purge(tb, tp);
      for (std::size_t j = 0; j < rx_node.size(); ++j) {
        tables[rx_node[j]].on_hello(tb + s.net.delivery_delay, pkt, rx_w[j]);
      }
      a = now_s();
      out.table.add(b, a, rx_node.size());
      tr.add("NeighborTable", "net", b, a, parent);

      if (mobic) {
        est[sender].update(tables[sender], tb);
        b = now_s();
        out.update.add(a, b);
        tr.add("AggregateMobilityEstimator::update", "metrics", a, b, parent);
        out.eligible += est[sender].last_sample_count();
        out.live += tables[sender].size();
      }
    }
  }
  return out;
}

// sim::Simulator schedule / cancel / dispatch with the Hello protocol's
// op mix: per node one periodic beacon (period BI) whose firing cancels
// and re-arms a TP timeout. Returns host ns per operation.
double simulator_ns_per_op(std::size_t n, double bi, double tp,
                           std::uint64_t target_ops, Tracer& tr, int parent) {
  using namespace manet;
  sim::Simulator sim;
  struct Driver {
    sim::Simulator* sim;
    std::vector<sim::EventId> timeout;
    std::vector<double> period;
    double tp;
    std::uint64_t ops = 0;
    std::uint64_t target;
    void beacon(std::size_t i) {
      ++ops;  // this dispatch
      if (timeout[i] != sim::kNoEvent) {
        sim->cancel(timeout[i]);
        ++ops;
      }
      timeout[i] = sim->schedule_in(tp, [] {});
      sim->schedule_in(period[i], [this, i] { beacon(i); });
      ops += 2;
      if (ops >= target) {
        sim->stop();
      }
    }
  } d{&sim, std::vector<sim::EventId>(n, sim::kNoEvent),
      std::vector<double>(n), tp, 0, target_ops};
  sim.reserve_events(4 * n + 64);
  for (std::size_t i = 0; i < n; ++i) {
    d.period[i] = bi + 1e-6 * static_cast<double>(i);
    sim.schedule_at(bi * static_cast<double>(i) / static_cast<double>(n),
                    [p = &d, i] { p->beacon(i); });
  }
  const double a = now_s();
  sim.run();
  const double b = now_s();
  tr.add("Simulator", "sim", a, b, parent);
  return ratio((b - a) * 1e9, static_cast<double>(d.ops));
}

// validate_clusters once per convergence sample period of a live run.
struct ValidateProbe {
  manet::sim::Simulator* sim = nullptr;
  manet::net::Network* network = nullptr;
  const std::vector<const manet::cluster::WeightedClusterAgent*>* agents =
      nullptr;
  manet::net::Network::AdjacencyScratch scratch;
  double period = 1.0;
  double end = 0.0;
  Acc acc;
  Tracer* tr = nullptr;
  int parent = Tracer::kNone;

  void tick() {
    const double a = now_s();
    manet::cluster::validate_clusters(*network, *agents, sim->now(),
                                      scratch);
    const double b = now_s();
    acc.add(a, b);
    tr->add("validate_clusters", "cluster", a, b, parent);
    if (sim->now() + period <= end) {
      sim->schedule_in(period, [this] { tick(); });
    }
  }
};

void add(std::vector<Metric>& out, const char* name, double value,
         const char* unit, std::size_t samples = 1) {
  out.push_back({name, value, unit, samples, ""});
}

}  // namespace

std::vector<Metric> measure_layers(const Workload& workload,
                                   const Config& config, const Rep& rep,
                                   double trace_overhead_ratio,
                                   Tracer& tracer) {
  using namespace manet;
  std::vector<Metric> m;
  const Cell& rc = workload.representative(rep);
  const sc::Scenario& s = rc.scenario;
  const sc::OptionsFactory factory = sc::factory_by_name(rc.algorithm);
  const int replay = tracer.open("replay", "scenario", Tracer::kNone,
                                 Tracer::kNone, 1);

  // Counts over the whole rep.
  obs::Snapshot snap;
  double events = 0.0;
  double node_sim_s = 0.0;
  for (const Cell& c : rep.cells) {
    snap.merge(c.result.metrics);
    events += static_cast<double>(c.result.events_executed);
    node_sim_s += c.node_sim_s;
  }
  const auto count = [&](const char* name) {
    return static_cast<double>(snap.counter_or(name));
  };

  // sim
  add(m, "sim.events", events, "count");
  add(m, "sim.events_per_node_sim_s", ratio(events, node_sim_s), "1/node-s");
  add(m, "sim.ns_per_op",
      simulator_ns_per_op(s.n_nodes, s.net.broadcast_interval,
                          s.net.neighbor_timeout,
                          config.tiny ? 200'000 : 4'000'000, tracer, replay),
      "ns");

  // mobility, geom, radio, net, metrics: the broadcast-path replay.
  const BroadcastReplay br = replay_broadcast(s, rc.algorithm, tracer, replay);
  add(m, "mobility.position_calls", static_cast<double>(br.position.calls),
      "count");
  add(m, "mobility.ns_per_position", br.position.ns_per_call(), "ns");
  add(m, "mobility.make_fleet_ms", br.make_fleet_s * 1e3, "ms");
  add(m, "geom.rebuilds", static_cast<double>(br.rebuild.calls), "count");
  add(m, "geom.queries", static_cast<double>(br.query.calls), "count");
  add(m, "geom.candidates_per_query",
      ratio(static_cast<double>(br.candidates),
            static_cast<double>(br.query.calls)),
      "count");
  add(m, "geom.busy_ms", (br.rebuild.s + br.query.s) * 1e3, "ms");
  add(m, "geom.useful_ratio",
      ratio(static_cast<double>(br.in_range),
            static_cast<double>(br.candidates)),
      "ratio");
  add(m, "radio.rx_calls", static_cast<double>(br.rx.calls), "count");
  add(m, "radio.delivered_ratio",
      ratio(static_cast<double>(br.delivered),
            static_cast<double>(br.rx.calls)),
      "ratio");
  add(m, "radio.ns_per_rx", br.rx.ns_per_call(), "ns");
  add(m, "net.beacons", count("beacon.sent"), "count");
  add(m, "net.hellos_delivered", count("hello.delivered"), "count");
  add(m, "net.mean_degree",
      ratio(count("hello.delivered"), count("beacon.sent")), "count");
  add(m, "net.hellos_dropped",
      count("hello.dropped.loss") + count("hello.dropped.fading") +
          count("hello.dropped.collision"),
      "count");
  add(m, "net.neighbor_timeouts", count("neighbor.timeout"), "count");
  add(m, "net.energy_drains", count("energy.drain"), "count");
  add(m, "net.table_ns_per_hello", br.table.ns_per_call(), "ns");
  add(m, "metrics.updates", static_cast<double>(br.update.calls), "count");
  add(m, "metrics.ns_per_update", br.update.ns_per_call(), "ns");
  add(m, "metrics.eligible_ratio",
      ratio(static_cast<double>(br.eligible), static_cast<double>(br.live)),
      "ratio");

  // cluster: counts over the rep; validate_clusters timed on a live run of
  // the representative cell, once per convergence sample period.
  add(m, "cluster.ch_changed", count("ch.changed"), "count");
  add(m, "cluster.cci_deferrals", count("cci.deferral"), "count");
  const obs::Snapshot::HistogramCell* depth =
      snap.histogram("recluster.cascade_depth");
  double depth_n = 0.0;
  if (depth != nullptr) {
    for (const std::uint64_t c : depth->counts) {
      depth_n += static_cast<double>(c);
    }
  }
  add(m, "cluster.cascade_depth_mean",
      depth == nullptr ? 0.0 : ratio(depth->sum, depth_n), "count");
  ValidateProbe probe;
  probe.period = s.sample_period;
  probe.end = s.sim_time;
  probe.tr = &tracer;
  probe.parent = replay;
  sc::run_scenario(s, factory, [&](sc::LiveContext& ctx) {
    probe.sim = &ctx.sim;
    probe.network = &ctx.network;
    probe.agents = &ctx.agents;
    ctx.sim.schedule_at(s.warmup, [p = &probe] { p->tick(); });
  });
  add(m, "cluster.validate_ms", ratio(probe.acc.s * 1e3,
                                      static_cast<double>(probe.acc.calls)),
      "ms", probe.acc.calls);

  // fault: counts over the rep; the cell's schedule compiled as
  // run_scenario compiles it.
  add(m, "fault.activated", count("fault.activated"), "count");
  add(m, "fault.moot", count("fault.moot"), "count");
  {
    fault::ScheduleSpec spec = s.faults;
    if (spec.begin == 0.0 && spec.end == 0.0) {
      spec.begin = s.warmup;
      spec.end = s.sim_time;
    }
    mobility::FleetParams fp = s.fleet;
    fp.duration = s.sim_time;
    const geom::Rect field = mobility::fleet_field(fp);
    Acc acc;
    while (acc.calls < 5 || (acc.s < 0.02 && acc.calls < 200)) {
      const double a = now_s();
      const fault::Schedule sched = fault::make_schedule(
          spec, s.n_nodes, field, Rng(s.seed).substream("faults"));
      const double b = now_s();
      acc.add(a, b);
      tracer.add("make_schedule", "fault", a, b, replay);
    }
    add(m, "fault.make_schedule_ms", acc.s * 1e3 /
                                         static_cast<double>(acc.calls),
        "ms", acc.calls);
  }

  // obs and util: the representative cell with metrics on (allocations
  // counted) and off, alternating; pairs repeat while they are cheap.
  {
    sc::Scenario off = s;
    off.obs.metrics = false;
    std::vector<double> on_s;
    std::vector<double> off_s;
    double allocs_per_event = 0.0;
    const double budget_end = now_s() + 2.0;
    while (on_s.empty() || (on_s.size() < 5 && now_s() < budget_end)) {
      const util::AllocWindow window;
      double a = now_s();
      const sc::RunResult r = sc::run_scenario(s, factory);
      double b = now_s();
      on_s.push_back(b - a);
      tracer.add("cell.metrics_on", "obs", a, b, replay);
      allocs_per_event = ratio(static_cast<double>(window.allocs()),
                               static_cast<double>(r.events_executed));
      a = now_s();
      sc::run_scenario(off, factory);
      b = now_s();
      off_s.push_back(b - a);
      tracer.add("cell.metrics_off", "obs", a, b, replay);
    }
    add(m, "obs.overhead_ratio", ratio(median(on_s), median(off_s)), "ratio",
        on_s.size());
    add(m, "util.allocs_per_event", allocs_per_event, "ratio");
  }

  // scenario: pool and queue from the traced rep's cell stamps.
  {
    std::vector<double> waits;
    double busy = 0.0;
    double last_start = rep.t0;
    for (const Cell& c : rep.cells) {
      if (c.done && !c.cached) {
        const double start = c.end_s - c.wall_s;
        waits.push_back((start - rep.t0) * 1e3);
        busy += c.wall_s;
        last_start = std::max(last_start, start);
      }
    }
    double first_idle = rep.t1;
    for (const Cell& c : rep.cells) {
      if (c.done && !c.cached && c.end_s > last_start) {
        first_idle = std::min(first_idle, c.end_s);
      }
    }
    add(m, "scenario.pool_utilization",
        ratio(busy, workload.jobs() * rep.wall()), "ratio");
    add(m, "scenario.queue_wait_ms_p50", median(waits), "ms", waits.size());
    add(m, "scenario.tail_idle_ms", (rep.t1 - first_idle) * 1e3, "ms");
  }
  const sc::CacheStats& cs = rep.cache;
  add(m, "scenario.cache_hits", static_cast<double>(cs.hits), "count");
  add(m, "scenario.cache_misses", static_cast<double>(cs.misses), "count");
  add(m, "scenario.cache_stores", static_cast<double>(cs.stores), "count");
  add(m, "scenario.cache_verified", static_cast<double>(cs.verified),
      "count");
  add(m, "scenario.cache_corrupt", static_cast<double>(cs.corrupt), "count");
  add(m, "scenario.cache_hit_ratio",
      ratio(static_cast<double>(cs.hits),
            static_cast<double>(cs.hits + cs.misses)),
      "ratio");
  {
    // Each cell of the rep through a scratch cache and the codec.
    const std::string dir = config.work_dir + "/cache-roundtrip";
    std::filesystem::remove_all(dir);
    sc::ResultCache cache(dir);
    std::vector<double> load_us;
    std::vector<double> store_us;
    std::vector<double> codec_us;
    for (std::size_t i = 0; i < rep.cells.size() && i < 64; ++i) {
      const Cell& c = rep.cells[i];
      const std::string file = sc::cache_cell_filename(c.scenario, c.algorithm);
      const double t0 = now_s();
      const std::string text = sc::encode_cell(c.result);
      const sc::RunResult back = sc::decode_cell(text);
      const std::string canon = sc::canonical_scenario_text(c.scenario);
      const std::string key = sc::cache_key(c.scenario, c.algorithm);
      const double t1 = now_s();
      cache.store(file, c.result, sc::encode_cell_meta(c.algorithm, canon));
      const double t2 = now_s();
      const auto loaded = cache.load(file);
      const double t3 = now_s();
      MANET_CHECK(back == c.result && loaded.has_value() &&
                      *loaded == c.result && !key.empty(),
                  "cache round trip changed cell " << c.label);
      codec_us.push_back((t1 - t0) * 1e6);
      store_us.push_back((t2 - t1) * 1e6);
      load_us.push_back((t3 - t2) * 1e6);
      tracer.add("codec", "scenario", t0, t1, replay, static_cast<int>(i));
      tracer.add("ResultCache::store", "scenario", t1, t2, replay,
                 static_cast<int>(i));
      tracer.add("ResultCache::load", "scenario", t2, t3, replay,
                 static_cast<int>(i));
    }
    std::filesystem::remove_all(dir);
    add(m, "scenario.cache_load_us_p50", median(load_us), "us",
        load_us.size());
    add(m, "scenario.cache_store_us_p50", median(store_us), "us",
        store_us.size());
    add(m, "scenario.codec_us", median(codec_us), "us", codec_us.size());
  }

  add(m, "trace.overhead_ratio", trace_overhead_ratio, "ratio");
  tracer.close(replay);
  return m;
}

}  // namespace perfbench
