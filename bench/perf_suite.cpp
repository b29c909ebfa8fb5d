// The CI-gated perf baseline: times the simulator-core hot paths on
// representative workloads and emits BENCH_core.json for the regression
// comparator (scripts/check_bench.py).
//
//   perf_suite [--quick] [--out PATH] [--reps N]
//
// Workloads:
//   event_queue_churn  — raw sim::EventQueue push/cancel/pop churn shaped
//                        like Hello traffic (periodic reschedule + timeout
//                        cancellations)
//   fig3_full_run      — one full paper Figure-3 scenario run (50 nodes,
//                        Tx = 250 m, MOBIC), observability compiled in but
//                        disabled — the uninstrumented reference
//   fig3_obs_run       — the identical run with the metrics registry live
//                        (tracing off); check_bench.py gates the pair's
//                        throughput ratio, keeping counter overhead bounded
//   resilience_slice   — one cell of the PR-2 resilience grid (crashes +
//                        loss bursts, both algorithms; metrics live, so the
//                        fault/convergence hook path is in the gate too)
//   fig3_cached_rerun  — the Figure-3 run executed cold into a fresh result
//                        cache, then re-run warm from it; reports the warm
//                        wall time and the cold/warm speedup ratio, which
//                        check_bench.py gates at >= 10x
//   fig_scale_nN       — constant-density scale-up of the Figure-3
//                        scenario at N ∈ {50, 1k, 10k} nodes (field side
//                        grows as 670·sqrt(N/50)): the large-N throughput
//                        probes. Absolute scale throughput says more about
//                        the machine than the code, so these rows are
//                        deliberately absent from the checked-in baseline
//
// Each workload reports wall-clock (best of --reps), throughput
// (events/sec and simulated-sec/sec where applicable), heap allocation
// counts from the counting-allocator hook (util/alloc_hook.h — this binary
// links the hook, so counts are real), and process peak RSS.
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"
#include "util/alloc_hook.h"
#include "util/assert.h"

namespace {

using namespace manet;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

long peak_rss_kb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux
}

struct WorkloadResult {
  std::string name;
  double wall_ms = 0.0;          // best rep
  std::uint64_t events = 0;      // events executed (or queue ops)
  double sim_s = 0.0;            // simulated seconds covered (0 for micro)
  std::uint64_t allocs = 0;      // heap allocations during the best rep
  long rss_after_kb = 0;
  double cold_warm_ratio = 0.0;  // fig3_cached_rerun only: cold/warm wall

  double events_per_sec() const {
    return wall_ms <= 0.0 ? 0.0
                          : static_cast<double>(events) / (wall_ms / 1e3);
  }
  double sim_s_per_s() const {
    return wall_ms <= 0.0 ? 0.0 : sim_s / (wall_ms / 1e3);
  }
  double allocs_per_event() const {
    return events == 0 ? 0.0
                       : static_cast<double>(allocs) /
                             static_cast<double>(events);
  }
};

// Runs `body` `reps` times; keeps the fastest rep's wall/allocs (allocation
// counts are deterministic per rep, so "fastest" does not cherry-pick them).
template <typename Body>
WorkloadResult run_workload(const std::string& name, int reps, Body body) {
  WorkloadResult best;
  best.name = name;
  for (int rep = 0; rep < reps; ++rep) {
    const util::AllocWindow window;
    const double t0 = now_ms();
    const auto [events, sim_s] = body();
    const double wall = now_ms() - t0;
    if (rep == 0 || wall < best.wall_ms) {
      best.wall_ms = wall;
      best.events = events;
      best.sim_s = sim_s;
      best.allocs = window.allocs();
    }
  }
  best.rss_after_kb = peak_rss_kb();
  return best;
}

// Hello-shaped queue churn: every "node" keeps one periodic beacon event and
// one timeout event that is cancelled and re-armed on every beacon —
// the EventQueue op mix (push : cancel+push : pop) of the real simulator.
std::pair<std::uint64_t, double> event_queue_churn(std::uint64_t target_ops) {
  sim::Simulator sim;
  constexpr int kNodes = 50;
  struct Beat {
    sim::EventId timeout = sim::kNoEvent;
    double period = 0.0;
  };
  std::vector<Beat> beats(kNodes);
  std::uint64_t ops = 0;
  // Self-rescheduling beacons with timeout re-arm; stop() when done.
  struct Driver {
    sim::Simulator& sim;
    std::vector<Beat>& beats;
    std::uint64_t& ops;
    std::uint64_t target;
    void beacon(int i) {
      Beat& b = beats[static_cast<std::size_t>(i)];
      if (b.timeout != sim::kNoEvent) {
        sim.cancel(b.timeout);
        ++ops;
      }
      b.timeout = sim.schedule_in(3.0, [] {});
      sim.schedule_in(b.period, [this, i] { beacon(i); });
      ops += 2;
      if (ops >= target) {
        sim.stop();
      }
    }
  } driver{sim, beats, ops, target_ops};
  for (int i = 0; i < kNodes; ++i) {
    beats[static_cast<std::size_t>(i)].period =
        2.0 + 0.001 * static_cast<double>(i);
    sim.schedule_at(0.01 * static_cast<double>(i),
                    [&driver, i] { driver.beacon(i); });
  }
  sim.run();
  return {ops, 0.0};
}

std::pair<std::uint64_t, double> fig3_full_run(double sim_time,
                                               bool obs_metrics) {
  scenario::Scenario s = bench::paper_scenario();
  s.sim_time = sim_time;
  s.obs.metrics = obs_metrics;
  const scenario::RunResult r =
      scenario::run_scenario(s, scenario::factory_by_name("mobic"));
  MANET_CHECK(r.beacons_sent > 0, "empty fig3 run");
  MANET_CHECK(r.metrics.empty() != obs_metrics, "obs config ignored");
  return {r.events_executed, sim_time};
}

std::pair<std::uint64_t, double> resilience_slice(double sim_time) {
  scenario::Scenario s = bench::paper_scenario();
  s.sim_time = sim_time;
  s.faults.begin = 30.0;
  s.faults.end = sim_time - 30.0;
  s.faults.crash_rate = 0.03;
  s.faults.mean_downtime = 30.0;
  s.faults.loss_burst_rate = 0.02;
  s.faults.loss_burst_duration = 8.0;
  s.faults.loss_burst_probability = 0.9;
  std::uint64_t events = 0;
  double sim_s = 0.0;
  for (const char* alg : {"mobic", "lowest_id"}) {
    const scenario::RunResult r =
        scenario::run_scenario(s, scenario::factory_by_name(alg));
    events += r.events_executed;
    sim_s += sim_time;
  }
  return {events, sim_s};
}

// Constant-density scale-up of the Figure-3 scenario: the field side grows
// as 670 * sqrt(n / 50) so mean degree stays at the paper's density while
// the node count (and the per-event broadcast-scan cost) scales.
std::pair<std::uint64_t, double> fig_scale_run(std::size_t n, double sim_time) {
  scenario::Scenario s = bench::paper_scenario();
  s.n_nodes = n;
  const double side =
      670.0 * std::sqrt(static_cast<double>(n) / 50.0);
  s.fleet.field = geom::Rect(side, side);
  s.sim_time = sim_time;
  s.warmup = std::min(s.warmup, sim_time / 2.0);
  const scenario::RunResult r =
      scenario::run_scenario(s, scenario::factory_by_name("mobic"));
  MANET_CHECK(r.beacons_sent > 0, "empty fig_scale run");
  return {r.events_executed, sim_time};
}

// Cold run into a fresh cache, then warm re-runs served entirely from it.
// The row's wall_ms is the best warm time; events/sim_s stay 0 so the
// baseline-relative throughput gates skip it — the gated quantity is the
// intra-run cold/warm ratio, which is machine-independent.
WorkloadResult fig3_cached_rerun(double sim_time, int reps) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("manet_perf_cache_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  scenario::Scenario s = bench::paper_scenario();
  s.sim_time = sim_time;
  scenario::RunnerOptions options;
  options.jobs = 1;
  options.cache_dir = dir.string();
  const scenario::OptionsFactory factory =
      scenario::factory_by_name("mobic");

  const double c0 = now_ms();
  const auto cold =
      scenario::Runner(options).replications(s, factory, 1, "mobic");
  const double cold_ms = now_ms() - c0;

  WorkloadResult row;
  row.name = "fig3_cached_rerun";
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_ms();
    const auto warm =
        scenario::Runner(options).replications(s, factory, 1, "mobic");
    const double wall = now_ms() - t0;
    MANET_CHECK(warm == cold, "cached rerun diverged from the cold run");
    if (rep == 0 || wall < row.wall_ms) {
      row.wall_ms = wall;
    }
  }
  row.cold_warm_ratio = cold_ms / std::max(row.wall_ms, 1e-6);
  row.rss_after_kb = peak_rss_kb();
  fs::remove_all(dir);
  return row;
}

void write_json(const std::string& path, bool quick,
                const std::vector<WorkloadResult>& results) {
  std::ofstream out(path, std::ios::trunc);
  MANET_CHECK(out.is_open(), "cannot open " << path);
  out << "{\n";
  out << "  \"schema\": \"manet-perf-core/1\",\n";
  out << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
  out << "  \"alloc_hook\": "
      << (util::alloc_hook_active() ? "true" : "false") << ",\n";
  out << "  \"peak_rss_kb\": " << peak_rss_kb() << ",\n";
  out << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& w = results[i];
    out << "    {\"name\": \"" << w.name << "\""
        << ", \"wall_ms\": " << w.wall_ms
        << ", \"events\": " << w.events
        << ", \"events_per_sec\": " << w.events_per_sec()
        << ", \"sim_s\": " << w.sim_s
        << ", \"sim_s_per_s\": " << w.sim_s_per_s()
        << ", \"allocs\": " << w.allocs
        << ", \"allocs_per_event\": " << w.allocs_per_event()
        << ", \"rss_after_kb\": " << w.rss_after_kb;
    if (w.cold_warm_ratio > 0.0) {
      out << ", \"cold_warm_ratio\": " << w.cold_warm_ratio;
    }
    out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Cli cli(
      argc, argv,
      "CI-gated perf baseline: times the simulator-core hot paths and "
      "emits BENCH_core.json\nfor scripts/check_bench.py.",
      {{"--quick", "smaller workloads, 2 reps (the CI configuration)"},
       {"--out PATH", "output JSON [BENCH_core.json]"},
       {"--reps N", "best-of repetitions [3; 2 with --quick]"}},
      /*standard=*/false);
  const bool quick = cli.flags().get_bool("quick", false);
  const std::string out_path =
      cli.flags().get_string("out", "BENCH_core.json");
  const int reps = cli.flags().get_int("reps", quick ? 2 : 3);
  cli.finish();
  MANET_CHECK(reps > 0, "reps=" << reps);

  const std::uint64_t churn_ops = quick ? 400'000 : 4'000'000;
  const double fig3_time = quick ? 120.0 : 900.0;
  const double slice_time = quick ? 120.0 : 300.0;

  std::vector<WorkloadResult> results;
  results.push_back(run_workload("event_queue_churn", reps, [&] {
    return event_queue_churn(churn_ops);
  }));
  results.push_back(run_workload("fig3_full_run", reps, [&] {
    return fig3_full_run(fig3_time, /*obs_metrics=*/false);
  }));
  results.push_back(run_workload("fig3_obs_run", reps, [&] {
    return fig3_full_run(fig3_time, /*obs_metrics=*/true);
  }));
  results.push_back(run_workload("resilience_slice", reps, [&] {
    return resilience_slice(slice_time);
  }));
  results.push_back(fig3_cached_rerun(fig3_time, reps));

  // Scale family at constant density. One rep each — N = 10k is heavy, and
  // the rows are reported, not gated.
  struct ScalePoint {
    std::size_t n;
    double sim_time;
  };
  const std::vector<ScalePoint> scale =
      quick ? std::vector<ScalePoint>{{50, 30.0}, {1'000, 10.0},
                                      {10'000, 3.0}}
            : std::vector<ScalePoint>{{50, 120.0}, {1'000, 30.0},
                                      {10'000, 10.0}};
  for (const ScalePoint& p : scale) {
    results.push_back(
        run_workload("fig_scale_n" + std::to_string(p.n), 1,
                     [&] { return fig_scale_run(p.n, p.sim_time); }));
  }

  for (const WorkloadResult& w : results) {
    std::cout << w.name << ": " << w.wall_ms << " ms, " << w.events
              << " events (" << w.events_per_sec() << " ev/s";
    if (w.sim_s > 0.0) {
      std::cout << ", " << w.sim_s_per_s() << " sim-s/s";
    }
    std::cout << "), " << w.allocs << " allocs ("
              << w.allocs_per_event() << " per event)\n";
  }
  write_json(out_path, quick, results);
  std::cout << "wrote " << out_path << " (peak RSS " << peak_rss_kb()
            << " KiB)\n";
  return 0;
}
