// manetsim — the general-purpose command-line front-end: configure any
// scenario (flags or config file), run any clustering algorithm, and export
// reports, configs, and full timelines.
//
// Examples:
//   # the paper's Figure-3 point at Tx = 250 m
//   ./manetsim --algorithm mobic --range 250
//
//   # both paper algorithms side by side, highway mobility
//   ./manetsim --compare --mobility highway --nodes 60 --time 600
//
//   # reproducible experiment spec round-trip
//   ./manetsim --write-config exp.conf
//   ./manetsim --config exp.conf
//
//   # full timeline export for visualization
//   ./manetsim --algorithm mobic --snapshots-csv snap.csv
//              --events-csv events.csv --snapshot-period 5
//
//   # Chrome-trace export (load in Perfetto / chrome://tracing) + metrics
//   ./manetsim --algorithm mobic --trace-out trace.json
//              --trace-level full --metrics-out metrics.jsonl
//
//   # integrity sweep over a result cache: digest-verify every cell, move
//   # corrupt ones to <dir>/quarantine/, optionally recompute from the
//   # .meta provenance sidecars
//   ./manetsim --scrub-cache --cache-dir result-cache [--scrub-repair]
#include <fstream>
#include <iostream>

#include "obs/trace.h"

#include "scenario/config.h"
#include "scenario/runner.h"
#include "scenario/timeline.h"
#include "util/flags.h"
#include "util/table.h"

namespace {

using namespace manet;

scenario::Scenario scenario_from_flags(util::Flags& flags) {
  scenario::Scenario s;
  const std::string config = flags.get_string("config", "");
  if (!config.empty()) {
    s = scenario::read_config_file(config);
  }
  // Flags override config-file values.
  if (flags.has("nodes")) {
    s.n_nodes = static_cast<std::size_t>(flags.get_u64("nodes", 50));
  }
  if (flags.has("field")) {
    const double side = flags.get_double("field", 670.0);
    s.fleet.field = geom::Rect(side, side);
  }
  if (flags.has("mobility")) {
    s.fleet.kind =
        mobility::parse_model_kind(flags.get_string("mobility", "rwp"));
  }
  if (flags.has("speed")) {
    s.fleet.max_speed = flags.get_double("speed", 20.0);
  }
  if (flags.has("pause")) {
    s.fleet.pause_time = flags.get_double("pause", 0.0);
  }
  if (flags.has("range")) {
    s.tx_range = flags.get_double("range", 250.0);
  }
  if (flags.has("time")) {
    s.sim_time = flags.get_double("time", 900.0);
  }
  if (flags.has("seed")) {
    s.seed = flags.get_u64("seed", 1);
  }
  if (flags.has("bi")) {
    s.net.broadcast_interval = flags.get_double("bi", 2.0);
  }
  if (flags.has("tp")) {
    s.net.neighbor_timeout = flags.get_double("tp", 3.0);
  }
  if (flags.has("loss")) {
    s.net.packet_loss = flags.get_double("loss", 0.0);
  }
  if (flags.has("collision-window")) {
    s.net.collision_window = flags.get_double("collision-window", 0.0);
  }
  if (flags.has("propagation")) {
    s.propagation = flags.get_string("propagation", "free_space");
  }
  if (flags.has("sigma")) {
    s.shadowing_sigma_db = flags.get_double("sigma", 4.0);
  }
  // Observability: --trace-out writes a Chrome-trace JSON ("{seed}" and
  // "{tag}" placeholders expand per run — use them under --compare so the
  // algorithms don't clobber one file); --trace-level full adds sampled
  // counter tracks.
  if (flags.has("trace-out")) {
    s.obs.trace_path = flags.get_string("trace-out", "");
  }
  if (flags.has("trace-level")) {
    s.obs.trace =
        obs::parse_trace_level(flags.get_string("trace-level", "spans"));
  }
  return s;
}

void print_report(const std::string& alg, const scenario::RunResult& r) {
  util::Table table({"metric", "value"});
  table.add("clusterhead changes (CS)", r.ch_changes);
  table.add("  gains / losses", std::to_string(r.head_gains) + " / " +
                                    std::to_string(r.head_losses));
  table.add("reaffiliations", r.reaffiliations);
  table.add("mean clusterhead reign (s)",
            util::Table::fmt(r.mean_head_lifetime, 1));
  table.add("avg clusters", util::Table::fmt(r.avg_clusters, 2));
  table.add("avg gateways", util::Table::fmt(r.avg_gateways, 2));
  table.add("avg cluster size", util::Table::fmt(r.avg_cluster_size, 2));
  table.add("avg undecided", util::Table::fmt(r.avg_undecided, 2));
  table.add("mean degree (delivered)", util::Table::fmt(r.mean_degree, 2));
  table.add("beacons sent", r.beacons_sent);
  table.add("hellos delivered", r.hellos_delivered);
  table.add("control bytes", r.bytes_sent);
  table.add("final invariants",
            r.final_validation.clean() ? "clean"
                                       : r.final_validation.to_string());
  std::cout << "--- " << alg << " ---\n";
  table.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);

  // Cache maintenance mode: verify/repair a result cache and exit. Exit
  // code 1 when corruption survives the pass (corrupt cells without
  // --scrub-repair, or unrepairable ones with it), so CI can gate on cache
  // health.
  if (flags.get_bool("scrub-cache", false)) {
    const std::string dir = flags.get_string("cache-dir", "");
    const bool repair = flags.get_bool("scrub-repair", false);
    flags.finish();
    if (dir.empty()) {
      std::cerr << "--scrub-cache requires --cache-dir\n";
      return 2;
    }
    const scenario::ScrubReport report =
        scenario::scrub_cache(dir, repair, &std::cout);
    const std::size_t unresolved =
        repair ? report.unrepairable : report.corrupt;
    return unresolved == 0 ? 0 : 1;
  }

  scenario::Scenario s = scenario_from_flags(flags);
  const std::string algorithm = flags.get_string("algorithm", "mobic");
  const bool compare = flags.get_bool("compare", false);
  const std::string write_config_path = flags.get_string("write-config", "");
  const std::string events_csv = flags.get_string("events-csv", "");
  const std::string snapshots_csv = flags.get_string("snapshots-csv", "");
  const double snapshot_period = flags.get_double("snapshot-period", 10.0);
  const int jobs = flags.get_int("jobs", 0);
  const std::string metrics_out = flags.get_string("metrics-out", "");
  // Result-cache flags (honored on the --compare matrix path, which routes
  // through the Runner; the timeline path stays serial and uncached).
  const std::string cache_dir = flags.get_string("cache-dir", "");
  const bool resume = flags.get_bool("resume", false);
  const int resume_verify = flags.get_int("resume-verify", -1);
  flags.finish();

  std::ofstream metrics_stream;
  if (!metrics_out.empty()) {
    metrics_stream.open(metrics_out, std::ios::trunc);
    if (!metrics_stream.is_open()) {
      std::cerr << "cannot open " << metrics_out << "\n";
      return 1;
    }
  }
  const auto write_metrics = [&](const std::string& alg,
                                 const scenario::RunResult& r) {
    if (metrics_stream.is_open()) {
      metrics_stream << "{\"algorithm\":\"" << alg << "\",\"seed\":" << s.seed
                     << ",\"final_heads\":" << r.final_heads
                     << ",\"metrics\":" << r.metrics.to_json() << "}\n";
    }
  };

  if (!write_config_path.empty()) {
    std::ofstream out(write_config_path);
    scenario::write_config(out, s);
    std::cout << "Wrote scenario config to " << write_config_path << "\n";
    return 0;
  }

  std::cout << "manetsim: " << s.n_nodes << " nodes, "
            << mobility::model_kind_name(s.fleet.kind) << " mobility, "
            << s.fleet.field.width << "x" << s.fleet.field.height
            << " m, Tx " << s.tx_range << " m, " << s.sim_time
            << " s, seed " << s.seed << "\n\n";

  const bool want_timeline = !events_csv.empty() || !snapshots_csv.empty();
  const auto run_one = [&](const std::string& alg) {
    scenario::TimelineRecorder recorder;
    const auto on_start = [&](scenario::LiveContext& ctx) {
      if (want_timeline) {
        recorder.schedule_snapshots(ctx, snapshot_period, s.sim_time);
      }
    };
    const auto result =
        run_scenario(s, scenario::factory_by_name(alg), on_start,
                     want_timeline ? &recorder : nullptr);
    print_report(alg, result);
    write_metrics(alg, result);
    if (!s.obs.trace_path.empty()) {
      std::cout << "Wrote trace (" << obs::trace_level_name(s.obs.trace)
                << ") to " << s.obs.trace_path << "\n";
    }
    if (!events_csv.empty()) {
      std::ofstream out(events_csv);
      recorder.write_events_csv(out);
      std::cout << "Wrote " << recorder.role_events().size() << "+"
                << recorder.affiliation_events().size() << " events to "
                << events_csv << "\n";
    }
    if (!snapshots_csv.empty()) {
      std::ofstream out(snapshots_csv);
      recorder.write_snapshots_csv(out);
      std::cout << "Wrote " << recorder.snapshots().size()
                << " snapshot rows to " << snapshots_csv << "\n";
    }
  };

  if (compare && !want_timeline) {
    // No timeline export: run both algorithms concurrently and report in
    // algorithm order.
    scenario::RunnerOptions opts;
    opts.jobs = jobs;
    opts.cache_dir = cache_dir;
    opts.resume = resume;
    opts.resume_verify = resume_verify;
    const scenario::Runner runner(opts);
    const auto algorithms = scenario::paper_algorithms();
    const auto matrix = runner.run_matrix(s, algorithms, 1);
    for (std::size_t a = 0; a < algorithms.size(); ++a) {
      print_report(algorithms[a].name, matrix[a][0]);
      write_metrics(algorithms[a].name, matrix[a][0]);
    }
  } else if (compare) {
    // TimelineRecorder hooks into the live run, so timeline exports stay
    // on the serial path.
    for (const auto& alg : scenario::paper_algorithms()) {
      run_one(alg.name);
    }
  } else {
    run_one(algorithm);
  }
  return 0;
}
