// The Runner's core contract: output is bit-for-bit identical to a serial
// run regardless of thread count, exceptions surface deterministically, and
// the observability side channels (progress meter, run log, on_run hook)
// see every run. This test is also the tier-1 TSan workload (see
// MANET_SANITIZE in the top-level CMakeLists).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>

#include "scenario/runner.h"
#include "util/assert.h"
#include "util/progress.h"

namespace manet::scenario {
namespace {

SweepSpec small_spec() {
  SweepSpec spec;
  spec.base.n_nodes = 15;
  spec.base.fleet.field = geom::Rect(300.0, 300.0);
  spec.base.fleet.max_speed = 10.0;
  spec.base.tx_range = 100.0;
  spec.base.sim_time = 60.0;
  spec.base.warmup = 5.0;
  spec.base.seed = 3;
  spec.xs = {80.0, 150.0};
  spec.configure = [](Scenario& s, double tx) { s.tx_range = tx; };
  spec.algorithms = paper_algorithms();
  spec.fields = {{"cs", field_ch_changes},
                 {"clusters", field_avg_clusters}};
  spec.replications = 3;
  return spec;
}

SweepResult run_with_jobs(int jobs) {
  RunnerOptions opts;
  opts.jobs = jobs;
  return Runner(opts).run(small_spec());
}

void expect_identical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.field_names, b.field_names);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.points[i].x, b.points[i].x);
    ASSERT_EQ(a.points[i].algorithms.size(), b.points[i].algorithms.size());
    for (const auto& [name, cell] : a.points[i].algorithms) {
      ASSERT_TRUE(b.points[i].algorithms.count(name));
      const auto& other = b.points[i].algorithms.at(name);
      for (const auto& [field, agg] : cell.values) {
        EXPECT_DOUBLE_EQ(agg.mean, other.values.at(field).mean);
        EXPECT_DOUBLE_EQ(agg.half_width, other.values.at(field).half_width);
        EXPECT_EQ(agg.n, other.values.at(field).n);
      }
      // Raw per-seed samples must match *including ordering* — the reducer
      // works in canonical (point, algorithm, seed) order, never
      // completion order.
      for (const auto& [field, samples] : cell.raw) {
        EXPECT_EQ(samples, other.raw.at(field));
      }
    }
  }
}

TEST(RunnerDeterminismTest, IdenticalAcrossJobCounts) {
  const auto serial = run_with_jobs(1);
  expect_identical(serial, run_with_jobs(2));
  expect_identical(serial, run_with_jobs(8));
}

TEST(RunnerDeterminismTest, ReplicationsMatchSerialRuns) {
  auto s = small_spec().base;
  RunnerOptions opts;
  opts.jobs = 4;
  const auto parallel =
      Runner(opts).replications(s, factory_by_name("mobic"), 3);
  ASSERT_EQ(parallel.size(), 3u);
  for (int k = 0; k < 3; ++k) {
    auto one = s;
    one.seed = s.seed + static_cast<std::uint64_t>(k);
    const auto serial = run_scenario(one, factory_by_name("mobic"));
    EXPECT_EQ(parallel[static_cast<std::size_t>(k)].ch_changes,
              serial.ch_changes);
    EXPECT_EQ(parallel[static_cast<std::size_t>(k)].hellos_delivered,
              serial.hellos_delivered);
    EXPECT_DOUBLE_EQ(parallel[static_cast<std::size_t>(k)].avg_clusters,
                     serial.avg_clusters);
  }
}

TEST(RunnerDeterminismTest, RunMatrixFollowsInputOrder) {
  const auto spec = small_spec();
  RunnerOptions opts;
  opts.jobs = 4;
  const Runner runner(opts);
  const auto matrix = runner.run_matrix(spec.base, spec.algorithms, 2);
  ASSERT_EQ(matrix.size(), spec.algorithms.size());
  for (std::size_t a = 0; a < matrix.size(); ++a) {
    ASSERT_EQ(matrix[a].size(), 2u);
    const auto serial =
        runner.replications(spec.base, spec.algorithms[a].factory, 2);
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_EQ(matrix[a][k].ch_changes, serial[k].ch_changes);
    }
  }
}

TEST(RunnerDeterminismTest, ExceptionsSurfaceDeterministically) {
  auto spec = small_spec();
  spec.algorithms.push_back(
      {"broken", [](cluster::ClusterEventSink*) -> cluster::ClusterOptions {
         throw std::runtime_error("factory exploded");
       }});
  for (const int jobs : {1, 4}) {
    RunnerOptions opts;
    opts.jobs = jobs;
    EXPECT_THROW(Runner(opts).run(spec), std::runtime_error) << jobs;
  }
}

TEST(RunnerDeterminismTest, ValidatesSpec) {
  const Runner runner;
  auto no_xs = small_spec();
  no_xs.xs.clear();
  EXPECT_THROW(runner.run(no_xs), util::CheckError);
  auto no_algs = small_spec();
  no_algs.algorithms.clear();
  EXPECT_THROW(runner.run(no_algs), util::CheckError);
  auto no_fields = small_spec();
  no_fields.fields.clear();
  EXPECT_THROW(runner.run(no_fields), util::CheckError);
  auto no_reps = small_spec();
  no_reps.replications = 0;
  EXPECT_THROW(runner.run(no_reps), util::CheckError);
  auto dup = small_spec();
  dup.algorithms.push_back(dup.algorithms.front());
  EXPECT_THROW(runner.run(dup), util::CheckError);
}

TEST(RunnerDeterminismTest, OnRunHookSeesEveryRun) {
  auto spec = small_spec();
  std::set<std::tuple<std::size_t, std::string, int>> seen;
  std::set<std::uint64_t> seeds;
  RunnerOptions opts;
  opts.jobs = 4;
  opts.on_run = [&](const RunRecord& rec) {
    ASSERT_NE(rec.result, nullptr);
    EXPECT_GE(rec.wall_seconds, 0.0);
    EXPECT_EQ(rec.seed,
              spec.base.seed + static_cast<std::uint64_t>(rec.replicate));
    seen.insert({rec.point_index, rec.algorithm, rec.replicate});
    seeds.insert(rec.seed);
  };
  Runner(opts).run(spec);
  EXPECT_EQ(seen.size(), spec.xs.size() * spec.algorithms.size() *
                             static_cast<std::size_t>(spec.replications));
  EXPECT_EQ(seeds.size(), static_cast<std::size_t>(spec.replications));
}

TEST(RunnerDeterminismTest, RunLogHasOneLinePerRun) {
  const std::string path = "runner_determinism_run_log.jsonl";
  std::remove(path.c_str());
  const auto spec = small_spec();
  {
    RunnerOptions opts;
    opts.jobs = 4;
    opts.run_log_path = path;
    Runner(opts).run(spec);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    // Cheap JSONL shape check.
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"algorithm\""), std::string::npos);
    EXPECT_NE(line.find("\"seed\""), std::string::npos);
    EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos);
  }
  EXPECT_EQ(lines, spec.xs.size() * spec.algorithms.size() *
                       static_cast<std::size_t>(spec.replications));
  std::remove(path.c_str());
}

TEST(RunnerDeterminismTest, RunLogRecordsErrorStatus) {
  const std::string path = "runner_determinism_error_log.jsonl";
  std::remove(path.c_str());
  auto spec = small_spec();
  spec.algorithms.push_back(
      {"broken", [](cluster::ClusterEventSink*) -> cluster::ClusterOptions {
         throw std::runtime_error("factory exploded");
       }});
  {
    // jobs=1 executes in canonical order, so the real algorithms of the
    // first point log "ok" lines before the appended broken one aborts.
    RunnerOptions opts;
    opts.jobs = 1;
    opts.run_log_path = path;
    EXPECT_THROW(Runner(opts).run(spec), std::runtime_error);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::size_t ok = 0;
  std::size_t error = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.find("\"status\":\"error\"") != std::string::npos) {
      ++error;
      EXPECT_NE(line.find("\"algorithm\":\"broken\""), std::string::npos);
      EXPECT_NE(line.find("factory exploded"), std::string::npos);
    } else {
      EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos);
      ++ok;
    }
  }
  EXPECT_GT(error, 0u);
  EXPECT_GT(ok, 0u);
  std::remove(path.c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::size_t count_lines(const std::string& text) {
  return static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n'));
}

// One Runner executing several grids truncates each log once and appends
// every later grid (for_each included), and the metrics log stays
// byte-identical for any jobs value.
TEST(RunnerDeterminismTest, LogsKeepEveryGridOfOneRunner) {
  const auto spec = small_spec();
  const std::size_t runs = spec.xs.size() * spec.algorithms.size() *
                               static_cast<std::size_t>(spec.replications) +
                           2;
  std::string metrics[2];
  const int jobs[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    const std::string suffix = "_j" + std::to_string(jobs[i]) + ".jsonl";
    RunnerOptions opts;
    opts.jobs = jobs[i];
    opts.run_log_path = testing::TempDir() + "runner_grids_run" + suffix;
    opts.metrics_log_path =
        testing::TempDir() + "runner_grids_metrics" + suffix;
    {
      const Runner runner(opts);
      runner.run(spec);
      runner.for_each(3, [](std::size_t) {});
      runner.replications(spec.base, factory_by_name("mobic"), 2, "mobic");
    }
    EXPECT_EQ(count_lines(read_file(opts.run_log_path)), runs);
    metrics[i] = read_file(opts.metrics_log_path);
    EXPECT_EQ(count_lines(metrics[i]), MANET_OBS_ENABLED ? runs : 0u);
    std::remove(opts.run_log_path.c_str());
    std::remove(opts.metrics_log_path.c_str());
  }
  EXPECT_EQ(metrics[0], metrics[1]);
}

TEST(RunnerDeterminismTest, ResolveJobsPrecedence) {
  // Explicit request wins.
  EXPECT_EQ(Runner::resolve_jobs(4), 4);
  // Then $MANET_JOBS...
  ::setenv("MANET_JOBS", "3", 1);
  EXPECT_EQ(Runner::resolve_jobs(0), 3);
  EXPECT_EQ(Runner::resolve_jobs(2), 2);  // explicit still wins
  // ...garbage and non-positive values fall through to hardware.
  ::setenv("MANET_JOBS", "zero", 1);
  EXPECT_GE(Runner::resolve_jobs(0), 1);
  ::setenv("MANET_JOBS", "-2", 1);
  EXPECT_GE(Runner::resolve_jobs(0), 1);
  ::unsetenv("MANET_JOBS");
  EXPECT_GE(Runner::resolve_jobs(0), 1);
}

TEST(RunnerDeterminismTest, RunnerReportsResolvedJobs) {
  RunnerOptions opts;
  opts.jobs = 5;
  EXPECT_EQ(Runner(opts).jobs(), 5);
}

TEST(ProgressMeterTest, CountsRunsAndThroughput) {
  util::ProgressMeter meter;
  meter.start(4);
  meter.record_run(60.0, 0.5);
  meter.record_run(60.0, 1.5);
  const auto snap = meter.snapshot();
  EXPECT_EQ(snap.completed, 2u);
  EXPECT_EQ(snap.total, 4u);
  EXPECT_DOUBLE_EQ(snap.sim_seconds, 120.0);
  EXPECT_DOUBLE_EQ(snap.run_wall_s, 2.0);
  EXPECT_DOUBLE_EQ(snap.mean_run_wall_s(), 1.0);
  EXPECT_GE(snap.wall_elapsed_s, 0.0);
  if (snap.wall_elapsed_s > 0.0) {
    EXPECT_GT(snap.sim_rate(), 0.0);
  }
}

}  // namespace
}  // namespace manet::scenario
