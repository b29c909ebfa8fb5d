// The experiment runner: one declarative SweepSpec describing a
// (point x algorithm x seed) grid, executed by a Runner that fans every run
// out to a work-stealing thread pool and reduces results in canonical
// (point, algorithm, seed) order — output is bit-for-bit identical to a
// serial run regardless of thread count (MRIP: each DES run stays
// single-threaded and deterministic; only independent replications execute
// concurrently).
//
//   SweepSpec spec;
//   spec.base = paper_scenario();
//   spec.xs = default_tx_sweep();
//   spec.configure = [](Scenario& s, double tx) { s.tx_range = tx; };
//   spec.algorithms = paper_algorithms();
//   spec.fields = {{"cs", field_ch_changes}};
//   spec.replications = 5;
//   const SweepResult result = Runner(options).run(spec);
//   const auto series = result.series("cs");
#pragma once

#include <cstddef>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "scenario/cache.h"
#include "scenario/experiment.h"
#include "scenario/scenario.h"
#include "util/progress.h"

namespace manet::util {
class ThreadPool;
}

namespace manet::scenario {

/// A full experiment grid: for every x in `xs`, `configure` specializes a
/// copy of `base`, then every algorithm runs `replications` seeds
/// (seed = base.seed + k) and every field is aggregated from the same runs.
struct SweepSpec {
  Scenario base;
  std::vector<double> xs;
  /// Called once per sweep point, on the caller's thread, before any run.
  std::function<void(Scenario&, double)> configure;
  std::vector<AlgorithmSpec> algorithms;
  std::vector<std::pair<std::string, FieldFn>> fields;
  int replications = 5;
};

/// One finished run, as seen by observability hooks and the JSONL run log.
struct RunRecord {
  std::size_t point_index = 0;
  double x = 0.0;
  std::string algorithm;
  int replicate = 0;        // seed offset k
  std::uint64_t seed = 0;   // the actual per-run seed
  double wall_seconds = 0.0;
  /// "ok"; "cached" when served from the result cache (wall_seconds 0);
  /// "error" when the run threw (the exception is still rethrown to the
  /// caller after the grid drains; the log line is observability).
  std::string status = "ok";
  std::string error;                  // what() of a failed run
  const RunResult* result = nullptr;  // valid only during the callback
};

struct RunnerOptions {
  /// Worker threads. 0 = auto: $MANET_JOBS if set, else the hardware
  /// concurrency. 1 runs inline on the calling thread (no pool).
  int jobs = 0;
  /// When set, a live one-line progress report (runs completed, sim-s/s
  /// throughput, mean per-run wall time) is rewritten on this stream as runs
  /// finish. Point it at stderr so stdout tables/CSV stay byte-identical.
  std::ostream* progress = nullptr;
  /// When non-empty, one JSON object per finished run is appended here
  /// (JSONL), in completion order — an observability log, not an output.
  /// The Runner truncates the file once, at construction; every grid it
  /// executes appends.
  std::string run_log_path;
  /// When non-empty, one JSON object per finished run — identity fields
  /// plus the full obs::Snapshot — is appended here (JSONL) after each grid
  /// drains, in canonical (point, algorithm, seed) order; grids follow call
  /// order. Unlike the run log, the byte stream is identical for any `jobs`
  /// value. Truncated once, at construction. Runs with
  /// Scenario::obs.metrics disabled are skipped.
  std::string metrics_log_path;
  /// Optional per-run hook, invoked serially (under a lock) as runs finish.
  /// Completion order is nondeterministic under jobs > 1.
  std::function<void(const RunRecord&)> on_run;

  // --- result cache (scenario/cache.h) ---

  /// When non-empty, a content-addressed result cache rooted here is
  /// consulted before dispatch (hits are served without simulating,
  /// status="cached") and every computed cell is stored into it. Only runs
  /// with a non-empty algorithm label are cacheable — the label is the
  /// algorithm's identity in the cache key, so it must uniquely name the
  /// configuration. Results are byte-identical with or without a cache.
  std::string cache_dir;
  /// Checkpoint/resume mode: after the grid drains, a sample of the cache
  /// hits is re-simulated and byte-compared against the on-disk cells —
  /// cheap insurance that the resumed state matches what this build
  /// computes. Throws CheckError on any mismatch. Requires cache_dir: the
  /// constructor rejects resume without one.
  bool resume = false;
  /// Resume verification sample size: -1 = auto (1/16 of the hits, at
  /// least one), 0 = skip verification, N = verify min(N, hits) cells.
  int resume_verify = -1;
};

/// Aggregated sweep results in canonical order, with per-seed raw samples.
struct SweepResult {
  /// One (x, algorithm) cell: per-field aggregate + per-seed samples.
  struct Cell {
    std::map<std::string, util::MeanCI> values;           // field -> mean/CI
    std::map<std::string, std::vector<double>> raw;       // field -> samples
  };
  struct Point {
    double x = 0.0;
    std::map<std::string, Cell> algorithms;               // name -> cell
  };

  std::vector<std::string> field_names;  // spec order
  std::vector<Point> points;             // xs order

  /// Projects one field as the classic single-field series (values + raw).
  std::vector<SweepPoint> series(const std::string& field) const;
  /// Projects every field as the classic multi-field series.
  std::vector<MultiSweepPoint> multi() const;
};

class Runner {
 public:
  explicit Runner(RunnerOptions options = {});
  ~Runner();

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// The resolved worker count this Runner executes with.
  int jobs() const { return jobs_; }

  /// Runs the full grid and reduces in canonical order.
  SweepResult run(const SweepSpec& spec) const;

  /// `replications` seeds of `scenario` (seed = scenario.seed + k),
  /// results in seed order.
  std::vector<RunResult> replications(const Scenario& scenario,
                                      const OptionsFactory& factory,
                                      int replications,
                                      const std::string& label = "") const;

  /// Every (algorithm, seed) combination of one scenario, concurrently;
  /// result[a][k] follows the input order.
  std::vector<std::vector<RunResult>> run_matrix(
      const Scenario& scenario, const std::vector<AlgorithmSpec>& algorithms,
      int replications) const;

  /// Low-level escape hatch: executes fn(0..count-1) on the pool. `fn` must
  /// be thread-safe; if any call throws, the exception of the lowest failing
  /// index is rethrown after the remaining started jobs finish. Reduce by
  /// index, never by completion order, to stay deterministic.
  void for_each(std::size_t count,
                const std::function<void(std::size_t)>& fn) const;

  /// Typed convenience over for_each(): results in index order.
  template <typename T>
  std::vector<T> map(std::size_t count,
                     const std::function<T(std::size_t)>& fn) const {
    std::vector<T> results(count);
    for_each(count, [&](std::size_t i) { results[i] = fn(i); });
    return results;
  }

  /// Resolves a jobs request: explicit value > $MANET_JOBS > hardware.
  static int resolve_jobs(int requested);

  /// Cache counters of the most recent grid execution (all zero when
  /// RunnerOptions::cache_dir is empty).
  CacheStats cache_stats() const { return cache_stats_; }

 private:
  struct Job;  // one (point, algorithm, seed) cell of a grid

  // Executes jobs (filling Job::result/wall_seconds), driving progress,
  // the run log, and the on_run hook.
  void execute(std::vector<Job>& jobs) const;

  // Calls task(0..count-1): inline in index order when jobs_ == 1, else
  // on the pool, returning once every call has finished. `task` must not
  // throw.
  void fan_out(std::size_t count,
               const std::function<void(std::size_t)>& task) const;

  RunnerOptions options_;
  int jobs_ = 1;
  std::unique_ptr<util::ThreadPool> pool_;  // null when jobs_ == 1
  // Opened (truncated) by the constructor when the matching path is set;
  // every grid appends.
  mutable std::ofstream run_log_;
  mutable std::ofstream metrics_log_;
  mutable CacheStats cache_stats_;
};

}  // namespace manet::scenario
