#include "scenario/runner.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <future>
#include <mutex>
#include <ostream>
#include <thread>

#include "fault/fault.h"
#include "util/assert.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace manet::scenario {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
      }
      out.push_back(c);
    }
  }
  return out;
}

std::string describe_exception(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

// Serialized observability side of a grid execution: progress line, JSONL
// run log, user hook. Worker threads report here through finish_run().
// `log` is the Runner's run log; closed when there is none.
class Reporter {
 public:
  Reporter(const RunnerOptions& options, std::ofstream& log,
           std::size_t total)
      : options_(options), log_(log) {
    meter_.start(total);
  }

  void finish_run(const RunRecord* record, double sim_seconds,
                  double wall_seconds) {
    meter_.record_run(sim_seconds, wall_seconds);
    if (options_.progress == nullptr && options_.on_run == nullptr &&
        !log_.is_open()) {
      return;
    }
    std::lock_guard<std::mutex> lock(io_mu_);
    if (log_.is_open() && record != nullptr) {
      const RunResult& r = *record->result;
      log_ << "{\"point\":" << record->point_index << ",\"x\":" << record->x
           << ",\"algorithm\":\"" << json_escape(record->algorithm)
           << "\",\"replicate\":" << record->replicate
           << ",\"seed\":" << record->seed << ",\"status\":\""
           << json_escape(record->status) << "\""
           << ",\"wall_s\":" << wall_seconds << ",\"sim_s\":" << sim_seconds
           << ",\"ch_changes\":" << r.ch_changes
           << ",\"reaffiliations\":" << r.reaffiliations
           << ",\"avg_clusters\":" << r.avg_clusters
           << ",\"mean_degree\":" << r.mean_degree;
      if (!r.fault_timeline.empty()) {
        log_ << ",\"faults_injected\":" << r.faults_injected
             << ",\"recoveries\":" << r.recoveries
             << ",\"mean_recovery_s\":" << r.mean_recovery_s
             << ",\"max_recovery_s\":" << r.max_recovery_s
             << ",\"unrecovered\":" << r.unrecovered_disruptions
             << ",\"orphaned_member_s\":" << r.orphaned_member_seconds
             << ",\"violation_samples\":" << r.violation_samples
             << ",\"faults\":[";
        for (std::size_t i = 0; i < r.fault_timeline.size(); ++i) {
          if (i > 0) {
            log_ << ",";
          }
          log_ << fault::to_json(r.fault_timeline[i]);
        }
        log_ << "]";
      }
      log_ << "}\n";
    }
    if (options_.on_run != nullptr && record != nullptr) {
      options_.on_run(*record);
    }
    if (options_.progress != nullptr) {
      const auto s = meter_.snapshot();
      *options_.progress << "\r[" << s.completed << "/" << s.total << "] "
                         << s.sim_rate() << " sim-s/s, mean run "
                         << s.mean_run_wall_s() << " s" << std::flush;
      printed_ = true;
    }
  }

  /// A run that threw: still counted for progress and logged with status
  /// "error"; the Runner rethrows the exception after the grid drains.
  void finish_error(const RunRecord& record, double wall_seconds) {
    meter_.record_run(0.0, wall_seconds);
    std::lock_guard<std::mutex> lock(io_mu_);
    if (log_.is_open()) {
      log_ << "{\"point\":" << record.point_index << ",\"x\":" << record.x
           << ",\"algorithm\":\"" << json_escape(record.algorithm)
           << "\",\"replicate\":" << record.replicate
           << ",\"seed\":" << record.seed << ",\"status\":\""
           << json_escape(record.status) << "\""
           << ",\"wall_s\":" << wall_seconds << ",\"error\":\""
           << json_escape(record.error) << "\"}\n";
    }
  }

  ~Reporter() {
    if (printed_) {
      *options_.progress << "\n";
    }
    if (log_.is_open()) {
      log_.flush();
    }
  }

 private:
  const RunnerOptions& options_;
  std::ofstream& log_;
  util::ProgressMeter meter_;
  std::mutex io_mu_;
  bool printed_ = false;
};

}  // namespace

struct Runner::Job {
  std::size_t point_index = 0;
  double x = 0.0;
  std::string algorithm;
  int replicate = 0;
  Scenario scenario;                     // configured, seed already set
  const OptionsFactory* factory = nullptr;
  RunResult result;
  double wall_seconds = 0.0;
};

Runner::Runner(RunnerOptions options) : options_(std::move(options)) {
  MANET_CHECK(!options_.resume || !options_.cache_dir.empty(),
              "resume needs a result cache to verify: set cache_dir "
              "(--cache-dir)");
  jobs_ = resolve_jobs(options_.jobs);
  if (jobs_ > 1) {
    pool_ = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(jobs_));
  }
  if (!options_.run_log_path.empty()) {
    run_log_.open(options_.run_log_path, std::ios::trunc);
    MANET_CHECK(run_log_.is_open(),
                "cannot open run log " << options_.run_log_path);
  }
  if (!options_.metrics_log_path.empty()) {
    metrics_log_.open(options_.metrics_log_path, std::ios::trunc);
    MANET_CHECK(metrics_log_.is_open(),
                "cannot open metrics log " << options_.metrics_log_path);
  }
}

Runner::~Runner() = default;

int Runner::resolve_jobs(int requested) {
  if (requested > 0) {
    return requested;
  }
  if (const char* env = std::getenv("MANET_JOBS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return static_cast<int>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void Runner::fan_out(std::size_t count,
                     const std::function<void(std::size_t)>& task) const {
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < count; ++i) {
      task(i);
    }
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    futures.push_back(pool_->async([&task, i] { task(i); }));
  }
  for (auto& f : futures) {
    f.get();
  }
}

void Runner::for_each(std::size_t count,
                      const std::function<void(std::size_t)>& fn) const {
  if (count == 0) {
    return;
  }
  Reporter reporter(options_, run_log_, count);
  std::vector<std::exception_ptr> errors(count);
  std::atomic<bool> abort{false};
  fan_out(count, [&](std::size_t i) {
    if (abort.load(std::memory_order_relaxed)) {
      return;  // a sibling already failed; don't start new work
    }
    try {
      const auto t0 = std::chrono::steady_clock::now();
      fn(i);
      reporter.finish_run(nullptr, 0.0, seconds_since(t0));
    } catch (...) {
      errors[i] = std::current_exception();
      abort.store(true, std::memory_order_relaxed);
    }
  });
  // Canonical error order: the lowest failing index wins, so the exception a
  // caller sees does not depend on scheduling.
  for (std::size_t i = 0; i < count; ++i) {
    if (errors[i] != nullptr) {
      std::rethrow_exception(errors[i]);
    }
  }
}

void Runner::execute(std::vector<Job>& jobs) const {
  cache_stats_ = CacheStats{};
  if (jobs.empty()) {
    return;
  }
  Reporter reporter(options_, run_log_, jobs.size());
  std::vector<std::exception_ptr> errors(jobs.size());
  std::atomic<bool> abort{false};

  // Default per-run trace tag: lets one sweep write distinct trace files
  // through the {tag} placeholder of ObsConfig::trace_path. Done up front
  // (serially) so the cache's .meta sidecars see the final Scenario.
  for (Job& job : jobs) {
    if (job.scenario.obs.tag.empty()) {
      job.scenario.obs.tag = "p" + std::to_string(job.point_index) + "_" +
                             job.algorithm + "_s" +
                             std::to_string(job.scenario.seed);
    }
  }

  const auto make_record = [](const Job& job) {
    RunRecord record;
    record.point_index = job.point_index;
    record.x = job.x;
    record.algorithm = job.algorithm;
    record.replicate = job.replicate;
    record.seed = job.scenario.seed;
    return record;
  };

  // Cache lookup phase: serial, on this thread (cheap — one small file
  // read per cell), so hit reporting and MANET_LOG stay single-threaded.
  // A run is cacheable only when its algorithm label is non-empty; the
  // label names the configuration in the cache key.
  std::unique_ptr<ResultCache> cache;
  std::vector<std::string> filenames;    // per job; empty = not cacheable
  std::vector<char> cached;              // per job; 1 = served from cache
  std::vector<std::string> cached_text;  // on-disk bytes of each hit
  if (!options_.cache_dir.empty()) {
    cache = std::make_unique<ResultCache>(options_.cache_dir);
    filenames.resize(jobs.size());
    cached.assign(jobs.size(), 0);
    cached_text.resize(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      Job& job = jobs[i];
      if (job.algorithm.empty()) {
        continue;
      }
      filenames[i] = cache_cell_filename(job.scenario, job.algorithm);
      if (auto hit = cache->load(filenames[i], &cached_text[i])) {
        job.result = std::move(*hit);
        job.wall_seconds = 0.0;
        cached[i] = 1;
        RunRecord record = make_record(job);
        record.status = "cached";
        record.result = &job.result;
        reporter.finish_run(&record, 0.0, 0.0);
      }
    }
  }

  std::vector<std::size_t> pending;
  pending.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (cached.empty() || cached[i] == 0) {
      pending.push_back(i);
    }
  }

  fan_out(pending.size(), [&](std::size_t k) {
    if (abort.load(std::memory_order_relaxed)) {
      return;
    }
    const std::size_t i = pending[k];
    Job& job = jobs[i];
    RunRecord record = make_record(job);
    const auto t0 = std::chrono::steady_clock::now();
    try {
      job.result = run_scenario(job.scenario, *job.factory);
      job.wall_seconds = seconds_since(t0);
      record.wall_seconds = job.wall_seconds;
      record.result = &job.result;
      reporter.finish_run(&record, job.scenario.sim_time, job.wall_seconds);
      if (cache != nullptr && !filenames[i].empty()) {
        cache->store(filenames[i], job.result,
                     encode_cell_meta(job.algorithm,
                                      canonical_scenario_text(job.scenario)));
      }
    } catch (...) {
      errors[i] = std::current_exception();
      abort.store(true, std::memory_order_relaxed);
      record.status = "error";
      record.error = describe_exception(errors[i]);
      record.wall_seconds = seconds_since(t0);
      reporter.finish_error(record, record.wall_seconds);
    }
  });

  // --resume byte-verification: re-simulate a sample of the cache hits and
  // compare against the exact on-disk bytes. Catches a stale cache whose
  // epoch was not bumped, cells from a diverged build, or hand edits that
  // kept the digest consistent.
  if (cache != nullptr && options_.resume && options_.resume_verify != 0 &&
      !abort.load(std::memory_order_relaxed)) {
    std::vector<std::size_t> hits;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (cached[i] != 0) {
        hits.push_back(i);
      }
    }
    if (!hits.empty()) {
      const std::size_t want =
          options_.resume_verify < 0
              ? std::max<std::size_t>(1, hits.size() / 16)
              : std::min<std::size_t>(
                    static_cast<std::size_t>(options_.resume_verify),
                    hits.size());
      for (std::size_t v = 0; v < want; ++v) {
        const std::size_t i = hits[v * hits.size() / want];
        const RunResult fresh =
            run_scenario(jobs[i].scenario, *jobs[i].factory);
        const std::string fresh_text = encode_cell(fresh);
        MANET_CHECK(fresh_text == cached_text[i],
                    "resume verification failed: cached cell "
                        << filenames[i]
                        << " is not byte-identical to recomputation — "
                        << first_cell_difference(fresh_text, cached_text[i])
                        << " (stale cache epoch or diverged build?)");
        cache->note_verified();
      }
    }
  }
  if (cache != nullptr) {
    cache_stats_ = cache->stats();
  }
  // The metrics log is appended after the grid drains, in job (canonical)
  // order: byte-identical output for any worker count, unlike the
  // completion-ordered run log.
  if (metrics_log_.is_open()) {
    for (const Job& job : jobs) {
      if (job.result.metrics.empty()) {
        continue;  // errored run, or Scenario::obs.metrics off
      }
      metrics_log_ << "{\"point\":" << job.point_index << ",\"x\":" << job.x
           << ",\"algorithm\":\"" << json_escape(job.algorithm)
           << "\",\"replicate\":" << job.replicate
           << ",\"seed\":" << job.scenario.seed
           << ",\"final_heads\":" << job.result.final_heads
           << ",\"metrics\":" << job.result.metrics.to_json() << "}\n";
    }
    metrics_log_.flush();
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (errors[i] != nullptr) {
      std::rethrow_exception(errors[i]);
    }
  }
}

SweepResult Runner::run(const SweepSpec& spec) const {
  MANET_CHECK(!spec.xs.empty(), "empty sweep");
  MANET_CHECK(!spec.algorithms.empty(), "no algorithms");
  MANET_CHECK(!spec.fields.empty(), "no fields");
  MANET_CHECK(spec.replications > 0,
              "replications=" << spec.replications);
  for (std::size_t a = 0; a < spec.algorithms.size(); ++a) {
    for (std::size_t b = a + 1; b < spec.algorithms.size(); ++b) {
      MANET_CHECK(spec.algorithms[a].name != spec.algorithms[b].name,
                  "duplicate algorithm name " << spec.algorithms[a].name);
    }
  }

  // Specialize every sweep point serially on this thread, so `configure`
  // needs no thread safety; jobs then only vary the seed.
  std::vector<Scenario> configured;
  configured.reserve(spec.xs.size());
  for (const double x : spec.xs) {
    Scenario s = spec.base;
    if (spec.configure != nullptr) {
      spec.configure(s, x);
    }
    configured.push_back(std::move(s));
  }

  const auto reps = static_cast<std::size_t>(spec.replications);
  std::vector<Job> jobs;
  jobs.reserve(spec.xs.size() * spec.algorithms.size() * reps);
  for (std::size_t p = 0; p < spec.xs.size(); ++p) {
    for (const auto& alg : spec.algorithms) {
      for (std::size_t k = 0; k < reps; ++k) {
        Job job;
        job.point_index = p;
        job.x = spec.xs[p];
        job.algorithm = alg.name;
        job.replicate = static_cast<int>(k);
        job.scenario = configured[p];
        job.scenario.seed = spec.base.seed + static_cast<std::uint64_t>(k);
        job.factory = &alg.factory;
        jobs.push_back(std::move(job));
      }
    }
  }
  execute(jobs);

  // Reduce in canonical (point, algorithm, seed) order — the job list is
  // already laid out that way, so aggregation arithmetic is identical to a
  // serial run no matter which thread produced each result.
  SweepResult result;
  result.field_names.reserve(spec.fields.size());
  for (const auto& [name, fn] : spec.fields) {
    (void)fn;
    result.field_names.push_back(name);
  }
  result.points.resize(spec.xs.size());
  std::size_t j = 0;
  for (std::size_t p = 0; p < spec.xs.size(); ++p) {
    auto& point = result.points[p];
    point.x = spec.xs[p];
    for (const auto& alg : spec.algorithms) {
      auto& cell = point.algorithms[alg.name];
      const std::size_t first = j;
      j += reps;
      for (const auto& [name, field] : spec.fields) {
        auto& raw = cell.raw[name];
        raw.reserve(reps);
        for (std::size_t k = 0; k < reps; ++k) {
          raw.push_back(field(jobs[first + k].result));
        }
        cell.values[name] = util::mean_ci95(raw);
      }
    }
  }
  return result;
}

std::vector<RunResult> Runner::replications(const Scenario& scenario,
                                            const OptionsFactory& factory,
                                            int replications,
                                            const std::string& label) const {
  MANET_CHECK(replications > 0, "replications=" << replications);
  const auto reps = static_cast<std::size_t>(replications);
  std::vector<Job> jobs(reps);
  for (std::size_t k = 0; k < reps; ++k) {
    Job& job = jobs[k];
    job.algorithm = label;
    job.replicate = static_cast<int>(k);
    job.scenario = scenario;
    job.scenario.seed = scenario.seed + static_cast<std::uint64_t>(k);
    job.factory = &factory;
  }
  execute(jobs);
  std::vector<RunResult> results;
  results.reserve(reps);
  for (auto& job : jobs) {
    results.push_back(std::move(job.result));
  }
  return results;
}

std::vector<std::vector<RunResult>> Runner::run_matrix(
    const Scenario& scenario, const std::vector<AlgorithmSpec>& algorithms,
    int replications) const {
  MANET_CHECK(!algorithms.empty(), "no algorithms");
  MANET_CHECK(replications > 0, "replications=" << replications);
  const auto reps = static_cast<std::size_t>(replications);
  std::vector<Job> jobs;
  jobs.reserve(algorithms.size() * reps);
  for (const auto& alg : algorithms) {
    for (std::size_t k = 0; k < reps; ++k) {
      Job job;
      job.algorithm = alg.name;
      job.replicate = static_cast<int>(k);
      job.scenario = scenario;
      job.scenario.seed = scenario.seed + static_cast<std::uint64_t>(k);
      job.factory = &alg.factory;
      jobs.push_back(std::move(job));
    }
  }
  execute(jobs);
  std::vector<std::vector<RunResult>> results(algorithms.size());
  std::size_t j = 0;
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    results[a].reserve(reps);
    for (std::size_t k = 0; k < reps; ++k) {
      results[a].push_back(std::move(jobs[j++].result));
    }
  }
  return results;
}

std::vector<SweepPoint> SweepResult::series(const std::string& field) const {
  std::vector<SweepPoint> out;
  out.reserve(points.size());
  for (const auto& p : points) {
    SweepPoint sp;
    sp.x = p.x;
    for (const auto& [alg, cell] : p.algorithms) {
      sp.values[alg] = cell.values.at(field);
      sp.raw[alg] = cell.raw.at(field);
    }
    out.push_back(std::move(sp));
  }
  return out;
}

std::vector<MultiSweepPoint> SweepResult::multi() const {
  std::vector<MultiSweepPoint> out;
  out.reserve(points.size());
  for (const auto& p : points) {
    MultiSweepPoint mp;
    mp.x = p.x;
    for (const auto& [alg, cell] : p.algorithms) {
      mp.values[alg] = cell.values;
    }
    out.push_back(std::move(mp));
  }
  return out;
}

}  // namespace manet::scenario
