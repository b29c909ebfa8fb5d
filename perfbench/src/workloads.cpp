#include "workloads.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <thread>

#include "report.h"
#include "scenario/experiment.h"
#include "scenario/reporting.h"
#include "scenario/runner.h"
#include "util/assert.h"
#include "util/hash.h"

namespace perfbench {

namespace sc = manet::scenario;

std::uint64_t cell_digest(const Cell& cell) {
  return manet::util::Fnv64::hash(sc::encode_cell(cell.result));
}

namespace {

// A (point x algorithm x seed) grid executed by scenario::Runner. Cells are
// filled from RunnerOptions::on_run, which the Runner invokes serially.
class GridWorkload : public Workload {
 public:
  int jobs() const override { return jobs_; }

 protected:
  GridWorkload(const Config& config, sc::SweepSpec spec, int default_jobs)
      : config_(config),
        jobs_(config.jobs > 0 ? config.jobs : default_jobs),
        spec_(std::move(spec)) {
    // The canonical cell list: Runner::run's job order and seed rule.
    for (std::size_t p = 0; p < spec_.xs.size(); ++p) {
      sc::Scenario configured = spec_.base;
      spec_.configure(configured, spec_.xs[p]);
      for (const auto& alg : spec_.algorithms) {
        for (int k = 0; k < spec_.replications; ++k) {
          Cell cell;
          cell.label = std::to_string(p) + "/" + alg.name + "/k" +
                       std::to_string(k);
          cell.algorithm = alg.name;
          cell.scenario = configured;
          cell.scenario.seed = spec_.base.seed + static_cast<std::uint64_t>(k);
          cell.node_sim_s = static_cast<double>(configured.n_nodes) *
                            configured.sim_time;
          template_.push_back(std::move(cell));
        }
      }
    }
  }

  sc::RunnerOptions runner_options() {
    sc::RunnerOptions options;
    options.jobs = jobs_;
    options.on_run = [this](const sc::RunRecord& r) { record(r); };
    return options;
  }

  // Runs the grid on `runner` into a fresh rep; traced reps get a "grid"
  // span with one child per simulated cell and per cache hit.
  Rep run_grid(const sc::Runner& runner, Tracer* tracer) {
    Rep rep;
    rep.cells = template_;
    current_ = &rep;
    rep.t0 = now_s();
    try {
      runner.run(spec_);
    } catch (const std::exception& e) {
      rep.error = e.what();
    }
    rep.t1 = now_s();
    current_ = nullptr;
    rep.cache = runner.cache_stats();
    if (tracer != nullptr) {
      const int grid = tracer->add("grid", "scenario", rep.t0, rep.t1);
      double prev_hit = rep.t0;
      for (std::size_t i = 0; i < rep.cells.size(); ++i) {
        const Cell& c = rep.cells[i];
        if (!c.done) {
          continue;
        }
        if (c.cached) {
          // Hits are reported from the serial lookup pass, so the gap since
          // the previous report is this cell's load (plus the miss probes
          // before it).
          tracer->add("cache.load", "scenario", prev_hit, c.end_s, grid,
                      static_cast<int>(i), c.lane);
          prev_hit = c.end_s;
        } else {
          tracer->add("cell", "scenario", c.end_s - c.wall_s, c.end_s, grid,
                      static_cast<int>(i), c.lane);
        }
      }
    }
    return rep;
  }

  // Canonical index of (point, algorithm, replicate); cells.size() when
  // the algorithm is not in the spec.
  std::size_t index_of(std::size_t point, const std::string& alg,
                       int k) const {
    const std::size_t n_alg = spec_.algorithms.size();
    std::size_t a = 0;
    while (a < n_alg && spec_.algorithms[a].name != alg) {
      ++a;
    }
    if (a == n_alg) {
      return template_.size();
    }
    return (point * n_alg + a) * static_cast<std::size_t>(spec_.replications) +
           static_cast<std::size_t>(k);
  }

  const Cell& cell_at(const Rep& rep, std::size_t point, const char* alg,
                      int k) const {
    const std::size_t i = index_of(point, alg, k);
    MANET_CHECK(i < rep.cells.size(), "no cell " << point << "/" << alg);
    return rep.cells[i];
  }

  Config config_;
  int jobs_;
  sc::SweepSpec spec_;
  std::vector<Cell> template_;

 private:
  void record(const sc::RunRecord& r) {
    if (current_ == nullptr || r.result == nullptr) {
      return;
    }
    const std::size_t i = index_of(r.point_index, r.algorithm, r.replicate);
    if (i >= current_->cells.size()) {
      return;
    }
    Cell& c = current_->cells[i];
    c.end_s = now_s();
    c.done = true;
    c.cached = r.status == "cached";
    c.wall_s = r.wall_seconds;
    c.result = *r.result;
    const auto [it, fresh] =
        lanes_.emplace(std::this_thread::get_id(), static_cast<int>(lanes_.size()));
    (void)fresh;
    c.lane = it->second;
  }

  Rep* current_ = nullptr;
  std::map<std::thread::id, int> lanes_;  // guarded by the Runner's lock
};

// ---------------------------------------------------------------- fig3_grid

class Fig3Grid final : public GridWorkload {
 public:
  explicit Fig3Grid(const Config& config)
      : GridWorkload(config, make_spec(config), 2) {}

  const char* name() const override { return "fig3_grid"; }

  double setup(Tracer* tracer) override {
    const Scope span(tracer, "setup", "scenario");
    const double t0 = now_s();
    runner_.reset();
    {
      const Scope s(tracer, "runner.construct", "scenario", span.id());
      runner_ = std::make_unique<sc::Runner>(runner_options());
    }
    {
      // The untimed warm-up cell: the grid's Tx = 250 m MOBIC first seed,
      // run on this thread.
      const Scope s(tracer, "warmup.cell", "scenario", span.id());
      warm_.result =
          sc::run_scenario(warm_scenario(), sc::factory_by_name("mobic"));
    }
    return now_s() - t0;
  }

  Rep run(Tracer* tracer) override { return run_grid(*runner_, tracer); }

  std::size_t check(const Rep& rep, std::ostream& log,
                    bool verbose) const override {
    std::size_t failures = 0;
    const std::size_t last = spec_.xs.size() - 1;
    const Cell& twin = cell_at(rep, last, "mobic", 0);
    if (twin.done && cell_digest(twin) != cell_digest(warm_)) {
      log << "CHECK FAILED fig3_grid: warm-up cell differs from grid cell "
          << twin.label << "\n";
      ++failures;
    }
    // Shape: MOBIC's mean CS below Lowest-ID's at the largest Tx.
    double cs[2] = {0.0, 0.0};
    const char* algs[2] = {"lowest_id", "mobic"};
    for (int a = 0; a < 2; ++a) {
      for (int k = 0; k < spec_.replications; ++k) {
        cs[a] += static_cast<double>(
            cell_at(rep, last, algs[a], k).result.ch_changes);
      }
      cs[a] /= spec_.replications;
    }
    const double gain = cs[0] > 0.0 ? (cs[0] - cs[1]) / cs[0] : 0.0;
    if (verbose) {
      log << "  shape: Tx " << spec_.xs[last] << " m mean CS lowest_id "
          << cs[0] << ", mobic " << cs[1] << ": MOBIC gain "
          << std::round(gain * 1000.0) / 10.0
          << " % (paper: up to 33 %; EXPERIMENTS.md: 13 % at 250 m)\n";
    }
    if (!(cs[1] < cs[0])) {
      log << "CHECK FAILED fig3_grid: MOBIC CS not below Lowest-ID at Tx "
          << spec_.xs[last] << " m\n";
      ++failures;
    }
    return failures;
  }

  const Cell& representative(const Rep& rep) const override {
    return cell_at(rep, spec_.xs.size() - 1, "mobic", 0);
  }

 private:
  static sc::SweepSpec make_spec(const Config& config) {
    sc::SweepSpec spec;
    spec.base = sc::paper_scenario();
    spec.base.seed = config.seed;
    spec.xs = sc::default_tx_sweep();
    spec.replications = 5;
    if (config.tiny) {
      spec.xs = {50.0, 250.0};
      spec.replications = 2;
      spec.base.sim_time = 120.0;
    }
    spec.configure = [](sc::Scenario& s, double tx) { s.tx_range = tx; };
    spec.algorithms = sc::paper_algorithms();
    spec.fields = {{"cs", sc::field_ch_changes}};
    return spec;
  }

  sc::Scenario warm_scenario() const {
    sc::Scenario s = spec_.base;
    spec_.configure(s, spec_.xs.back());
    return s;
  }

  std::unique_ptr<sc::Runner> runner_;
  Cell warm_;
};

// ------------------------------------------------------------- churn_resume

class ChurnResume final : public GridWorkload {
 public:
  explicit ChurnResume(const Config& config)
      // Serial: with two pool threads, cells on a thread whose core the
      // host slowed formed a second mode of cell times, and cell_p50_ms
      // jumped between the modes from run to run.
      : GridWorkload(config, make_spec(config), 1),
        cache_dir_(config.work_dir + "/cache-churn_resume") {}

  const char* name() const override { return "churn_resume"; }

  // Computes the fixed prefill subset (every even canonical cell) once.
  void prepare() override {
    for (std::size_t i = 0; i < template_.size(); i += 2) {
      prefill_.push_back(i);
    }
    sc::RunnerOptions options;
    options.jobs = jobs_;
    const sc::Runner runner(options);
    const auto results = runner.map<sc::RunResult>(
        prefill_.size(), [&](std::size_t j) {
          const Cell& c = template_[prefill_[j]];
          return sc::run_scenario(c.scenario,
                                  sc::factory_by_name(c.algorithm));
        });
    for (std::size_t j = 0; j < prefill_.size(); ++j) {
      Cell& c = template_[prefill_[j]];
      prefilled_.push_back({sc::cache_cell_filename(c.scenario, c.algorithm),
                            results[j],
                            sc::encode_cell_meta(
                                c.algorithm,
                                sc::canonical_scenario_text(c.scenario))});
    }
  }

  // A fresh cache holding exactly the prefill subset: pure stores. One
  // prefill is a few milliseconds of small-file writes, so it is repeated
  // and the median prefill is returned; the last one is the rep's cache.
  double setup(Tracer* tracer) override {
    const Scope span(tracer, "setup", "scenario");
    std::vector<double> times;
    for (int r = 0; r < kPrefills; ++r) {
      std::filesystem::remove_all(cache_dir_);
      const double t0 = now_s();
      sc::ResultCache cache(cache_dir_);
      for (const Prefilled& p : prefilled_) {
        const double s0 = now_s();
        cache.store(p.filename, p.result, p.meta);
        if (tracer != nullptr) {
          tracer->add("cache.store", "scenario", s0, now_s(), span.id());
        }
      }
      times.push_back(now_s() - t0);
    }
    if (config_.corrupt_prefill && !prefilled_.empty()) {
      // Flip one byte in the middle of the first prefilled cell.
      const std::string path = cache_dir_ + "/" + prefilled_.front().filename;
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(0, std::ios::end);
      const auto mid = f.tellg() / 2;
      f.seekg(mid);
      const char c = static_cast<char>(f.get());
      f.seekp(mid);
      f.put(static_cast<char>(c ^ 0x01));
    }
    return median(times);
  }

  Rep run(Tracer* tracer) override {
    sc::RunnerOptions options = runner_options();
    options.cache_dir = cache_dir_;
    options.resume = true;
    options.resume_verify = -1;  // auto: 1/16 of the hits, at least one
    const double t0 = now_s();
    const sc::Runner runner(options);
    Rep rep = run_grid(runner, tracer);
    rep.t0 = t0;  // Runner construction is part of the timed phase here
    rep.verify_expected =
        rep.cache.hits == 0 ? 0 : std::max<std::size_t>(1, rep.cache.hits / 16);
    return rep;
  }

  std::size_t check(const Rep& rep, std::ostream& log,
                    bool verbose) const override {
    std::size_t failures = 0;
    if (verbose) {
      log << "  check: cache hits " << rep.cache.hits << ", misses "
          << rep.cache.misses << ", stores " << rep.cache.stores
          << ", verified " << rep.cache.verified << " of "
          << rep.verify_expected << ", corrupt " << rep.cache.corrupt << "\n";
    }
    if (rep.cache.corrupt != 0) {
      log << "CHECK FAILED churn_resume: " << rep.cache.corrupt
          << " corrupt cache cell(s) recomputed\n";
      failures += rep.cache.corrupt;
    }
    if (rep.cache.verified != rep.verify_expected) {
      log << "CHECK FAILED churn_resume: " << rep.cache.verified << " of "
          << rep.verify_expected << " resume verifications passed\n";
      failures += rep.verify_expected - std::min(rep.verify_expected,
                                                 rep.cache.verified);
    }
    for (std::size_t j = 0; j < prefill_.size(); ++j) {
      const Cell& c = rep.cells[prefill_[j]];
      if (c.done && c.result != prefilled_[j].result) {
        log << "CHECK FAILED churn_resume: cell " << c.label
            << " differs from its prefilled result\n";
        ++failures;
      }
    }
    return failures;
  }

  // The densest fault cell: the highest crash and loss-burst rates.
  const Cell& representative(const Rep& rep) const override {
    return cell_at(rep, spec_.xs.size() - 1, "mobic", 0);
  }

 private:
  static sc::SweepSpec make_spec(const Config& config) {
    // resilience_churn's grid, flattened to one axis: point i runs crash
    // rate kCrashes[i % 3] per 100 s with loss-burst rate kBursts[i / 3].
    sc::SweepSpec spec;
    spec.base = sc::paper_scenario();
    spec.base.seed = config.seed;
    spec.base.sim_time = config.tiny ? 120.0 : 300.0;
    spec.base.propagation = "shadowing";
    spec.base.net.collision_window = 0.001;
    spec.base.energy.enabled = true;
    spec.base.energy.capacity_j = 60.0;
    spec.base.energy.capacity_jitter = 0.5;
    spec.base.energy.idle_drain_w = 0.01;
    spec.base.energy.hello_tx_cost_j = 0.02;
    spec.base.energy.hello_rx_cost_j = 0.005;
    spec.xs = config.tiny ? std::vector<double>{0.0, 8.0}
                          : std::vector<double>{0, 1, 2, 3, 4, 5, 6, 7, 8};
    spec.replications = config.tiny ? 1 : 6;
    const double end = spec.base.sim_time - 60.0;
    spec.configure = [end](sc::Scenario& s, double x) {
      static constexpr double kCrashes[3] = {1.0, 3.0, 6.0};
      static constexpr double kBursts[3] = {0.0, 0.02, 0.05};
      const auto i = static_cast<std::size_t>(x);
      s.faults.begin = 30.0;
      s.faults.end = end;
      s.faults.crash_rate = kCrashes[i % 3] / 100.0;
      s.faults.mean_downtime = 30.0;
      s.faults.loss_burst_rate = kBursts[i / 3];
      s.faults.loss_burst_duration = 8.0;
      s.faults.loss_burst_probability = 0.9;
    };
    spec.algorithms = sc::paper_algorithms();
    spec.fields = {{"cs", sc::field_ch_changes}};
    return spec;
  }

  static constexpr int kPrefills = 15;

  struct Prefilled {
    std::string filename;
    sc::RunResult result;
    std::string meta;
  };

  std::string cache_dir_;
  std::vector<std::size_t> prefill_;  // canonical cell indices
  std::vector<Prefilled> prefilled_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& config) {
  if (name == "fig3_grid") {
    return std::make_unique<Fig3Grid>(config);
  }
  if (name == "churn_resume") {
    return std::make_unique<ChurnResume>(config);
  }
  return nullptr;
}

}  // namespace perfbench
