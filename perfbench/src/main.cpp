// perfbench: the repository benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--git-sha SHA] [--tiny] [--jobs N]
//             [--corrupt-prefill] [--wrong-digest]
//
// Runs one workload (workloads.h) rep after rep, closed-loop, until
// --seconds have been measured, checks every rep's outputs and prints the
// metrics. --trace 0 reports the end-to-end metrics; --trace 1 alternates
// untraced and traced reps, replays the representative cell layer by layer
// (layers.h) and reports the per-layer metrics, writing the spans as
// Chrome-trace JSON under --work-dir. The last stdout line is always the
// result object {"correct", "attempted", "failed", "metrics"}.
//
// --tiny, --jobs, --corrupt-prefill and --wrong-digest serve the
// self-test (selftest.py).
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "layers.h"
#include "report.h"
#include "spans.h"
#include "util/hash.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload {fig3_grid|churn_resume} "
               "--seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--git-sha SHA] [--tiny] [--jobs N] "
               "[--corrupt-prefill] [--wrong-digest]\n";
  return 2;
}

// Compares every rep's cells with the first rep's and keeps the counts.
class Verifier {
 public:
  explicit Verifier(bool wrong_digest) : wrong_digest_(wrong_digest) {}

  // Returns the failures found in `rep` and prints each.
  std::size_t verify(const Workload& w, const Rep& rep) {
    std::size_t failed = 0;
    if (!rep.error.empty()) {
      std::cout << "ERROR " << w.name() << ": " << rep.error << "\n";
    }
    const bool first = expected_.empty();
    for (std::size_t i = 0; i < rep.cells.size(); ++i) {
      const Cell& c = rep.cells[i];
      ++attempted_;
      if (!c.done) {
        ++failed;
        if (first) {
          expected_.push_back(0);
        }
        continue;
      }
      const std::uint64_t d = cell_digest(c);
      if (first) {
        expected_.push_back(d);
      } else if (expected_[i] != d) {
        std::cout << "CHECK FAILED " << w.name() << ": cell " << c.label
                  << " digest differs from the first rep\n";
        ++failed;
      }
    }
    if (first) {
      manet::util::Fnv64 h;
      for (const std::uint64_t d : expected_) {
        h.update(manet::util::hex64(d));
      }
      digest_ = manet::util::hex64(h.digest());
      if (wrong_digest_ && !expected_.empty()) {
        expected_[0] ^= 1;  // every later rep now mismatches one cell
      }
    }
    failed += w.check(rep, std::cout, first);
    failed_ += failed;
    return failed;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::string& digest() const { return digest_; }

 private:
  bool wrong_digest_;
  std::vector<std::uint64_t> expected_;
  std::string digest_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

void print_layer_table(const Tracer& tracer) {
  const auto rows = tracer.layer_table();
  double total_self = 0.0;
  for (const auto& r : rows) {
    total_self += r.self_s;
  }
  std::cout << "  layer        spans      total_ms       self_ms  self_share\n";
  for (const auto& r : rows) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-10s %8llu %13.3f %13.3f %10.4f\n",
                  r.layer.c_str(), static_cast<unsigned long long>(r.count),
                  r.total_s * 1e3, r.self_s * 1e3,
                  total_self > 0.0 ? r.self_s / total_self : 0.0);
    std::cout << line;
  }
}

int run(int argc, char** argv) {
  std::string workload;
  std::string seed_text;
  std::string seconds_text;
  std::string trace_text;
  std::string git_sha = "unknown";
  Config config;
  config.work_dir = ".bench_build/work";
  bool wrong_digest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + a);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      seed_text = value();
    } else if (a == "--seconds") {
      seconds_text = value();
    } else if (a == "--trace") {
      trace_text = value();
    } else if (a == "--work-dir") {
      config.work_dir = value();
    } else if (a == "--git-sha") {
      git_sha = value();
    } else if (a == "--jobs") {
      config.jobs = std::stoi(value());
    } else if (a == "--tiny") {
      config.tiny = true;
    } else if (a == "--corrupt-prefill") {
      config.corrupt_prefill = true;
    } else if (a == "--wrong-digest") {
      wrong_digest = true;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (workload.empty() || seed_text.empty() || seconds_text.empty() ||
      (trace_text != "0" && trace_text != "1")) {
    return usage("--workload, --seed, --seconds and --trace 0|1 are required");
  }
  config.seed = std::stoull(seed_text);
  const double seconds = std::stod(seconds_text);
  const bool traced = trace_text == "1";
  if (!(seconds > 0.0) || config.jobs < 0) {
    return usage("--seconds must be positive and --jobs not negative");
  }
  std::unique_ptr<Workload> w = make_workload(workload, config);
  if (w == nullptr) {
    return usage(("unknown workload " + workload).c_str());
  }
  std::filesystem::create_directories(config.work_dir);
  std::cout << "fingerprint: " << fingerprint_json(config.work_dir, git_sha)
            << "\n";
  std::cout << "workload " << w->name() << " seed " << config.seed
            << " seconds " << seconds << " trace " << trace_text << " jobs "
            << w->jobs() << (config.tiny ? " (tiny)" : "") << "\n";

  const double p0 = now_s();
  w->prepare();
  std::cout << "  prepare: " << num(now_s() - p0) << " s\n";

  Verifier verifier(wrong_digest);
  Tracer tracer;
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> throughput;
  std::vector<double> cell_ms;
  std::vector<double> tail_ms;  // one per untraced rep
  Tail rep_tail;
  std::vector<double> traced_wall_s;
  Rep traced_rep;
  double first_rep_rss_mb = 0.0;
  const double deadline = now_s() + seconds;
  // Untraced reps, or (traced run) untraced and traced reps alternating;
  // at least two reps so cells are compared across reps.
  for (int k = 0; k < 2 || now_s() < deadline; ++k) {
    const bool trace_this = traced && k % 2 == 1;
    Tracer* tr = trace_this ? &tracer : nullptr;
    const double su = w->setup(tr);
    const double c0 = cpu_s();
    const double s0 = sys_s();
    Rep rep = w->run(tr);
    std::cout << "  rep " << k << (trace_this ? " traced" : "") << ": wall "
              << num(rep.wall()) << " s, cpu " << num(cpu_s() - c0)
              << " s (sys " << num(sys_s() - s0) << " s), setup " << num(su)
              << " s\n";
    verifier.verify(*w, rep);
    if (trace_this) {
      traced_wall_s.push_back(rep.wall());
      traced_rep = std::move(rep);
      continue;
    }
    if (wall_s.empty()) {
      // A user runs the workload once: the peak after the first rep is
      // theirs (later reps only add heap fragmentation).
      first_rep_rss_mb = peak_rss_mb();
    }
    setup_s.push_back(su);
    wall_s.push_back(rep.wall());
    double node_sim_s = 0.0;
    std::vector<double> rep_cell_ms;
    for (const Cell& c : rep.cells) {
      node_sim_s += c.node_sim_s;
      if (c.done && !c.cached) {
        rep_cell_ms.push_back(c.wall_s * 1e3);
      }
    }
    cell_ms.insert(cell_ms.end(), rep_cell_ms.begin(), rep_cell_ms.end());
    // The tail is taken within each rep, where it is the grid's dense
    // cells; pooled over reps it would be the host's rarest stalls.
    rep_tail = tail(rep_cell_ms);
    tail_ms.push_back(rep_tail.value);
    throughput.push_back(node_sim_s / rep.wall());
  }
  std::cout << "  reps: " << wall_s.size() << " untraced, "
            << traced_wall_s.size() << " traced; digest "
            << verifier.digest() << "\n";

  std::vector<Metric> metrics;
  if (!traced) {
    metrics.push_back({"wall_s", median(wall_s), "s", wall_s.size(), "median"});
    metrics.push_back({"node_sim_s_per_s", median(throughput), "node-s/s",
                       throughput.size(), "median"});
    metrics.push_back(
        {"cell_p50_ms", median(cell_ms), "ms", cell_ms.size(), "median"});
    metrics.push_back(
        {"cell_tail_ms", median(tail_ms), "ms", tail_ms.size(),
         "median over reps of each rep's p" +
             num(std::round(rep_tail.percentile * 10.0) / 10.0) + " of " +
             std::to_string(rep_tail.samples) + " cells"});
    metrics.push_back(
        {"setup_s", median(setup_s), "s", setup_s.size(), "median"});
    metrics.push_back(
        {"peak_rss_mb", first_rep_rss_mb, "MB", 1, "after the first rep"});
    std::cout << "  ops_attempted = " << verifier.attempted()
              << " cells, ops_failed = " << verifier.failed() << " cells\n";
  } else {
    const double overhead = median(traced_wall_s) / median(wall_s);
    metrics = measure_layers(*w, config, traced_rep, overhead, tracer);
    const std::string path = config.work_dir + "/trace-" + w->name() + "-s" +
                             std::to_string(config.seed) + ".json";
    std::ofstream out(path, std::ios::trunc);
    tracer.write_chrome(out);
    std::cout << "  trace: " << tracer.stored() << " spans written to " << path
              << " (" << tracer.dropped() << " more counted, not stored)\n";
    print_layer_table(tracer);
  }
  print_result(verifier.failed() == 0, verifier.attempted(), verifier.failed(),
               metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: fatal: " << e.what() << "\n";
    return 1;
  }
}
