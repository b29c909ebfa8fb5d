#include "bench_common.h"

#include <cstdlib>
#include <iostream>

namespace manet::bench {

namespace {

constexpr const char* kStandardHelp =
    "  --seeds N           replications per (point, algorithm) [5]\n"
    "  --time S            simulated seconds per run [900]\n"
    "  --fast              CI preset: 3 seeds, 300 s\n"
    "  --csv PATH          export the result table as CSV\n"
    "  --jobs N            parallel in-process runs (0 = auto: $MANET_JOBS,\n"
    "                      else hardware); output is byte-identical for\n"
    "                      every value\n"
    "  --progress          live progress line on stderr\n"
    "  --run-log PATH      JSONL run log, one line per finished run\n"
    "                      (completion order)\n"
    "  --metrics-out PATH  per-run obs::Snapshot JSONL in canonical order\n"
    "                      (byte-identical for every --jobs value)\n"
    "  --trace-out PATH    Chrome-trace JSON per run; include \"{tag}\" or\n"
    "                      \"{seed}\" so concurrent runs write distinct\n"
    "                      files\n"
    "  --trace-level L     off | spans | full (default spans when\n"
    "                      --trace-out is set)\n"
    "\n"
    "result cache:\n"
    "  --cache-dir DIR     content-addressed result cache: present cells\n"
    "                      are served without simulating, computed cells\n"
    "                      are stored; outputs stay byte-identical\n"
    "  --resume            requires --cache-dir: byte-verify a sample of\n"
    "                      the cache hits against recomputation\n"
    "  --resume-verify N   hits to verify (-1 auto = 1/16 of hits,\n"
    "                      0 = none)\n";

}  // namespace

void BenchConfig::apply_obs(scenario::Scenario& s) const {
  s.obs.trace_path = trace_out;
  s.obs.trace = trace_level;
}

scenario::RunnerOptions BenchConfig::runner_options() const {
  scenario::RunnerOptions options;
  options.jobs = jobs;
  options.progress = progress ? &std::cerr : nullptr;
  options.run_log_path = run_log_path;
  options.metrics_log_path = metrics_out;
  options.cache_dir = cache_dir;
  options.resume = resume;
  options.resume_verify = resume_verify;
  return options;
}

scenario::Runner BenchConfig::runner() const {
  return scenario::Runner(runner_options());
}

Cli::Cli(int argc, const char* const* argv, std::string synopsis,
         std::vector<std::pair<std::string, std::string>> extra_help,
         bool standard)
    : flags_(argc, argv) {
  if (flags_.get_bool("help", false)) {
    std::cout << "usage: " << flags_.program() << " [options]\n\n"
              << synopsis << "\n\noptions:\n  --help              this page\n";
    for (const auto& [flag, text] : extra_help) {
      std::cout << "  " << flag;
      if (flag.size() < 18) {
        std::cout << std::string(18 - flag.size(), ' ');
      } else {
        std::cout << "\n                    ";
      }
      std::cout << "  " << text << "\n";
    }
    if (standard) {
      std::cout << kStandardHelp;
    }
    std::exit(0);
  }
  if (!standard) {
    return;
  }
  const bool fast = flags_.get_bool("fast", false);
  config_.seeds = flags_.get_int("seeds", fast ? 3 : 5);
  config_.sim_time = flags_.get_double("time", fast ? 300.0 : 900.0);
  config_.csv_path = flags_.get_string("csv", "");
  config_.jobs = flags_.get_int("jobs", 0);
  config_.progress = flags_.get_bool("progress", false);
  config_.run_log_path = flags_.get_string("run-log", "");
  config_.metrics_out = flags_.get_string("metrics-out", "");
  config_.trace_out = flags_.get_string("trace-out", "");
  if (flags_.has("trace-level")) {
    config_.trace_level =
        obs::parse_trace_level(flags_.get_string("trace-level", "spans"));
  }
  config_.cache_dir = flags_.get_string("cache-dir", "");
  config_.resume = flags_.get_bool("resume", false);
  config_.resume_verify = flags_.get_int("resume-verify", -1);
}

}  // namespace manet::bench
