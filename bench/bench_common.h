// Shared plumbing for the figure-reproduction benches: one Cli declaring
// the standard flag set (parallelism, observability, result cache and
// resume) exactly once, a BenchConfig holding the parsed values, and a
// configured scenario::Runner. The paper-default scenario and table/CSV
// reporting helpers live in the library (scenario/reporting.h) and are
// re-exported here under manet::bench for the benches' convenience.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "scenario/reporting.h"
#include "scenario/runner.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/table.h"

namespace manet::bench {

using scenario::argmax_x;
using scenario::default_tx_sweep;
using scenario::paper_scenario;
using scenario::print_comparison;

/// Values of the standard bench flags (see Cli below for the flag list).
struct BenchConfig {
  int seeds = 5;
  double sim_time = 900.0;
  std::string csv_path;
  int jobs = 0;
  bool progress = false;
  std::string run_log_path;
  std::string metrics_out;
  std::string trace_out;
  obs::TraceLevel trace_level = obs::TraceLevel::kOff;
  // Result cache (scenario/cache.h).
  std::string cache_dir;
  bool resume = false;
  int resume_verify = -1;

  /// Applies the observability flags to the scenario every run clones.
  void apply_obs(scenario::Scenario& s) const;

  scenario::RunnerOptions runner_options() const;
  scenario::Runner runner() const;
};

/// The one command-line front end every bench binary shares.
///
/// Declares the standard flags once — so `--jobs`, `--metrics-out`,
/// `--cache-dir`, `--resume`, ... mean the same thing in every binary — and
/// renders a uniform `--help` page from the synopsis plus any
/// binary-specific `extra_help` rows. Binary-specific flags are read
/// through flags() before finish(); finish() rejects unknown flags.
///
/// Standard flags (parsed when `standard` is true):
///   --seeds N      replications per (point, algorithm)
///   --time S       simulated seconds
///   --fast         CI preset: 3 seeds, 300 s
///   --csv PATH     optional CSV export
///   --jobs N       parallel in-process runs (0 = auto: $MANET_JOBS, else
///                  hardware); output is byte-identical for every value
///   --progress     live progress line on stderr
///   --run-log PATH JSONL log, one line per finished run (completion order)
///   --metrics-out PATH  per-run obs::Snapshot JSONL, canonical order
///                       (byte-identical for every --jobs value)
///   --trace-out PATH    Chrome-trace JSON per run; include "{tag}" or
///                       "{seed}" so concurrent runs write distinct files
///   --trace-level L     off | spans | full (default spans when
///                       --trace-out is set)
///   --cache-dir DIR     content-addressed result cache: present cells are
///                       served without simulating, computed cells stored;
///                       outputs stay byte-identical
///   --resume            requires --cache-dir: byte-verify a sample of the
///                       cache hits against recomputation
///   --resume-verify N   hits to verify (-1 auto = 1/16 of hits, 0 = none)
class Cli {
 public:
  /// Parses argv; on --help prints the rendered page and exits 0.
  /// `extra_help` rows are ("--flag ARG", "description") pairs for
  /// binary-specific flags. `standard`=false (perf_suite) skips the
  /// standard flag set entirely.
  Cli(int argc, const char* const* argv, std::string synopsis,
      std::vector<std::pair<std::string, std::string>> extra_help = {},
      bool standard = true);

  /// Parsed standard flags; only valid when constructed with
  /// standard=true.
  const BenchConfig& config() const { return config_; }

  /// Raw access for binary-specific flags (query before finish()).
  util::Flags& flags() { return flags_; }

  /// Rejects unqueried (unknown/typo) flags. Call after reading every
  /// binary-specific flag.
  void finish() const { flags_.finish(); }

 private:
  util::Flags flags_;
  BenchConfig config_;
};

}  // namespace manet::bench
