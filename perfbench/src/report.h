// Sample statistics, host-machine facts and result printing for perfbench.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Host monotonic clock, in seconds.
double now_s();

/// Host CPU seconds the process has used so far: user + system, and the
/// system part alone.
double cpu_s();
double sys_s();

/// Process peak resident set size in MiB (VmHWM).
double peak_rss_mb();

/// Median of a sample (0 for an empty one).
double median(std::vector<double> v);

/// The highest percentile of a sample that still has at least ten samples
/// beyond it: with n sorted samples, the (n-10)-th smallest value, at
/// percentile 100*(n-10)/n. A sample of ten or fewer has no such
/// percentile; its maximum is reported at percentile 100 instead.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> v);

/// One reported metric: name, value, unit and how many samples it rests on.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
  std::string note;  // printed beside the value, e.g. "p98.2"
};

/// The machine fingerprint every result is stamped with: nproc, CPU model,
/// compiler and version, build type, git sha and the filesystem holding
/// `cache_dir`. Rendered as a one-line JSON object.
std::string fingerprint_json(const std::string& cache_dir,
                             const std::string& git_sha);

/// Prints each metric as a human-readable line ("name = value unit (n=..)")
/// and then, as the last line of stdout, the result object
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value","unit"}}}.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

/// Shortest decimal text that round-trips a double.
std::string num(double v);

}  // namespace perfbench
