// The metrics half of the observability layer: named counters and
// fixed-bucket histograms behind pre-registered handles.
//
// Ownership model mirrors the MRIP execution model of scenario::Runner:
// every simulation run owns exactly one Registry and updates it from a
// single thread, so handles are plain integers with no synchronization on
// the hot path (an increment is one add on a pre-allocated slot — the
// zero-allocation contract of tests/test_zero_alloc.cpp). Cross-thread
// aggregation happens by value: each run snapshots its registry and the
// caller merges Snapshots, which is deterministic in any merge order the
// canonical-order reduction of the Runner produces.
//
// The whole layer compiles out with -DMANET_OBS=OFF: handles survive but
// inc()/record() become empty inline functions, so instrumented call sites
// need no #ifdefs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#ifndef MANET_OBS_ENABLED
#define MANET_OBS_ENABLED 1
#endif

namespace manet::obs {

/// A monotonically increasing event count. Obtain from Registry::counter();
/// the handle stays valid for the registry's lifetime.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
#if MANET_OBS_ENABLED
    value_ += n;
#else
    (void)n;
#endif
  }
  std::uint64_t value() const {
#if MANET_OBS_ENABLED
    return value_;
#else
    return 0;
#endif
  }

 private:
#if MANET_OBS_ENABLED
  std::uint64_t value_ = 0;
#endif
};

/// Fixed-bucket histogram with Prometheus "le" semantics: bucket i counts
/// samples v with v <= bounds[i] that did not fit an earlier bucket, i.e.
/// bucket 0 is (-inf, bounds[0]], bucket i is (bounds[i-1], bounds[i]], and
/// one implicit overflow bucket holds v > bounds.back(). A sample equal to a
/// bound lands in that bound's bucket, not the next one — the boundary
/// contract tests/test_obs_registry.cpp pins down.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> bounds);

  void record(double v) {
#if MANET_OBS_ENABLED
    // Buckets are few (protocol histograms use <= 16); a linear scan beats
    // binary search at this size and stays branch-predictable.
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) {
      ++i;
    }
    ++counts_[i];
    sum_ += v;
#else
    (void)v;
#endif
  }

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (overflow last).
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  std::uint64_t total_count() const;
  double sum() const {
#if MANET_OBS_ENABLED
    return sum_;
#else
    return 0.0;
#endif
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 entries
#if MANET_OBS_ENABLED
  double sum_ = 0.0;
#endif
};

/// A registry's state frozen by value: plain data, safe to copy across
/// threads, mergeable, JSON-serializable. Entries are sorted by name, so two
/// snapshots of identical runs compare equal byte for byte.
struct Snapshot {
  struct CounterCell {
    std::string name;
    std::uint64_t value = 0;
    bool operator==(const CounterCell&) const = default;
  };
  struct HistogramCell {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;
    double sum = 0.0;
    bool operator==(const HistogramCell&) const = default;
  };

  std::vector<CounterCell> counters;      // sorted by name
  std::vector<HistogramCell> histograms;  // sorted by name

  bool empty() const { return counters.empty() && histograms.empty(); }

  /// Value of a counter, or `fallback` when absent.
  std::uint64_t counter_or(const std::string& name,
                           std::uint64_t fallback = 0) const;
  const HistogramCell* histogram(const std::string& name) const;

  /// Adds `other` into this snapshot: counters sum by name (union of
  /// names), histograms add bucket-wise. Histograms sharing a name must
  /// have identical bounds (CheckError otherwise).
  void merge(const Snapshot& other);

  /// Compact one-line JSON object:
  /// {"counters":{...},"histograms":{name:{"bounds":[..],"counts":[..],
  /// "sum":..}}}.
  void write_json(std::ostream& out) const;
  std::string to_json() const;

  bool operator==(const Snapshot&) const = default;
};

/// Owner of all counters and histograms of one simulation run. Handle
/// registration allocates and is meant for setup time; updates through the
/// returned handles never allocate. Not thread-safe — one registry belongs
/// to one run on one thread (see file comment).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the counter registered under `name`, creating it on first use.
  /// Handles are stable for the registry's lifetime.
  Counter* counter(const std::string& name);

  /// Returns the histogram registered under `name`, creating it with
  /// `bounds` on first use. Re-registering with different bounds is a
  /// CheckError — bucket layouts are part of a metric's contract.
  Histogram* histogram(const std::string& name, std::vector<double> bounds);

  std::size_t size() const { return counters_.size() + histograms_.size(); }

  /// Freezes the current values (sorted by name).
  Snapshot snapshot() const;

 private:
  // Stable handle addresses: the unique_ptr boxes never move even as the
  // name vectors grow.
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
};

}  // namespace manet::obs
