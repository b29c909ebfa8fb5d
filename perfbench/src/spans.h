// In-memory span recorder for the traced benchmark run.
//
// A span is a host-time interval with a name, the src/ module ("layer") it
// measures, the span that caused it and the grid cell it belongs to. Spans
// are recorded only around calls the benchmark makes into the library —
// nothing inside src/ is instrumented — kept in memory, and written out as
// Chrome-trace JSON (the format obs::TraceSink emits; Perfetto loads it)
// when the run ends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr int kNone = -1;

  /// Spans added beyond `capacity` are still counted in the layer table
  /// (as leaves) but not stored for export; open() always stores.
  explicit Tracer(std::size_t capacity = 250'000);

  /// Starts a span now and returns its id; children may name it as their
  /// parent before close(id) ends it. Thread-safe.
  int open(const char* name, const char* layer, int parent = kNone,
           int cell = kNone, int lane = 0);
  void close(int id);

  /// Records a completed span on [t0, t1] (now_s() seconds) and returns
  /// its id, or kNone when it was only counted. Thread-safe.
  int add(const char* name, const char* layer, double t0, double t1,
           int parent = kNone, int cell = kNone, int lane = 0);

  /// Per-layer totals: spans, summed duration and self time (duration
  /// minus the part of it covered by child spans).
  struct LayerRow {
    std::string layer;
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::vector<LayerRow> layer_table() const;

  /// {"traceEvents":[...],"displayTimeUnit":"ms"}, one "X" event per
  /// stored span, timestamps in microseconds since the tracer was made.
  void write_chrome(std::ostream& out) const;

  std::size_t stored() const;
  std::uint64_t dropped() const;

 private:
  struct Span {
    const char* name;
    const char* layer;
    double t0;
    double t1;
    int parent;
    int cell;
    int lane;
  };

  std::size_t capacity_;
  double origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  // Leaves not stored, per layer: count and summed duration.
  std::map<std::string, std::pair<std::uint64_t, double>> dropped_by_layer_;
};

/// Times one scope as a span (no-op when the tracer is null).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, const char* layer,
        int parent = Tracer::kNone, int cell = Tracer::kNone)
      : tracer_(tracer),
        id_(tracer == nullptr ? Tracer::kNone
                              : tracer->open(name, layer, parent, cell)) {}
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->close(id_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
