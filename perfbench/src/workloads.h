// The benchmark's workloads. Each drives the library only through its
// public API (scenario::Runner, scenario::run_scenario,
// scenario::ResultCache) and exposes one timed phase per rep plus the
// set-up a user pays before it on every run.
//
//   fig3_grid     the paper's Figure-3 grid: 11 Tx values x {lowest_id,
//                 mobic} x 5 seeds x 900 s, N = 50, Runner jobs = 2
//   churn_resume  the resilience_churn crash x loss-burst grid with the
//                 battery model, shadowing and a collision window, resumed
//                 through Runner (jobs = 1) from a prefilled result cache
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "scenario/cache.h"
#include "scenario/scenario.h"
#include "spans.h"

namespace perfbench {

struct Config {
  std::uint64_t seed = 1;
  /// Self-test sizes: every workload shrinks to a seconds-scale grid.
  bool tiny = false;
  /// Pool threads of the grid workloads; 0 = the workload's own (fig3_grid
  /// 2, churn_resume 1). The self-test compares 1 and 2.
  int jobs = 0;
  /// Directory for result caches and trace files, inside the checkout.
  std::string work_dir;
  /// Self-test: damage one prefilled cache cell before every timed phase.
  bool corrupt_prefill = false;
};

/// One cell of a rep, in canonical (point, algorithm, seed) order.
struct Cell {
  std::string label;  // "<point>/<algorithm>/k<replicate>"
  std::string algorithm;
  manet::scenario::Scenario scenario;  // as the library ran it
  double node_sim_s = 0.0;             // N x sim_time
  bool done = false;
  bool cached = false;   // served from the result cache
  double wall_s = 0.0;   // host time simulating it (0 when cached)
  double end_s = 0.0;    // now_s() when the library reported it
  int lane = 0;          // reporting thread, numbered by first appearance
  manet::scenario::RunResult result;
};

struct Rep {
  double t0 = 0.0;  // timed phase, now_s() seconds
  double t1 = 0.0;
  std::vector<Cell> cells;
  manet::scenario::CacheStats cache;  // zero without a cache
  std::size_t verify_expected = 0;    // resume verifications due
  std::string error;                  // what() when the library threw
  double wall() const { return t1 - t0; }
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Pool threads of the timed phase (1 = serial).
  virtual int jobs() const = 0;
  /// Once per process, before any rep; untimed.
  virtual void prepare() {}
  /// The set-up a user pays before the timed phase on every run; returns
  /// its host seconds.
  virtual double setup(Tracer* tracer) = 0;
  /// The timed phase.
  virtual Rep run(Tracer* tracer) = 0;
  /// Workload-specific output checks; prints and returns the failures.
  /// `verbose` also prints what was checked.
  virtual std::size_t check(const Rep& rep, std::ostream& log,
                            bool verbose) const = 0;
  /// The cell the traced run replays layer by layer.
  virtual const Cell& representative(const Rep& rep) const = 0;
};

/// The named workload, or null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& config);

/// FNV-1a of the cell's encode_cell() text.
std::uint64_t cell_digest(const Cell& cell);

}  // namespace perfbench
