// Lightweight assertion / checked-failure macros used across the library.
//
// MANET_CHECK   - always evaluated, throws util::CheckError on failure. Use for
//                 preconditions on public API boundaries and config validation.
// MANET_ASSERT  - internal invariants; compiled out in NDEBUG builds.
//
// Failures raised while a simulation event is executing throw util::SimError
// (a CheckError subclass) carrying the current simulated time and, when the
// failure happened inside a node's handler, the node id — so a sweep runner
// can report *which run and when* went wrong instead of surfacing a bare
// expression string.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace manet::util {

/// Thrown when a MANET_CHECK fails: a violated precondition or invariant that
/// callers may legitimately want to catch (e.g. bad configuration values).
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

/// A CheckError raised during simulation-event execution, stamped with the
/// simulated time (and node id when known) taken from the thread-local
/// SimContext below.
class SimError : public CheckError {
 public:
  static constexpr std::uint32_t kNoNode = 0xffffffffu;

  SimError(const std::string& what, double sim_time,
           std::uint32_t node = kNoNode)
      : CheckError(what), sim_time_(sim_time), node_(node) {}

  /// Simulated seconds at the moment of failure.
  double sim_time() const { return sim_time_; }
  bool has_node() const { return node_ != kNoNode; }
  /// The node whose handler was executing, or kNoNode.
  std::uint32_t node() const { return node_; }

 private:
  double sim_time_;
  std::uint32_t node_;
};

/// Thread-local failure context. The simulator stamps the time around every
/// event; node handlers additionally stamp the node id. Each worker thread of
/// a parallel sweep runs its own single-threaded simulation, so thread-local
/// state is exactly per-run state.
struct SimContext {
  bool in_event = false;
  double sim_time = 0.0;
  bool has_node = false;
  std::uint32_t node = 0;
};

/// This thread's context. Defined inline (constant-initialised, so no
/// guard or TLS wrapper call): the scopes below touch it several times per
/// event and per received Hello.
inline SimContext& sim_context() {
  static constinit thread_local SimContext ctx;
  return ctx;
}

/// RAII: marks this thread as executing a simulation event at time `t`.
class ScopedSimTime {
 public:
  explicit ScopedSimTime(double t) : saved_(sim_context()) {
    SimContext& ctx = sim_context();
    ctx.in_event = true;
    ctx.sim_time = t;
  }
  ~ScopedSimTime() { sim_context() = saved_; }
  ScopedSimTime(const ScopedSimTime&) = delete;
  ScopedSimTime& operator=(const ScopedSimTime&) = delete;

 private:
  SimContext saved_;
};

/// RAII: attributes the current event to a node (nested inside ScopedSimTime).
class ScopedSimNode {
 public:
  explicit ScopedSimNode(std::uint32_t node) : saved_(sim_context()) {
    SimContext& ctx = sim_context();
    ctx.has_node = true;
    ctx.node = node;
  }
  ~ScopedSimNode() { sim_context() = saved_; }
  ScopedSimNode(const ScopedSimNode&) = delete;
  ScopedSimNode& operator=(const ScopedSimNode&) = delete;

 private:
  SimContext saved_;
};

namespace detail {
[[noreturn]] void fail_check(const char* expr, const char* file, int line,
                             const std::string& message);
}  // namespace detail

}  // namespace manet::util

// Always-on check. Optional trailing message: MANET_CHECK(x > 0, "x=" << x);
#define MANET_CHECK(expr, ...)                                              \
  do {                                                                      \
    if (!(expr)) {                                                          \
      std::ostringstream manet_check_oss_;                                  \
      manet_check_oss_ << "" __VA_ARGS__;                                   \
      ::manet::util::detail::fail_check(#expr, __FILE__, __LINE__,          \
                                        manet_check_oss_.str());            \
    }                                                                       \
  } while (false)

#ifdef NDEBUG
#define MANET_ASSERT(expr, ...) \
  do {                          \
  } while (false)
#else
#define MANET_ASSERT(expr, ...) MANET_CHECK(expr, __VA_ARGS__)
#endif
