#include "scenario/worker.h"

#include <errno.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "scenario/cache.h"
#include "scenario/scenario.h"
#include "util/assert.h"
#include "util/hash.h"
#include "util/rng.h"

namespace manet::scenario {

namespace {

constexpr std::size_t kMaxFrame = 256u << 20;  // sanity bound, not a limit

void ignore_sigpipe_once() {
  // A worker dying between our write() calls must surface as EPIPE, not
  // kill the whole sweep.
  static std::once_flag flag;
  std::call_once(flag, [] { std::signal(SIGPIPE, SIG_IGN); });
}

/// "ok\n<cell>" / "error\n<what>" -> outcome; nullopt on a malformed
/// response (treated as a transport failure by the farm).
std::optional<WorkerOutcome> parse_response(const std::string& payload) {
  WorkerOutcome out;
  if (payload.rfind("ok\n", 0) == 0) {
    out.cell = payload.substr(3);
    return out;
  }
  if (payload.rfind("error\n", 0) == 0) {
    out.error = payload.substr(6);
    return out;
  }
  return std::nullopt;
}

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  return (end != v && std::isfinite(parsed)) ? parsed : fallback;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  return end != v ? static_cast<std::uint64_t>(parsed) : fallback;
}

std::size_t env_size(const char* name, std::size_t fallback) {
  return static_cast<std::size_t>(
      env_u64(name, static_cast<std::uint64_t>(fallback)));
}

/// $MANET_FARM_CHAOS — the farm-level analogue of fault::Schedule. A
/// comma-separated "key=value" list: seed=N plus per-fault probabilities
/// hang=P (sleep hang_s before answering), exit=P (write a partial frame
/// header and _exit mid-frame), garbage=P (well-formed frame, non-protocol
/// payload), slow=P (sleep slow_ms before the response). Each request's
/// fate is drawn from Rng(seed ^ fnv(request)), so it depends only on the
/// cell and the chaos seed — never on which worker got it or when.
struct ChaosSpec {
  bool enabled = false;
  std::uint64_t seed = 1;
  double hang = 0.0;
  double exit_p = 0.0;
  double garbage = 0.0;
  double slow = 0.0;
  double hang_s = 3600.0;
  double slow_ms = 50.0;
};

ChaosSpec chaos_from_env() {
  ChaosSpec spec;
  const char* env = std::getenv("MANET_FARM_CHAOS");
  if (env == nullptr || *env == '\0') {
    return spec;
  }
  spec.enabled = true;
  std::string_view rest(env);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      continue;
    }
    const std::string_view key = item.substr(0, eq);
    const std::string value(item.substr(eq + 1));
    char* end = nullptr;
    if (key == "seed") {
      spec.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "hang") {
      spec.hang = std::strtod(value.c_str(), &end);
    } else if (key == "exit") {
      spec.exit_p = std::strtod(value.c_str(), &end);
    } else if (key == "garbage") {
      spec.garbage = std::strtod(value.c_str(), &end);
    } else if (key == "slow") {
      spec.slow = std::strtod(value.c_str(), &end);
    } else if (key == "hang_s") {
      spec.hang_s = std::strtod(value.c_str(), &end);
    } else if (key == "slow_ms") {
      spec.slow_ms = std::strtod(value.c_str(), &end);
    }
  }
  return spec;
}

/// The four chaos draws for one request, in a fixed order so enabling one
/// fault never shifts another's draw.
struct ChaosFate {
  bool hang = false;
  bool exit_midframe = false;
  bool garbage = false;
  bool slow = false;
};

ChaosFate chaos_fate(const ChaosSpec& spec, const std::string& request) {
  ChaosFate fate;
  util::Rng rng(util::mix64(spec.seed) ^ util::Fnv64::hash(request));
  fate.hang = rng.uniform() < spec.hang;
  fate.exit_midframe = rng.uniform() < spec.exit_p;
  fate.garbage = rng.uniform() < spec.garbage;
  fate.slow = rng.uniform() < spec.slow;
  return fate;
}

}  // namespace

bool read_frame(int fd, std::string* payload) {
  switch (read_frame_deadline(fd, payload, nullptr)) {
    case FrameStatus::kOk:
      return true;
    case FrameStatus::kEof:
      return false;
    case FrameStatus::kTorn:
    case FrameStatus::kTimeout:  // unreachable without a deadline
      break;
  }
  MANET_CHECK(false, "torn frame (peer died mid-frame)");
  return false;  // unreachable
}

FrameStatus read_frame_deadline(int fd, std::string* payload,
                                const util::IoDeadline* deadline) {
  unsigned char header[4];
  switch (util::read_exact(fd, reinterpret_cast<char*>(header), 4,
                           deadline)) {
    case util::IoStatus::kOk:
      break;
    case util::IoStatus::kEof:
      return FrameStatus::kEof;
    case util::IoStatus::kTimeout:
      return FrameStatus::kTimeout;
    case util::IoStatus::kTorn:
    case util::IoStatus::kError:
      return FrameStatus::kTorn;
  }
  const std::uint32_t len = static_cast<std::uint32_t>(header[0]) |
                            (static_cast<std::uint32_t>(header[1]) << 8) |
                            (static_cast<std::uint32_t>(header[2]) << 16) |
                            (static_cast<std::uint32_t>(header[3]) << 24);
  if (len > kMaxFrame) {
    return FrameStatus::kTorn;  // absurd length: garbage on the wire
  }
  payload->resize(len);
  if (len == 0) {
    return FrameStatus::kOk;
  }
  switch (util::read_exact(fd, payload->data(), len, deadline)) {
    case util::IoStatus::kOk:
      return FrameStatus::kOk;
    case util::IoStatus::kTimeout:
      return FrameStatus::kTimeout;
    default:
      return FrameStatus::kTorn;
  }
}

bool write_frame(int fd, std::string_view payload) {
  MANET_CHECK(payload.size() <= kMaxFrame,
              "absurd frame length " << payload.size());
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const unsigned char header[4] = {
      static_cast<unsigned char>(len & 0xff),
      static_cast<unsigned char>((len >> 8) & 0xff),
      static_cast<unsigned char>((len >> 16) & 0xff),
      static_cast<unsigned char>((len >> 24) & 0xff),
  };
  if (!util::write_all(fd, reinterpret_cast<const char*>(header), 4)) {
    return false;
  }
  return payload.empty() ||
         util::write_all(fd, payload.data(), payload.size());
}

int serve_worker(int in_fd, int out_fd) {
  ignore_sigpipe_once();
  const ChaosSpec chaos = chaos_from_env();
  std::string request;
  for (;;) {
    try {
      if (!read_frame(in_fd, &request)) {
        return 0;  // clean EOF: parent closed our stdin
      }
    } catch (const util::CheckError&) {
      return 1;
    }
    ChaosFate fate;
    if (chaos.enabled) {
      fate = chaos_fate(chaos, request);
      if (fate.hang) {
        // A wedged worker: the parent's per-cell deadline must reap us.
        std::this_thread::sleep_for(
            std::chrono::duration<double>(chaos.hang_s));
      }
      if (fate.exit_midframe) {
        const char partial[2] = {0x7f, 0x00};
        (void)util::write_all(out_fd, partial, 2);
        _exit(3);
      }
    }
    std::string response;
    try {
      MANET_CHECK(request.rfind("run\n", 0) == 0,
                  "bad worker request verb");
      const std::size_t alg_end = request.find('\n', 4);
      MANET_CHECK(alg_end != std::string::npos,
                  "bad worker request framing");
      const std::string algorithm = request.substr(4, alg_end - 4);
      const Scenario scenario =
          decode_canonical_scenario(request.substr(alg_end + 1));
      const RunResult result =
          run_scenario(scenario, factory_by_name(algorithm));
      response = "ok\n" + encode_cell(result);
    } catch (const std::exception& e) {
      response = std::string("error\n") + e.what();
    }
    if (chaos.enabled) {
      if (fate.garbage) {
        response = "chaos\ninjected garbage frame";
      }
      if (fate.slow) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(chaos.slow_ms / 1000.0));
      }
    }
    if (!write_frame(out_fd, response)) {
      return 1;  // parent is gone
    }
  }
}

FarmOptions& FarmOptions::apply_env() {
  max_attempts = env_size("MANET_FARM_MAX_ATTEMPTS", max_attempts);
  max_respawns = env_size("MANET_FARM_MAX_RESPAWNS", max_respawns);
  initial_deadline_s = env_double("MANET_FARM_DEADLINE_S",
                                  initial_deadline_s);
  deadline_factor = env_double("MANET_FARM_DEADLINE_FACTOR",
                               deadline_factor);
  min_deadline_s = env_double("MANET_FARM_MIN_DEADLINE_S", min_deadline_s);
  term_grace_s = env_double("MANET_FARM_GRACE_S", term_grace_s);
  backoff_base_ms = env_double("MANET_FARM_BACKOFF_MS", backoff_base_ms);
  backoff_max_ms = env_double("MANET_FARM_BACKOFF_MAX_MS", backoff_max_ms);
  seed = env_u64("MANET_FARM_SEED", seed);
  if (max_attempts == 0) {
    max_attempts = 1;
  }
  return *this;
}

obs::Snapshot FarmStats::to_snapshot() const {
  obs::Snapshot snap;
  // Alphabetical by name — the sorted-by-name invariant of obs::Snapshot.
  snap.counters.push_back({"farm.backoff_waits", backoff_waits});
  snap.counters.push_back({"farm.deadline_kills", deadline_kills});
  snap.counters.push_back({"farm.degraded", degraded_cells});
  snap.counters.push_back({"farm.pool_collapsed", pool_collapsed ? 1u : 0u});
  snap.counters.push_back({"farm.quarantined_cells", quarantined_cells});
  snap.counters.push_back({"farm.respawns", respawns});
  snap.counters.push_back({"farm.transport_failures", transport_failures});
  return snap;
}

void FarmStats::merge(const FarmStats& other) {
  respawns += other.respawns;
  deadline_kills += other.deadline_kills;
  transport_failures += other.transport_failures;
  quarantined_cells += other.quarantined_cells;
  backoff_waits += other.backoff_waits;
  degraded_cells += other.degraded_cells;
  pool_collapsed = pool_collapsed || other.pool_collapsed;
}

std::vector<WorkerOutcome> run_jobs_on_workers(
    const std::string& worker_bin, std::size_t workers,
    const std::vector<WorkerRequest>& requests,
    const WorkerCallbacks& callbacks, const FarmOptions& farm,
    FarmStats* stats) {
  MANET_CHECK(workers > 0, "need at least one worker");
  MANET_CHECK(farm.max_attempts > 0, "farm.max_attempts must be positive");
  ignore_sigpipe_once();

  std::vector<WorkerOutcome> outcomes(requests.size());
  FarmStats local_stats;
  if (requests.empty()) {
    if (stats != nullptr) {
      stats->merge(local_stats);
    }
    return outcomes;
  }
  workers = std::min(workers, requests.size());

  // Spawned on the calling thread so pipe/fork failures throw before any
  // client thread starts. An exec failure (bad binary path) is only
  // visible later, as the child exiting 127 — the retry budget turns that
  // into a per-cell quarantine rather than a hang.
  std::vector<util::Subprocess> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.push_back(util::Subprocess::spawn({worker_bin, "--worker"}));
  }

  std::atomic<std::size_t> next{0};
  std::mutex mu;  // guards retry_queue, attempts, the cost estimate, stats
  std::vector<std::size_t> retry_queue;
  std::vector<std::size_t> attempts(requests.size(), 0);
  std::size_t completed = 0;   // cells with a measured wall time
  double total_wall_s = 0.0;

  auto fetch = [&]() -> std::optional<std::size_t> {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!retry_queue.empty()) {
        const std::size_t i = retry_queue.back();
        retry_queue.pop_back();
        return i;
      }
    }
    const std::size_t i = next.fetch_add(1);
    if (i < requests.size()) {
      return i;
    }
    return std::nullopt;
  };

  // Per-cell deadline: a generous multiple of the mean completed cell wall
  // time, so one estimate adapts to grids of any size — and a floor, so a
  // farm of sub-millisecond cells never reaps a worker over scheduler
  // noise. Before any completion only the configured initial bound exists.
  auto cell_deadline_s = [&]() {
    std::lock_guard<std::mutex> lock(mu);
    if (completed == 0) {
      return farm.initial_deadline_s;
    }
    return std::max(farm.min_deadline_s,
                    farm.deadline_factor * (total_wall_s /
                                            static_cast<double>(completed)));
  };

  const util::Rng jitter_root = util::Rng(farm.seed).substream("farm-backoff");

  auto client = [&](std::size_t slot) {
    util::Subprocess& proc = pool[slot];
    std::size_t slot_respawns = 0;
    std::size_t consecutive_failures = 0;
    for (;;) {
      if (callbacks.should_abort && callbacks.should_abort()) {
        break;
      }
      const auto job = fetch();
      if (!job.has_value()) {
        break;
      }
      const std::size_t i = *job;
      std::size_t my_attempt = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        my_attempt = ++attempts[i];
      }
      if (callbacks.on_dispatch) {
        callbacks.on_dispatch(i);
      }
      const std::string request = "run\n" + requests[i].algorithm + "\n" +
                                  requests[i].scenario_text;
      const auto t0 = std::chrono::steady_clock::now();
      std::string payload;
      FrameStatus status = FrameStatus::kTorn;
      if (write_frame(proc.stdin_fd(), request)) {
        const util::IoDeadline deadline =
            util::deadline_after(cell_deadline_s());
        status = read_frame_deadline(proc.stdout_fd(), &payload, &deadline);
      }
      std::optional<WorkerOutcome> parsed;
      if (status == FrameStatus::kOk) {
        parsed = parse_response(payload);
      }
      if (parsed.has_value()) {
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        {
          std::lock_guard<std::mutex> lock(mu);
          ++completed;
          total_wall_s += wall;
        }
        consecutive_failures = 0;
        outcomes[i] = std::move(*parsed);
        if (callbacks.on_response) {
          callbacks.on_response(i, outcomes[i]);
        }
        continue;
      }

      // Attempt failed: wedged (deadline), dead mid-cell (crash, kill,
      // exec failure), or speaking garbage. Reap the worker — gracefully
      // on a deadline overrun, hard otherwise — then retry or quarantine.
      const bool timed_out = status == FrameStatus::kTimeout;
      int code;
      if (timed_out) {
        code = proc.terminate_then_kill(farm.term_grace_s);
      } else {
        proc.kill_hard();
        code = proc.wait();
      }
      const char* kind = timed_out ? "deadline overrun" : "transport failure";
      bool give_up = false;
      {
        std::lock_guard<std::mutex> lock(mu);
        local_stats.transport_failures += 1;
        if (timed_out) {
          local_stats.deadline_kills += 1;
        }
        if (my_attempt >= farm.max_attempts) {
          give_up = true;
          local_stats.quarantined_cells += 1;
        } else {
          retry_queue.push_back(i);
        }
      }
      ++consecutive_failures;
      if (give_up) {
        outcomes[i].error = std::string(kind) +
                            " (worker exit status " + std::to_string(code) +
                            ") after " + std::to_string(my_attempt) +
                            " attempts on this cell";
        outcomes[i].quarantined = true;
        if (callbacks.on_response) {
          callbacks.on_response(i, outcomes[i]);
        }
      }

      // Respawn within the slot budget, backing off exponentially in the
      // run of consecutive failures with deterministic seed-derived jitter
      // (substream keyed by slot and respawn count — reproducible, and
      // never synchronized across slots).
      if (slot_respawns >= farm.max_respawns) {
        break;  // slot retires; surviving slots drain the queue
      }
      const double exponent =
          static_cast<double>(std::min<std::size_t>(consecutive_failures, 20));
      const double base_ms = std::min(
          farm.backoff_max_ms,
          farm.backoff_base_ms * std::exp2(exponent - 1.0));
      const double jitter =
          jitter_root
              .substream("slot", (static_cast<std::uint64_t>(slot) << 32) ^
                                     slot_respawns)
              .uniform(0.5, 1.5);
      const double delay_ms = base_ms * jitter;
      if (delay_ms >= 1.0) {
        {
          std::lock_guard<std::mutex> lock(mu);
          local_stats.backoff_waits += 1;
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delay_ms));
      }
      try {
        proc = util::Subprocess::spawn({worker_bin, "--worker"});
      } catch (const util::CheckError&) {
        // This client is done; a requeued cell stays in retry_queue for
        // the surviving workers (the caller degrades if none survive).
        break;
      }
      ++slot_respawns;
      {
        std::lock_guard<std::mutex> lock(mu);
        local_stats.respawns += 1;
      }
    }
    proc.close_stdin();
    proc.wait();
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back(client, w);
  }
  for (std::thread& t : threads) {
    t.join();
  }

  // Never-executed cells after every thread exited mean the pool collapsed
  // (unless the caller aborted) — the caller drains them in-process.
  const bool aborted = callbacks.should_abort && callbacks.should_abort();
  if (!aborted) {
    for (const WorkerOutcome& out : outcomes) {
      if (!out.cell.has_value() && !out.error.has_value()) {
        local_stats.pool_collapsed = true;
        break;
      }
    }
  }
  if (stats != nullptr) {
    stats->merge(local_stats);
  }
  return outcomes;
}

std::string resolve_worker_bin(const std::string& requested) {
  std::vector<std::string> candidates;
  if (!requested.empty()) {
    candidates.push_back(requested);
  } else {
    if (const char* env = std::getenv("MANET_WORKER_BIN");
        env != nullptr && *env != '\0') {
      candidates.push_back(env);
    } else {
      char buf[4096];
      const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
      if (n > 0) {
        std::string self(buf, static_cast<std::size_t>(n));
        const std::size_t slash = self.rfind('/');
        const std::string dir =
            slash == std::string::npos ? "." : self.substr(0, slash);
        candidates.push_back(dir + "/manetsim");
        candidates.push_back(dir + "/../examples/manetsim");
      }
    }
  }
  std::string tried;
  for (const std::string& c : candidates) {
    if (::access(c.c_str(), X_OK) == 0) {
      return c;
    }
    tried += (tried.empty() ? "" : ", ") + c;
  }
  MANET_CHECK(false,
              "no executable worker binary found (tried: "
                  << (tried.empty() ? "nothing" : tried)
                  << "); pass --worker-bin or set $MANET_WORKER_BIN");
  return {};  // unreachable
}

}  // namespace manet::scenario
