// Result cache (scenario/cache.h): key stability and
// sensitivity, cell round-trips, corruption handling, and the Runner's
// cache / resume semantics.
#include <gtest/gtest.h>
#include <stdlib.h>  // setenv/unsetenv
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "scenario/cache.h"
#include "scenario/runner.h"
#include "util/assert.h"
#include "util/hash.h"

namespace manet::scenario {
namespace {

namespace fs = std::filesystem;

// Every key test pins the epoch: keys must not depend on how the test
// binary was built.
class CacheKeyTest : public ::testing::Test {
 protected:
  void SetUp() override { setenv("MANET_CACHE_EPOCH", "golden", 1); }
  void TearDown() override { unsetenv("MANET_CACHE_EPOCH"); }
};

Scenario small_scenario() {
  Scenario s;
  s.n_nodes = 16;
  s.fleet.field = geom::Rect(300.0, 300.0);
  s.fleet.max_speed = 8.0;
  s.tx_range = 120.0;
  s.sim_time = 60.0;
  s.warmup = 5.0;
  s.seed = 7;
  return s;
}

// An entry count no record can hold: 2^60 entries would ask vector::reserve
// for more than the address space.
constexpr const char* kHugeCount = "1152921504606846976";

// Replaces the value of the first `key = ...` line of a cell and re-seals the
// digest, so the edit reaches the field decoder instead of the integrity
// check.
std::string reseal_with(const std::string& cell, const std::string& key,
                        const std::string& value) {
  std::string body = cell.substr(0, cell.rfind("digest = "));
  const std::string tag = "\n" + key + " = ";
  const std::size_t at = body.find(tag);
  if (at == std::string::npos) {
    ADD_FAILURE() << "cell has no '" << key << "' line";
    return cell;
  }
  const std::size_t begin = at + tag.size();
  body.replace(begin, body.find('\n', begin) - begin, value);
  return body + "digest = " + util::hex64(util::Fnv64::hash(body)) + "\n";
}

// A unique per-test scratch directory under the system temp dir.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() /
                       ("manet_cache_test_" + name + "_" +
                        std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  return dir;
}

TEST_F(CacheKeyTest, GoldenKeyIsPinned) {
  // The content address of the default paper Scenario under the pinned
  // epoch. This value changing means every previously cached cell in every
  // cache silently stops matching — that must be a deliberate decision, not
  // a side effect. If the change is intentional (a new Scenario field, a
  // canonical-text change), update the pin and say so in the PR.
  EXPECT_EQ(cache_key(Scenario{}, "mobic"), "c28dd16a39cad454");
}

TEST_F(CacheKeyTest, KeyIsDeterministic) {
  const Scenario s = small_scenario();
  EXPECT_EQ(cache_key(s, "mobic"), cache_key(s, "mobic"));
  // A copy hashes the same — no address- or iteration-order dependence.
  const Scenario copy = s;
  EXPECT_EQ(cache_key(s, "mobic"), cache_key(copy, "mobic"));
}

TEST_F(CacheKeyTest, EverySemanticFieldChangesTheKey) {
  const Scenario base = small_scenario();
  const std::string base_key = cache_key(base, "mobic");

  std::set<std::string> keys{base_key};
  const auto mutated = [&](void (*mutate)(Scenario&)) {
    Scenario s = small_scenario();
    mutate(s);
    return cache_key(s, "mobic");
  };
  const auto expect_distinct = [&](const char* what,
                                   void (*mutate)(Scenario&)) {
    const std::string key = mutated(mutate);
    EXPECT_NE(key, base_key) << what << " did not change the cache key";
    EXPECT_TRUE(keys.insert(key).second)
        << what << " collided with another mutation's key";
  };

  expect_distinct("n_nodes", [](Scenario& s) { s.n_nodes = 17; });
  expect_distinct("tx_range", [](Scenario& s) { s.tx_range = 121.0; });
  expect_distinct("sim_time", [](Scenario& s) { s.sim_time = 61.0; });
  expect_distinct("warmup", [](Scenario& s) { s.warmup = 6.0; });
  expect_distinct("sample_period",
                  [](Scenario& s) { s.sample_period = 2.0; });
  expect_distinct("seed", [](Scenario& s) { s.seed = 8; });
  expect_distinct("propagation",
                  [](Scenario& s) { s.propagation = "two_ray"; });
  expect_distinct("pathloss_exponent",
                  [](Scenario& s) { s.pathloss_exponent = 3.0; });
  expect_distinct("shadowing_sigma_db",
                  [](Scenario& s) { s.shadowing_sigma_db = 6.0; });
  expect_distinct("fleet.kind", [](Scenario& s) {
    s.fleet.kind = mobility::ModelKind::kRandomWalk;
  });
  expect_distinct("fleet.field", [](Scenario& s) {
    s.fleet.field = geom::Rect(301.0, 300.0);
  });
  expect_distinct("fleet.max_speed",
                  [](Scenario& s) { s.fleet.max_speed = 9.0; });
  expect_distinct("fleet.min_speed",
                  [](Scenario& s) { s.fleet.min_speed = 0.2; });
  expect_distinct("fleet.pause_time",
                  [](Scenario& s) { s.fleet.pause_time = 1.0; });
  expect_distinct("net.broadcast_interval",
                  [](Scenario& s) { s.net.broadcast_interval = 2.5; });
  expect_distinct("net.neighbor_timeout",
                  [](Scenario& s) { s.net.neighbor_timeout = 3.5; });
  expect_distinct("net.packet_loss",
                  [](Scenario& s) { s.net.packet_loss = 0.1; });
  expect_distinct("net.collision_window",
                  [](Scenario& s) { s.net.collision_window = 0.001; });
  expect_distinct("net.delivery_delay",
                  [](Scenario& s) { s.net.delivery_delay = 0.001; });
  expect_distinct("faults.crash_rate",
                  [](Scenario& s) { s.faults.crash_rate = 0.05; });
  expect_distinct("faults.partitions",
                  [](Scenario& s) { s.faults.partitions = 1; });
  expect_distinct("faults.extra", [](Scenario& s) {
    fault::FaultEvent e;
    e.kind = fault::FaultKind::kCrash;
    e.at = 10.0;
    e.until = 20.0;
    e.node = 3;
    s.faults.extra.push_back(e);
  });
  expect_distinct("obs.metrics", [](Scenario& s) { s.obs.metrics = false; });
  expect_distinct("obs.trace", [](Scenario& s) {
    s.obs.trace = obs::TraceLevel::kFull;
  });

  // The tiniest representable change to a double is a different cell.
  expect_distinct("tx_range ulp", [](Scenario& s) {
    s.tx_range = std::nextafter(s.tx_range, 1000.0);
  });
}

TEST_F(CacheKeyTest, AlgorithmAndEpochSaltTheKey) {
  const Scenario s = small_scenario();
  const std::string mobic = cache_key(s, "mobic");
  EXPECT_NE(mobic, cache_key(s, "lowest_id"));

  setenv("MANET_CACHE_EPOCH", "golden-2", 1);
  EXPECT_NE(mobic, cache_key(s, "mobic"));
  setenv("MANET_CACHE_EPOCH", "golden", 1);
  EXPECT_EQ(mobic, cache_key(s, "mobic"));
}

TEST(CacheEpochTest, CompiledEpochAppliesWithoutTheOverride) {
  // The epoch is a source constant, so a bump reaches every build tree;
  // the environment only overrides it.
  unsetenv("MANET_CACHE_EPOCH");
  EXPECT_EQ(cache_epoch(), "3");
  setenv("MANET_CACHE_EPOCH", "", 1);
  EXPECT_EQ(cache_epoch(), "3");
  setenv("MANET_CACHE_EPOCH", "override", 1);
  EXPECT_EQ(cache_epoch(), "override");
  unsetenv("MANET_CACHE_EPOCH");
}

TEST_F(CacheKeyTest, PresentationFieldsDoNotChangeTheKey) {
  Scenario s = small_scenario();
  s.obs.trace = obs::TraceLevel::kSpans;  // fix the level explicitly
  const std::string base_key = cache_key(s, "mobic");

  Scenario traced = s;
  traced.obs.trace_path = "trace_{seed}.json";
  traced.obs.tag = "p0_mobic_s7";
  EXPECT_EQ(cache_key(traced, "mobic"), base_key);

  // fleet.duration is synced to sim_time by run_scenario, so it is not
  // part of the cell's identity either.
  Scenario stretched = s;
  stretched.fleet.duration = 1234.5;
  EXPECT_EQ(cache_key(stretched, "mobic"), base_key);

  // But a trace_path on a level-kOff scenario promotes the effective level
  // to kSpans (obs::ObsConfig contract), which *is* semantic: the sampler
  // stays off, yet the promoted level must hash like an explicit kSpans.
  Scenario promoted = small_scenario();
  promoted.obs.trace_path = "t.json";
  EXPECT_EQ(cache_key(promoted, "mobic"), base_key);
}

TEST_F(CacheKeyTest, CanonicalTextRoundTripsBitExactly) {
  Scenario s = small_scenario();
  s.propagation = "shadowing";
  s.fleet.kind = mobility::ModelKind::kGaussMarkov;
  s.faults.crash_rate = 0.03;
  s.faults.partitions = 2;
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kCrash;
  e.at = 12.5;
  e.until = 30.0;
  e.node = 5;
  s.faults.extra.push_back(e);
  s.obs.trace_path = "out_{tag}.json";
  s.obs.tag = "cell-tag";

  const std::string text = canonical_scenario_text(s);
  const Scenario back = decode_canonical_scenario(text);
  EXPECT_EQ(canonical_scenario_text(back), text);
  EXPECT_EQ(back.obs.trace_path, s.obs.trace_path);
  EXPECT_EQ(back.obs.tag, s.obs.tag);
  EXPECT_EQ(cache_key(back, "mobic"), cache_key(s, "mobic"));

  EXPECT_THROW(decode_canonical_scenario("not a scenario"),
               util::CheckError);
  std::string huge = text;
  const std::string extras = "fault_extra_count = 1\n";
  huge.replace(huge.find(extras), extras.size(),
               std::string("fault_extra_count = ") + kHugeCount + "\n");
  EXPECT_THROW(decode_canonical_scenario(huge), util::CheckError);
}

TEST(CellCodecTest, RoundTripsBitExactly) {
  Scenario s = small_scenario();
  s.faults.begin = 10.0;
  s.faults.end = 50.0;
  s.faults.crash_rate = 0.05;  // populate the fault/recovery fields
  const RunResult r = run_scenario(s, factory_by_name("mobic"));
  ASSERT_FALSE(r.metrics.empty());  // counters + histograms in the cell

  const std::string cell = encode_cell(r);
  const RunResult back = decode_cell(cell);
  EXPECT_TRUE(back == r);
  EXPECT_EQ(encode_cell(back), cell);
}

// Pins the exact bytes of both record formats, which the round-trip tests
// cannot see: any self-consistent format change passes them. A changed
// digest here means every cell in every cache stops decoding (or every key
// moves) — a deliberate, epoch-bumping decision, never a side effect.
TEST(CellCodecTest, GoldenCellBytesArePinned) {
  RunResult r;
  r.ch_changes = 101;
  r.head_gains = 57;
  r.head_losses = 44;
  r.reaffiliations = 230;
  r.mean_head_lifetime = 87.25;
  r.avg_clusters = 12.375;
  r.avg_gateways = 9.0625;
  r.avg_undecided = 0.1;
  r.avg_cluster_size = 4.04;
  r.mean_degree = 7.3;
  r.beacons_sent = 22500;
  r.hellos_delivered = 164253;
  r.bytes_sent = 1234567;
  r.events_executed = 200001;
  r.final_validation.undecided = 1;
  r.final_validation.head_pairs_in_range = 2;
  r.final_validation.members_beyond_head_range = 3;
  r.final_validation.members_of_non_head = 4;
  r.final_validation.connected_nodes = 45;
  r.final_validation.dead_nodes = 5;
  r.faults_injected = 31;
  r.recoveries = 17;
  r.mean_recovery_s = 3.5;
  r.max_recovery_s = 12.0625;
  r.unrecovered_disruptions = 2;
  r.orphaned_member_seconds = 41.7;
  r.convergence_samples = 890;
  r.violation_samples = 13;
  r.final_heads = 11;
  r.energy_initial_j = 500.0;
  r.energy_residual_j = 123.456;
  r.energy_drained_j = 376.544;
  r.battery_deaths = 6;
  r.head_tenure_fairness = 0.4321;
  fault::FaultEvent crash;
  crash.kind = fault::FaultKind::kCrash;
  crash.at = 15.5;
  crash.until = 40.25;
  crash.node = 7;
  r.fault_timeline.push_back(crash);
  fault::FaultEvent jam;
  jam.kind = fault::FaultKind::kJam;
  jam.at = 60.0;
  jam.until = 75.5;
  jam.node = 3;
  jam.peer = 9;
  jam.probability = 0.8;
  jam.center = {120.5, -4.25};
  jam.radius = 80.0;
  jam.vertical = false;
  jam.boundary = 335.0;
  r.fault_timeline.push_back(jam);
  r.metrics.counters.push_back({"hello.delivered", 164253});
  r.metrics.counters.push_back({"hello.sent", 170001});
  obs::Snapshot::HistogramCell h;
  h.name = "sim.queue_depth";
  h.bounds = {1.0, 8.0, 64.0};
  h.counts = {5, 300, 42, 0};
  h.sum = 9876.5;
  r.metrics.histograms.push_back(h);
  const std::string cell = encode_cell(r);
  EXPECT_EQ(util::hex64(util::Fnv64::hash(cell)), "67e8ce3697539c1b");
  EXPECT_TRUE(decode_cell(cell) == r);

  Scenario s = small_scenario();
  s.energy.enabled = true;
  s.energy.capacity_j = 40.0;
  s.faults.crash_rate = 0.02;
  s.faults.partitions = 1;
  s.faults.extra.push_back(crash);
  s.faults.extra.push_back(jam);
  s.obs.trace_path = "trace_{tag}.json";
  s.obs.tag = "golden-cell";
  const std::string text = canonical_scenario_text(s);
  EXPECT_EQ(util::hex64(util::Fnv64::hash(text)), "7ab9a60157c0caa5");
  EXPECT_EQ(canonical_scenario_text(decode_canonical_scenario(text)), text);
}

TEST(CellCodecTest, RejectsTamperedOrTruncatedCells) {
  const RunResult r =
      run_scenario(small_scenario(), factory_by_name("mobic"));
  const std::string cell = encode_cell(r);

  EXPECT_THROW(decode_cell(""), util::CheckError);
  EXPECT_THROW(decode_cell("manet-cell/1\n"), util::CheckError);
  EXPECT_THROW(decode_cell(cell.substr(0, cell.size() / 2)),
               util::CheckError);
  std::string flipped = cell;
  flipped[cell.size() / 3] ^= 1;
  EXPECT_THROW(decode_cell(flipped), util::CheckError);
  // A valid digest over an impossible entry count is still corrupt.
  for (const char* key : {"fault_count", "counter_count", "histogram_count"}) {
    EXPECT_THROW(decode_cell(reseal_with(cell, key, kHugeCount)),
                 util::CheckError)
        << key;
  }
  // A histogram bucket count whose size arithmetic wraps to the field count.
  EXPECT_THROW(decode_cell(reseal_with(cell, "histogram",
                                       "h 9223372036854775808 0 0")),
               util::CheckError);
}

TEST(ResultCacheTest, CorruptCellReadsAsMissNeverAsResult) {
  const fs::path dir = scratch_dir("corrupt");
  const Scenario s = small_scenario();
  const std::string filename = cache_cell_filename(s, "mobic");
  const RunResult r = run_scenario(s, factory_by_name("mobic"));
  {
    ResultCache cache(dir.string());
    EXPECT_FALSE(cache.load(filename).has_value());
    cache.store(filename, r);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);
    ASSERT_TRUE(cache.load(filename).has_value());
    EXPECT_TRUE(*cache.load(filename) == r);
  }
  std::string stored;
  {
    std::ifstream in(dir / filename, std::ios::binary);
    stored.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }
  // A flipped byte on disk, and an impossible entry count under a valid
  // digest: the next load must detect either and recompute.
  std::string flipped = stored;
  flipped[flipped.size() / 2] ^= 1;
  for (const std::string& bytes :
       {flipped, reseal_with(stored, "fault_count", kHugeCount)}) {
    {
      std::ofstream out(dir / filename, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    ResultCache cache(dir.string());
    EXPECT_FALSE(cache.load(filename).has_value());
    EXPECT_EQ(cache.stats().corrupt, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);
  }
  fs::remove_all(dir);
}

TEST(RunnerCacheTest, SecondRunIsServedFromCacheByteIdentically) {
  const fs::path dir = scratch_dir("runner");
  const Scenario s = small_scenario();
  const OptionsFactory factory = factory_by_name("mobic");

  RunnerOptions options;
  options.jobs = 1;
  options.cache_dir = dir.string();

  const Runner cold(options);
  const auto first = cold.replications(s, factory, 3, "mobic");
  EXPECT_EQ(cold.cache_stats().misses, 3u);
  EXPECT_EQ(cold.cache_stats().stores, 3u);
  EXPECT_EQ(cold.cache_stats().hits, 0u);

  // A fresh Runner (fresh process stand-in) must hit every cell and
  // reproduce the results bit-exactly.
  const Runner warm(options);
  const auto second = warm.replications(s, factory, 3, "mobic");
  EXPECT_EQ(warm.cache_stats().hits, 3u);
  EXPECT_EQ(warm.cache_stats().misses, 0u);
  EXPECT_TRUE(first == second);

  // Unlabeled runs are not cacheable and bypass the cache entirely.
  const Runner unlabeled(options);
  const auto bare = unlabeled.replications(s, factory, 1);
  EXPECT_EQ(unlabeled.cache_stats().hits, 0u);
  EXPECT_EQ(unlabeled.cache_stats().misses, 0u);
  EXPECT_TRUE(bare[0] == first[0]);
  fs::remove_all(dir);
}

TEST(RunnerCacheTest, CacheContentsIndependentOfJobs) {
  const fs::path dir1 = scratch_dir("jobs1");
  const fs::path dir4 = scratch_dir("jobs4");
  const Scenario s = small_scenario();
  const OptionsFactory factory = factory_by_name("mobic");

  RunnerOptions o1;
  o1.jobs = 1;
  o1.cache_dir = dir1.string();
  RunnerOptions o4 = o1;
  o4.jobs = 4;
  o4.cache_dir = dir4.string();
  const auto r1 = Runner(o1).replications(s, factory, 4, "mobic");
  const auto r4 = Runner(o4).replications(s, factory, 4, "mobic");
  EXPECT_TRUE(r1 == r4);

  // Same cells, same names, same bytes — and every cell carries its .meta
  // provenance sidecar (what --scrub-cache repair recomputes from).
  std::set<std::string> names1, names4;
  for (const auto& entry : fs::directory_iterator(dir1)) {
    names1.insert(entry.path().filename().string());
  }
  for (const auto& entry : fs::directory_iterator(dir4)) {
    names4.insert(entry.path().filename().string());
  }
  ASSERT_EQ(names1, names4);
  ASSERT_EQ(names1.size(), 8u);  // 4 cells + 4 .meta sidecars
  std::size_t metas = 0;
  for (const std::string& name : names1) {
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".meta") == 0) {
      ++metas;
      EXPECT_TRUE(names1.count(name.substr(0, name.size() - 5)))
          << "orphan sidecar " << name;
    }
  }
  EXPECT_EQ(metas, 4u);
  for (const std::string& name : names1) {
    std::ifstream a(dir1 / name, std::ios::binary);
    std::ifstream b(dir4 / name, std::ios::binary);
    const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                              std::istreambuf_iterator<char>());
    const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                              std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes_a, bytes_b) << name;
  }
  fs::remove_all(dir1);
  fs::remove_all(dir4);
}

TEST(RunnerCacheTest, ResumeVerifiesHitsAndCatchesForgedCells) {
  const fs::path dir = scratch_dir("resume");
  const Scenario s = small_scenario();
  const OptionsFactory factory = factory_by_name("mobic");

  RunnerOptions options;
  options.jobs = 1;
  options.cache_dir = dir.string();
  Runner(options).replications(s, factory, 2, "mobic");

  // Honest resume: hits verified, results identical.
  options.resume = true;
  options.resume_verify = 2;
  const Runner resumed(options);
  const auto again = resumed.replications(s, factory, 2, "mobic");
  EXPECT_EQ(resumed.cache_stats().hits, 2u);
  EXPECT_EQ(resumed.cache_stats().verified, 2u);

  // Forge a cell that *decodes cleanly* (digest recomputed over altered
  // values). A plain load cannot tell — only --resume's byte-comparison
  // against recomputation can, and must.
  const std::string filename = cache_cell_filename(s, "mobic");
  RunResult forged = decode_cell([&] {
    std::ifstream in(dir / filename, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }());
  forged.ch_changes += 1;
  {
    std::ofstream out(dir / filename, std::ios::binary | std::ios::trunc);
    out << encode_cell(forged);
  }
  // The mismatch diagnostic must name the cell and the first differing
  // field — that is what makes a failed resume debuggable.
  try {
    Runner(options).replications(s, factory, 2, "mobic");
    FAIL() << "forged cell passed resume verification";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(filename), std::string::npos) << what;
    EXPECT_NE(what.find("ch_changes"), std::string::npos) << what;
  }
  fs::remove_all(dir);
}

// Resume over a partly filled cache on the pool: cache hits and freshly
// simulated misses interleave, and the grid must still equal a cold serial
// run, results and metrics log alike.
TEST(RunnerCacheTest, PartialCacheResumesOnThePoolLikeAColdSerialRun) {
  const fs::path dir = scratch_dir("partial");
  const fs::path logs = scratch_dir("partial_logs");
  fs::create_directories(logs);
  const Scenario s = small_scenario();
  const OptionsFactory factory = factory_by_name("mobic");

  RunnerOptions cold_options;
  cold_options.jobs = 1;
  cold_options.metrics_log_path = (logs / "cold.jsonl").string();
  const auto cold = Runner(cold_options).replications(s, factory, 4, "mobic");

  // Prefill seeds k = 1 and k = 3 only, each through its own grid.
  RunnerOptions prefill;
  prefill.jobs = 1;
  prefill.cache_dir = dir.string();
  for (const std::uint64_t k : {1u, 3u}) {
    Scenario one = s;
    one.seed = s.seed + k;
    Runner(prefill).replications(one, factory, 1, "mobic");
  }

  RunnerOptions options = prefill;
  options.jobs = 4;
  options.resume = true;
  options.metrics_log_path = (logs / "resumed.jsonl").string();
  const Runner resumed(options);
  const auto warm = resumed.replications(s, factory, 4, "mobic");
  EXPECT_TRUE(warm == cold);
  EXPECT_EQ(resumed.cache_stats().hits, 2u);
  EXPECT_EQ(resumed.cache_stats().misses, 2u);
  EXPECT_EQ(resumed.cache_stats().stores, 2u);
  EXPECT_GE(resumed.cache_stats().verified, 1u);

  const auto read = [](const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(read(logs / "resumed.jsonl"), read(logs / "cold.jsonl"));
  fs::remove_all(dir);
  fs::remove_all(logs);
}

// --resume verifies cache hits; without a cache there is nothing to verify,
// so the Runner refuses the request instead of ignoring it.
TEST(RunnerCacheTest, ResumeWithoutCacheDirIsRejected) {
  RunnerOptions options;
  options.jobs = 1;
  options.resume = true;
  EXPECT_THROW({ const Runner runner(options); }, util::CheckError);
}

TEST(ScrubCacheTest, QuarantinesCorruptCellsAndRepairsFromMeta) {
  const fs::path dir = scratch_dir("scrub");
  const Scenario s = small_scenario();
  const OptionsFactory factory = factory_by_name("mobic");
  RunnerOptions options;
  options.jobs = 1;
  options.cache_dir = dir.string();
  Runner(options).replications(s, factory, 2, "mobic");

  const auto read_bytes = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const std::string victim = cache_cell_filename(s, "mobic");
  const std::string victim_bytes = read_bytes(dir / victim);
  ASSERT_FALSE(victim_bytes.empty());

  // Truncate one cell (torn write) and drop a stray temp file (killed
  // sweep leftover).
  {
    std::ofstream out(dir / victim, std::ios::binary | std::ios::trunc);
    out << victim_bytes.substr(0, victim_bytes.size() / 2);
  }
  {
    std::ofstream out(dir / ".tmp-99-junk", std::ios::binary);
    out << "half a cell";
  }

  // Verify-only pass: corruption is quarantined, never silently kept.
  const ScrubReport report = scrub_cache(dir.string(), /*repair=*/false);
  EXPECT_EQ(report.scanned, 2u);
  EXPECT_EQ(report.ok, 1u);
  EXPECT_EQ(report.corrupt, 1u);
  EXPECT_EQ(report.repaired, 0u);
  EXPECT_EQ(report.stray_tmp, 1u);
  EXPECT_FALSE(fs::exists(dir / victim));
  EXPECT_TRUE(fs::exists(dir / "quarantine" / victim));
  EXPECT_TRUE(fs::exists(dir / "quarantine" / ".tmp-99-junk"));
  // The provenance sidecar stays behind for a later repair pass.
  EXPECT_TRUE(fs::exists(dir / (victim + ".meta")));

  // Repair pass: corrupt the other cell, then recompute it from its .meta
  // sidecar — the repaired cell is byte-identical to the original.
  Scenario s2 = s;
  s2.seed = s.seed + 1;
  const std::string victim2 = cache_cell_filename(s2, "mobic");
  const std::string victim2_bytes = read_bytes(dir / victim2);
  ASSERT_FALSE(victim2_bytes.empty());
  {
    std::ofstream out(dir / victim2, std::ios::binary | std::ios::trunc);
    out << "manet-cell/1\nch_changes = garbage\n";
  }
  const ScrubReport repair = scrub_cache(dir.string(), /*repair=*/true);
  EXPECT_EQ(repair.corrupt, 1u);
  EXPECT_EQ(repair.repaired, 1u);
  EXPECT_EQ(repair.unrepairable, 0u);
  EXPECT_EQ(read_bytes(dir / victim2), victim2_bytes);

  // A clean cache scrubs clean.
  const ScrubReport clean = scrub_cache(dir.string(), /*repair=*/true);
  EXPECT_EQ(clean.corrupt, 0u);
  EXPECT_EQ(clean.ok, clean.scanned);
  fs::remove_all(dir);
}

TEST(ScrubCacheTest, FirstCellDifferenceNamesTheField) {
  EXPECT_EQ(first_cell_difference("a = 1\nb = 2\n", "a = 1\nb = 2\n"), "");
  const std::string diff =
      first_cell_difference("a = 1\nb = 2\n", "a = 1\nb = 3\n");
  EXPECT_NE(diff.find("field 'b'"), std::string::npos) << diff;
  EXPECT_NE(diff.find("'b = 2'"), std::string::npos) << diff;
  EXPECT_NE(diff.find("'b = 3'"), std::string::npos) << diff;
  const std::string trunc = first_cell_difference("a = 1\nb = 2\n", "a = 1\n");
  EXPECT_NE(trunc.find("record ended"), std::string::npos) << trunc;
}

}  // namespace
}  // namespace manet::scenario
