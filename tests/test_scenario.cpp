// Scenario runner and experiment harness: determinism, replication,
// aggregation, and configuration plumbing.
#include <gtest/gtest.h>

#include "scenario/runner.h"
#include "util/assert.h"

namespace manet::scenario {
namespace {

Scenario small_scenario() {
  Scenario s;
  s.n_nodes = 20;
  s.fleet.field = geom::Rect(400.0, 400.0);
  s.fleet.max_speed = 10.0;
  s.tx_range = 120.0;
  s.sim_time = 120.0;
  s.warmup = 10.0;
  s.seed = 3;
  return s;
}

TEST(RunScenarioTest, SameSeedIsBitwiseRepeatable) {
  const auto s = small_scenario();
  const auto a = run_scenario(s, factory_by_name("mobic"));
  const auto b = run_scenario(s, factory_by_name("mobic"));
  EXPECT_EQ(a.ch_changes, b.ch_changes);
  EXPECT_EQ(a.reaffiliations, b.reaffiliations);
  EXPECT_DOUBLE_EQ(a.avg_clusters, b.avg_clusters);
  EXPECT_DOUBLE_EQ(a.mean_degree, b.mean_degree);
  EXPECT_EQ(a.beacons_sent, b.beacons_sent);
  EXPECT_EQ(a.hellos_delivered, b.hellos_delivered);
}

TEST(RunScenarioTest, DifferentSeedsDiffer) {
  auto s = small_scenario();
  const auto a = run_scenario(s, factory_by_name("mobic"));
  s.seed = 4;
  const auto b = run_scenario(s, factory_by_name("mobic"));
  EXPECT_NE(a.hellos_delivered, b.hellos_delivered);
}

TEST(RunScenarioTest, ProducesSaneAggregates) {
  const auto s = small_scenario();
  const auto r = run_scenario(s, factory_by_name("lowest_id"));
  // 20 nodes beaconing every 2 s for 120 s: ~1200 beacons.
  EXPECT_NEAR(static_cast<double>(r.beacons_sent), 1200.0, 40.0);
  EXPECT_GT(r.hellos_delivered, r.beacons_sent);  // multiple receivers each
  EXPECT_GT(r.bytes_sent, r.beacons_sent * 15);   // hello >= 15 B + payload
  EXPECT_GT(r.avg_clusters, 1.0);
  EXPECT_LT(r.avg_clusters, 20.0);
  EXPECT_GT(r.avg_cluster_size, 1.0);
  EXPECT_GT(r.mean_degree, 0.5);
  EXPECT_GT(r.mean_head_lifetime, 0.0);
  EXPECT_LT(r.avg_undecided, 2.0);
}

TEST(RunScenarioTest, HonorsPropagationChoice) {
  auto s = small_scenario();
  s.propagation = "shadowing";
  s.shadowing_sigma_db = 6.0;
  const auto shadowed = run_scenario(s, factory_by_name("mobic"));
  s.propagation = "free_space";
  const auto clean = run_scenario(s, factory_by_name("mobic"));
  // Shadowing must change the delivery pattern.
  EXPECT_NE(shadowed.hellos_delivered, clean.hellos_delivered);
}

TEST(RunScenarioTest, RejectsBadConfigs) {
  auto s = small_scenario();
  s.n_nodes = 1;
  EXPECT_THROW(run_scenario(s, factory_by_name("mobic")), util::CheckError);
  s = small_scenario();
  s.sim_time = 5.0;  // <= warmup
  EXPECT_THROW(run_scenario(s, factory_by_name("mobic")), util::CheckError);
  EXPECT_THROW(factory_by_name("nonsense")(nullptr), util::CheckError);
}

TEST(RunScenarioTest, OnStartHookRuns) {
  const auto s = small_scenario();
  int hook_calls = 0;
  std::size_t network_size = 0;
  run_scenario(s, factory_by_name("mobic"), [&](LiveContext& ctx) {
    ++hook_calls;
    network_size = ctx.network.size();
    EXPECT_DOUBLE_EQ(ctx.sim.now(), 0.0);
  });
  EXPECT_EQ(hook_calls, 1);
  EXPECT_EQ(network_size, 20u);
}

// The broadcast grid is a pure optimisation: how stale its position
// snapshot may get must not change one delivery, for any mobility model —
// including highway vehicles, which jump the length of the road when they
// re-enter it.
TEST(RunScenarioTest, GridRefreshNeverChangesResults) {
  using mobility::ModelKind;
  for (const ModelKind kind :
       {ModelKind::kStatic, ModelKind::kRandomWaypoint, ModelKind::kRandomWalk,
        ModelKind::kRandomDirection, ModelKind::kGaussMarkov, ModelKind::kRpgm,
        ModelKind::kHighway, ModelKind::kManhattan}) {
    Scenario s;
    s.n_nodes = 50;
    s.tx_range = 150.0;
    s.sim_time = 150.0;
    s.seed = 5;
    s.fleet.kind = kind;
    Scenario exact = s;
    exact.net.grid_refresh = 1e-9;  // a fresh snapshot for every send
    const auto stale = run_scenario(s, factory_by_name("mobic"));
    const auto fresh = run_scenario(exact, factory_by_name("mobic"));
    const std::string_view name = mobility::model_kind_name(kind);
    EXPECT_EQ(stale.hellos_delivered, fresh.hellos_delivered) << name;
    EXPECT_EQ(stale.ch_changes, fresh.ch_changes) << name;
    EXPECT_TRUE(stale == fresh) << name;
  }
}

TEST(ReplicationTest, VariesSeedsOnly) {
  const Runner runner;
  const auto runs =
      runner.replications(small_scenario(), factory_by_name("mobic"), 3);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_NE(runs[0].hellos_delivered, runs[1].hellos_delivered);
  // Re-running reproduces the set exactly.
  const auto again =
      runner.replications(small_scenario(), factory_by_name("mobic"), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(runs[i].ch_changes, again[i].ch_changes);
  }
  EXPECT_THROW(runner.replications(small_scenario(),
                                   factory_by_name("mobic"), 0),
               util::CheckError);
}

TEST(AggregateTest, ComputesMeanCi) {
  std::vector<RunResult> runs(3);
  runs[0].ch_changes = 10;
  runs[1].ch_changes = 20;
  runs[2].ch_changes = 30;
  const auto agg = aggregate(runs, field_ch_changes);
  EXPECT_DOUBLE_EQ(agg.mean, 20.0);
  EXPECT_EQ(agg.n, 3u);
  EXPECT_GT(agg.half_width, 0.0);
}

TEST(SweepTest, RunsGridAndLabelsPoints) {
  SweepSpec spec;
  spec.base = small_scenario();
  spec.base.sim_time = 60.0;
  spec.xs = {80.0, 160.0};
  spec.configure = [](Scenario& s, double tx) { s.tx_range = tx; };
  spec.algorithms = paper_algorithms();
  spec.fields = {{"clusters", field_avg_clusters}};
  spec.replications = 2;
  const auto series = Runner().run(spec).series("clusters");
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].x, 80.0);
  EXPECT_DOUBLE_EQ(series[1].x, 160.0);
  for (const auto& p : series) {
    EXPECT_TRUE(p.values.count("mobic"));
    EXPECT_TRUE(p.values.count("lowest_id"));
  }
  // Bigger range -> fewer clusters, for both algorithms.
  EXPECT_LT(series[1].values.at("mobic").mean,
            series[0].values.at("mobic").mean);
  auto empty = spec;
  empty.xs.clear();
  EXPECT_THROW(Runner().run(empty), util::CheckError);
}

TEST(FieldFnTest, Accessors) {
  RunResult r;
  r.ch_changes = 5;
  r.avg_clusters = 7.5;
  r.reaffiliations = 11;
  r.mean_head_lifetime = 42.0;
  r.mean_degree = 3.25;
  r.beacons_sent = 17;
  r.bytes_sent = 1234;
  EXPECT_DOUBLE_EQ(field_ch_changes(r), 5.0);
  EXPECT_DOUBLE_EQ(field_avg_clusters(r), 7.5);
  EXPECT_DOUBLE_EQ(field_reaffiliations(r), 11.0);
  EXPECT_DOUBLE_EQ(field_head_lifetime(r), 42.0);
  EXPECT_DOUBLE_EQ(field_mean_degree(r), 3.25);
  EXPECT_DOUBLE_EQ(field_beacons_sent(r), 17.0);
  EXPECT_DOUBLE_EQ(field_bytes_sent(r), 1234.0);
}

}  // namespace
}  // namespace manet::scenario
