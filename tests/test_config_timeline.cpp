// Scenario config files and the timeline recorder.
#include <sstream>

#include <gtest/gtest.h>

#include "scenario/config.h"
#include "scenario/timeline.h"
#include "util/assert.h"

namespace manet::scenario {
namespace {

TEST(ConfigTest, ParsesAllKeys) {
  std::stringstream ss(R"(
    # a comment
    n_nodes = 30
    field = 500x400
    mobility = highway
    max_speed = 12.5   # trailing comment
    pause_time = 30
    tx_range = 175
    sim_time = 600
    broadcast_interval = 1.5
    neighbor_timeout = 2.5
    packet_loss = 0.1
    collision_window = 0.001
    propagation = shadowing
    shadowing_sigma_db = 5
    seed = 42
    warmup = 20
  )");
  const Scenario s = read_config(ss);
  EXPECT_EQ(s.n_nodes, 30u);
  EXPECT_DOUBLE_EQ(s.fleet.field.width, 500.0);
  EXPECT_DOUBLE_EQ(s.fleet.field.height, 400.0);
  EXPECT_EQ(s.fleet.kind, mobility::ModelKind::kHighway);
  EXPECT_DOUBLE_EQ(s.fleet.max_speed, 12.5);
  EXPECT_DOUBLE_EQ(s.fleet.pause_time, 30.0);
  EXPECT_DOUBLE_EQ(s.tx_range, 175.0);
  EXPECT_DOUBLE_EQ(s.sim_time, 600.0);
  EXPECT_DOUBLE_EQ(s.net.broadcast_interval, 1.5);
  EXPECT_DOUBLE_EQ(s.net.neighbor_timeout, 2.5);
  EXPECT_DOUBLE_EQ(s.net.packet_loss, 0.1);
  EXPECT_DOUBLE_EQ(s.net.collision_window, 0.001);
  EXPECT_EQ(s.propagation, "shadowing");
  EXPECT_DOUBLE_EQ(s.shadowing_sigma_db, 5.0);
  EXPECT_EQ(s.seed, 42u);
  EXPECT_DOUBLE_EQ(s.warmup, 20.0);
}

TEST(ConfigTest, SquareFieldShorthand) {
  std::stringstream ss("field = 1000\n");
  const Scenario s = read_config(ss);
  EXPECT_DOUBLE_EQ(s.fleet.field.width, 1000.0);
  EXPECT_DOUBLE_EQ(s.fleet.field.height, 1000.0);
}

TEST(ConfigTest, DefaultsSurviveEmptyConfig) {
  std::stringstream ss("\n# nothing\n");
  const Scenario s = read_config(ss);
  const Scenario d;
  EXPECT_EQ(s.n_nodes, d.n_nodes);
  EXPECT_DOUBLE_EQ(s.tx_range, d.tx_range);
  EXPECT_DOUBLE_EQ(s.net.broadcast_interval, d.net.broadcast_interval);
}

TEST(ConfigTest, RejectsMalformedInput) {
  {
    std::stringstream ss("n_nodes 50\n");  // missing '='
    EXPECT_THROW(read_config(ss), util::CheckError);
  }
  {
    std::stringstream ss("made_up_key = 1\n");
    EXPECT_THROW(read_config(ss), util::CheckError);
  }
  {
    std::stringstream ss("tx_range = many\n");
    EXPECT_THROW(read_config(ss), util::CheckError);
  }
  {
    std::stringstream ss("tx_range =\n");
    EXPECT_THROW(read_config(ss), util::CheckError);
  }
  // Values a Scenario cannot represent: empty or non-finite numbers, and
  // integer keys that are fractional, negative or out of range.
  for (const char* text :
       {"sim_time = inf\n", "sim_time = nan\n", "tx_range = -inf\n",
        "field = x670\n", "n_nodes = -1\n", "n_nodes = 2.5\n",
        "seed = 18446744073709551616\n", "rpgm_group_size = 7.0\n",
        "highway_lanes_per_direction = 2147483648\n"}) {
    std::stringstream ss(text);
    EXPECT_THROW(read_config(ss), util::CheckError) << text;
  }
  EXPECT_THROW(read_config_file("/no/such/file.conf"), util::CheckError);
}

TEST(ConfigTest, WriteReadRoundTrip) {
  Scenario s;
  s.n_nodes = 77;
  s.fleet.kind = mobility::ModelKind::kRpgm;
  s.fleet.field = geom::Rect(123.0, 456.0);
  s.fleet.max_speed = 3.25;
  s.fleet.rpgm_group_size = 7;
  s.tx_range = 87.5;
  s.sim_time = 333.0;
  s.net.packet_loss = 0.05;
  s.propagation = "two_ray";
  s.seed = 99;

  std::stringstream ss;
  write_config(ss, s);
  const Scenario parsed = read_config(ss);
  EXPECT_EQ(parsed.n_nodes, s.n_nodes);
  EXPECT_EQ(parsed.fleet.kind, s.fleet.kind);
  EXPECT_DOUBLE_EQ(parsed.fleet.field.width, s.fleet.field.width);
  EXPECT_DOUBLE_EQ(parsed.fleet.field.height, s.fleet.field.height);
  EXPECT_DOUBLE_EQ(parsed.fleet.max_speed, s.fleet.max_speed);
  EXPECT_EQ(parsed.fleet.rpgm_group_size, s.fleet.rpgm_group_size);
  EXPECT_DOUBLE_EQ(parsed.tx_range, s.tx_range);
  EXPECT_DOUBLE_EQ(parsed.sim_time, s.sim_time);
  EXPECT_DOUBLE_EQ(parsed.net.packet_loss, s.net.packet_loss);
  EXPECT_EQ(parsed.propagation, s.propagation);
  EXPECT_EQ(parsed.seed, s.seed);

  // 2^53 + 1 has no double: a seed must round-trip without one.
  s.seed = (std::uint64_t{1} << 53) + 1;
  std::stringstream big;
  write_config(big, s);
  EXPECT_EQ(read_config(big).seed, s.seed);
}

TEST(ConfigTest, ParsedConfigRunsIdenticallyToStruct) {
  Scenario s;
  s.n_nodes = 15;
  s.fleet.field = geom::Rect(300.0, 300.0);
  s.tx_range = 120.0;
  s.sim_time = 60.0;
  std::stringstream ss;
  write_config(ss, s);
  const Scenario parsed = read_config(ss);
  const auto a = run_scenario(s, factory_by_name("mobic"));
  const auto b = run_scenario(parsed, factory_by_name("mobic"));
  EXPECT_EQ(a.ch_changes, b.ch_changes);
  EXPECT_EQ(a.hellos_delivered, b.hellos_delivered);
}

TEST(TimelineTest, RecordsEventsAndSnapshots) {
  Scenario s;
  s.n_nodes = 12;
  s.fleet.field = geom::Rect(300.0, 300.0);
  s.fleet.max_speed = 10.0;
  s.tx_range = 120.0;
  s.sim_time = 60.0;

  TimelineRecorder recorder;
  const auto on_start = [&](LiveContext& ctx) {
    recorder.schedule_snapshots(ctx, 10.0, s.sim_time);
  };
  run_scenario(s, factory_by_name("mobic"), on_start, &recorder);

  // 7 snapshot instants (0..60 step 10) x 12 nodes.
  EXPECT_EQ(recorder.snapshots().size(), 7u * 12u);
  EXPECT_FALSE(recorder.role_events().empty());
  EXPECT_FALSE(recorder.affiliation_events().empty());

  // Events are time-ordered.
  for (std::size_t i = 1; i < recorder.role_events().size(); ++i) {
    EXPECT_LE(recorder.role_events()[i - 1].t, recorder.role_events()[i].t);
  }
  // At t = 0 everyone is undecided; by the end everyone is decided.
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(recorder.snapshots()[i].role, cluster::Role::kUndecided);
  }
  const auto& last = recorder.snapshots().back();
  EXPECT_DOUBLE_EQ(last.t, 60.0);
  // head_at reconstructs affiliation from snapshots.
  EXPECT_EQ(recorder.head_at(60.0, last.node), last.head);
  EXPECT_EQ(recorder.head_at(-1.0, 0), net::kInvalidNode);
}

TEST(TimelineTest, CsvExports) {
  Scenario s;
  s.n_nodes = 6;
  s.fleet.field = geom::Rect(200.0, 200.0);
  s.tx_range = 100.0;
  s.sim_time = 30.0;

  TimelineRecorder recorder;
  run_scenario(
      s, factory_by_name("lowest_id"),
      [&](LiveContext& ctx) { recorder.schedule_snapshots(ctx, 15.0, 30.0); },
      &recorder);

  std::stringstream events;
  recorder.write_events_csv(events);
  std::string header;
  std::getline(events, header);
  EXPECT_EQ(header, "t,node,kind,from,to");
  // The merged log contains both kinds.
  const std::string body = events.str();
  EXPECT_NE(body.find(",role,"), std::string::npos);
  EXPECT_NE(body.find(",affiliation,"), std::string::npos);

  std::stringstream snaps;
  recorder.write_snapshots_csv(snaps);
  std::getline(snaps, header);
  EXPECT_EQ(header, "t,node,x,y,role,head,gateway,metric");
  std::size_t rows = 0;
  std::string line;
  while (std::getline(snaps, line)) {
    ++rows;
  }
  EXPECT_EQ(rows, 3u * 6u);
}

TEST(TimelineTest, StatsUnaffectedByExtraSink) {
  Scenario s;
  s.n_nodes = 10;
  s.fleet.field = geom::Rect(300.0, 300.0);
  s.tx_range = 120.0;
  s.sim_time = 60.0;
  const auto plain = run_scenario(s, factory_by_name("mobic"));
  TimelineRecorder recorder;
  const auto with_sink =
      run_scenario(s, factory_by_name("mobic"), nullptr, &recorder);
  EXPECT_EQ(plain.ch_changes, with_sink.ch_changes);
  EXPECT_EQ(plain.reaffiliations, with_sink.reaffiliations);
}

}  // namespace
}  // namespace manet::scenario
