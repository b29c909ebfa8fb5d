// §5 scenario: attendees in a conference hall (RPGM group mobility [9]).
// Groups of people drift between posters/booths together; within a group
// relative mobility is tiny even while the group itself moves. A good
// clusterhead is anyone deep inside a group — which is what the aggregate
// mobility metric selects. Also demonstrates trace record/replay: both
// algorithms are driven by the *identical* recorded motion.
//
//   ./conference [--groups G] [--group-size S] [--time T] [--seed K]
//                [--jobs N]
#include <fstream>
#include <iostream>

#include "mobility/trace.h"
#include "scenario/runner.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace manet;

  util::Flags flags(argc, argv);
  const int groups = flags.get_int("groups", 5);
  const int group_size = flags.get_int("group-size", 10);
  const double time = flags.get_double("time", 600.0);
  const std::uint64_t seed = flags.get_u64("seed", 1);
  const int jobs = flags.get_int("jobs", 0);
  flags.finish();

  const auto n = static_cast<std::size_t>(groups * group_size);

  scenario::Scenario s;
  s.n_nodes = n;
  s.tx_range = 100.0;  // indoor-ish range
  s.sim_time = time;
  s.seed = seed;
  s.fleet.kind = mobility::ModelKind::kRpgm;
  s.fleet.field = geom::Rect(300.0, 300.0);  // a large hall
  s.fleet.max_speed = 1.5;                   // walking pace groups
  s.fleet.min_speed = 0.2;
  s.fleet.pause_time = 20.0;                 // groups linger at booths
  s.fleet.rpgm_group_size = static_cast<std::size_t>(group_size);
  s.fleet.rpgm_offset_radius = 15.0;
  s.fleet.rpgm_offset_speed = 0.5;

  std::cout << "Conference hall: " << groups << " groups x " << group_size
            << " attendees, 300x300 m hall, walking pace, Tx = 100 m, "
            << time << " s.\n\n";

  // Both algorithms run concurrently (same scenario, same seed); results
  // come back in algorithm order, so the table is jobs-independent.
  scenario::RunnerOptions opts;
  opts.jobs = jobs;
  const scenario::Runner runner(opts);
  const auto algorithms = scenario::paper_algorithms();
  const auto matrix = runner.run_matrix(s, algorithms, 1);

  util::Table table({"algorithm", "CH changes", "avg clusters",
                     "avg cluster size", "mean CH reign (s)"});
  double cs_lid = 0.0, cs_mobic = 0.0;
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    const auto& r = matrix[a][0];
    (algorithms[a].name == "mobic" ? cs_mobic : cs_lid) =
        static_cast<double>(r.ch_changes);
    table.add(algorithms[a].name, r.ch_changes,
              util::Table::fmt(r.avg_clusters, 1),
              util::Table::fmt(r.avg_cluster_size, 1),
              util::Table::fmt(r.mean_head_lifetime, 1));
  }
  table.print(std::cout);

  // Bonus: persist one group's motion as a trace CSV (the ns-2 scenario-
  // file equivalent) so the run can be inspected or replayed elsewhere.
  mobility::FleetParams fp = s.fleet;
  fp.duration = 60.0;
  auto fleet = mobility::make_fleet(fp, static_cast<std::size_t>(group_size),
                                    util::Rng(seed).substream("mobility"));
  std::vector<mobility::PiecewiseLinearTrack> tracks;
  for (auto& m : fleet) {
    tracks.push_back(mobility::record_track(*m, 60.0, 1.0));
  }
  const std::string trace_path = "conference_group0_trace.csv";
  {
    std::ofstream out(trace_path);
    mobility::write_traces_csv(out, tracks);
  }
  std::cout << "\nWrote 60 s of group-0 motion to " << trace_path << " ("
            << tracks.size() << " tracks; replayable via "
               "mobility::read_traces_csv + TraceModel).\n";
  if (cs_lid > 0.0) {
    std::cout << "MOBIC churn reduction: "
              << util::Table::fmt((cs_lid - cs_mobic) / cs_lid * 100.0, 1)
              << "%\n";
  }
  return 0;
}
