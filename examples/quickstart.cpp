// Quickstart: run the paper's headline comparison on one scenario.
//
// 50 random-waypoint nodes on a 670 m x 670 m field (Table 1), MaxSpeed
// 20 m/s, no pause, Tx = 250 m, 900 simulated seconds. Prints the cluster
// stability metric CS (number of clusterhead changes) for Lowest-ID (LCC)
// and MOBIC, the average number of clusters, and the final Theorem-1
// validation — the essence of the paper in ~40 lines of API use.
//
//   ./quickstart [--seed N] [--range M] [--speed V] [--time S]
#include <iostream>

#include "scenario/experiment.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace manet;

  util::Flags flags(argc, argv);
  const std::uint64_t seed = flags.get_u64("seed", 1);
  const double range = flags.get_double("range", 250.0);
  const double speed = flags.get_double("speed", 20.0);
  const double time = flags.get_double("time", 900.0);
  flags.finish();

  scenario::Scenario s;
  s.n_nodes = 50;
  s.fleet.kind = mobility::ModelKind::kRandomWaypoint;
  s.fleet.field = geom::Rect(670.0, 670.0);
  s.fleet.max_speed = speed;
  s.fleet.pause_time = 0.0;
  s.tx_range = range;
  s.sim_time = time;
  s.seed = seed;

  std::cout << "MOBIC quickstart: N=" << s.n_nodes << ", field=670x670 m, "
            << "MaxSpeed=" << speed << " m/s, Tx=" << range << " m, "
            << time << " s simulated\n\n";

  util::Table table({"algorithm", "CH changes (CS)", "avg clusters",
                     "reaffiliations", "mean CH reign (s)", "valid"});
  for (const auto& alg : scenario::paper_algorithms()) {
    const auto r = scenario::run_scenario(s, alg.factory);
    table.add(alg.name, r.ch_changes, util::Table::fmt(r.avg_clusters, 1),
              r.reaffiliations, util::Table::fmt(r.mean_head_lifetime, 1),
              r.final_validation.clean() ? "yes" : "transient");
  }
  table.print(std::cout);

  std::cout << "\n(The paper's Figure 3 reports MOBIC cutting CS by up to "
               "~33% at Tx=250 m.)\n";
  return 0;
}
