// Ablation A11: battery drain as a clustering stressor.
//
// Enables the node energy model (seed-jittered ~60 J batteries, idle draw
// plus per-Hello costs) and compares cluster stability (CS), clusterhead
// tenure fairness (Jain's index over per-node head tenure), and battery
// deaths across Lowest-ID, MOBIC and the two composite-weight protocols
// (CCI, SD_DWCA) over the Figure-3 transmission-range axis. SD_DWCA's
// energy term reads residual charge, so it should spread the clusterhead
// role across nodes (higher fairness) instead of draining one winner.
//
// Rows are byte-identical for every --jobs value: energy is drained from
// simulator events and settled deterministically.
//
//   ablation_energy [--seeds N] [--time S] [--csv PATH] [--fast]
//                   [--jobs N] [--progress] [--run-log PATH]
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace manet;

  bench::Cli cli(argc, argv,
                 "Ablation A11: cluster stability and clusterhead-tenure "
                 "fairness under battery drain.");
  const auto cfg = cli.config();
  cli.finish();

  const std::vector<double> ranges = {100.0, 250.0};

  std::cout << "=== Ablation A11: battery drain (670x670 m, MaxSpeed 20, "
            << "PT 0, " << cfg.sim_time << " s, " << cfg.seeds
            << " seeds) ===\n\n";

  scenario::SweepSpec spec;
  spec.base = bench::paper_scenario();
  spec.base.sim_time = cfg.sim_time;
  cfg.apply_obs(spec.base);
  // Batteries sized so the weakest nodes die mid-run: a ~60 J mean with 50%
  // jitter puts the low tail near 30 J against ~0.01 W idle (9 J over the
  // paper's 900 s) plus per-Hello costs that scale with density.
  spec.base.energy.enabled = true;
  spec.base.energy.capacity_j = 60.0;
  spec.base.energy.capacity_jitter = 0.5;
  spec.base.energy.idle_drain_w = 0.01;
  spec.base.energy.hello_tx_cost_j = 0.02;
  spec.base.energy.hello_rx_cost_j = 0.005;
  spec.xs = ranges;
  spec.configure = [](scenario::Scenario& s, double tx) { s.tx_range = tx; };
  spec.fields = {{"cs", scenario::field_ch_changes},
                 {"fairness", scenario::field_head_tenure_fairness},
                 {"deaths", scenario::field_battery_deaths}};
  spec.replications = cfg.seeds;
  spec.algorithms = {{"lowest_id", scenario::factory_by_name("lowest_id")},
                     {"mobic", scenario::factory_by_name("mobic")},
                     {"cci", scenario::factory_by_name("cci")},
                     {"sd_dwca", scenario::factory_by_name("sd_dwca")}};

  const auto result = cfg.runner().run(spec);

  util::Table table(
      {"Tx (m)", "algorithm", "CS", "+-", "fairness", "+-", "deaths"});
  std::optional<util::CsvWriter> csv;
  if (!cfg.csv_path.empty()) {
    csv.emplace(cfg.csv_path);
    csv->row({"tx", "algorithm", "cs", "cs_ci", "fairness", "fairness_ci",
              "deaths"});
  }

  for (const auto& point : result.points) {
    for (const auto& alg : spec.algorithms) {
      const auto& cell = point.algorithms.at(alg.name);
      const auto& cs = cell.values.at("cs");
      const auto& fair = cell.values.at("fairness");
      const auto& deaths = cell.values.at("deaths");
      table.add(util::Table::fmt(point.x, 0), alg.name,
                util::Table::fmt(cs.mean, 1),
                util::Table::fmt(cs.half_width, 1),
                util::Table::fmt(fair.mean, 3),
                util::Table::fmt(fair.half_width, 3),
                util::Table::fmt(deaths.mean, 1));
      if (csv) {
        csv->row_values(point.x, alg.name, cs.mean, cs.half_width,
                        fair.mean, fair.half_width, deaths.mean);
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nCS = clusterhead changes per run; fairness = Jain's index "
               "of per-node head tenure\n(1 = the role rotates evenly, 1/N "
               "= one node serves alone); deaths = batteries\nthat hit zero "
               "during the run (each lands as a kBatteryDepleted fault).\n";
  return 0;
}
