// Converts mobility scenarios between this repository's trace CSV and the
// ns-2 "setdest" movement-script format (the format the paper's own
// scenarios were generated in), in either direction. Can also generate a
// fresh scenario directly to either format.
//
//   # generate 50 RWP nodes and emit an ns-2 script
//   ./setdest_convert --generate rwp --nodes 50 --duration 900
//       --out scene.ns_movements
//
//   # convert an ns-2 script to trace CSV (and back)
//   ./setdest_convert --in scene.ns_movements --out scene.csv
//   ./setdest_convert --in scene.csv --out again.ns_movements --duration 900
#include <fstream>
#include <iostream>

#include "mobility/factory.h"
#include "mobility/setdest.h"
#include "mobility/trace.h"
#include "util/flags.h"

namespace {

using namespace manet;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::string in_path = flags.get_string("in", "");
  const std::string out_path = flags.get_string("out", "");
  const std::string generate = flags.get_string("generate", "");
  const std::uint64_t nodes = flags.get_u64("nodes", 50);
  const double duration = flags.get_double("duration", 900.0);
  const double field_side = flags.get_double("field", 670.0);
  const double speed = flags.get_double("speed", 20.0);
  const std::uint64_t seed = flags.get_u64("seed", 1);
  flags.finish();

  if (out_path.empty()) {
    std::cerr << "usage: --out PATH plus either --in PATH or "
                 "--generate <mobility model>\n";
    return 2;
  }

  std::vector<mobility::PiecewiseLinearTrack> tracks;
  if (!generate.empty()) {
    mobility::FleetParams p;
    p.kind = mobility::parse_model_kind(generate);
    p.field = geom::Rect(field_side, field_side);
    p.duration = duration;
    p.max_speed = speed;
    auto fleet = mobility::make_fleet(p, static_cast<std::size_t>(nodes),
                                      util::Rng(seed));
    for (auto& m : fleet) {
      tracks.push_back(mobility::record_track(*m, duration, 1.0));
    }
    std::cout << "generated " << tracks.size() << " "
              << mobility::model_kind_name(p.kind) << " tracks over "
              << duration << " s\n";
  } else if (!in_path.empty()) {
    std::ifstream in(in_path);
    if (!in.is_open()) {
      std::cerr << "cannot open " << in_path << "\n";
      return 2;
    }
    tracks = ends_with(in_path, ".csv")
                 ? mobility::read_traces_csv(in)
                 : mobility::read_setdest(in, duration);
    std::cout << "read " << tracks.size() << " tracks from " << in_path
              << "\n";
  } else {
    std::cerr << "need --in or --generate\n";
    return 2;
  }

  std::ofstream out(out_path);
  if (!out.is_open()) {
    std::cerr << "cannot open " << out_path << "\n";
    return 2;
  }
  if (ends_with(out_path, ".csv")) {
    mobility::write_traces_csv(out, tracks);
  } else {
    mobility::write_setdest(out, tracks);
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
