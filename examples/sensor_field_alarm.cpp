// Sensor-field alarm dissemination — the workload the paper's introduction
// motivates: omnidirectional radios in the plane, links that flicker with
// the environment, and a local broadcast primitive that must keep working.
//
// The weather table is the registered "example/sensor-field" scenario; this
// driver additionally rebuilds the same topology by name to print the §4.3
// region-decomposition constants and the algorithm's stage schedule.

#include <iostream>

#include "core/geo_local.hpp"
#include "graph/regions.hpp"
#include "scenario/cli.hpp"
#include "scenario/scenario.hpp"

int main(int argc, char** argv) {
  using namespace dualcast;
  namespace sc = dualcast::scenario;

  // Deploy ~180 sensors uniformly in a 9x9 field (resampled until the
  // reliable layer is connected) — the same build the scenario performs.
  const sc::Topology field =
      sc::topologies().build("random_geo(180,9,2)", /*seed=*/2026);
  std::cout << "sensor field: n = " << field.n()
            << ", Delta = " << field.net().max_degree()
            << ", grey-zone links = " << field.net().gp_only_edges().size()
            << "\n";

  // The §4.3 analysis partitions the field into regions; show the constants.
  const RegionDecomposition regions(*field.geo);
  std::cout << "region decomposition: " << regions.region_count()
            << " regions, max neighboring regions = "
            << regions.max_neighboring_regions() << " (bound "
            << RegionDecomposition::gamma_bound(field.geo->r) << ")\n";

  // The stage layout "geo_local" derives from n and Delta (every node's).
  const GeoLocalLayout layout = geo_local_layout(
      GeoLocalConfig::fast(), field.n(), field.net().max_degree());
  std::cout << "schedule: " << layout.phases << " election phases x "
            << layout.phase_length() << " rounds, then " << layout.iterations
            << " decay iterations x " << layout.iteration_length
            << " rounds\n";

  return sc::run_main(argc, argv, {"example/sensor-field"});
}
