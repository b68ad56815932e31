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
#include "sim/kernel_execution.hpp"

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

  // Probe one process for the stage layout (identical across nodes).
  KernelExecution probe(field.net(), sc::algorithms().build("geo_local"),
                        sc::problems().build("local(every(4))", field)(),
                        sc::adversaries().build("none", field)(),
                        ExecutionConfig{}.with_seed(1).with_max_rounds(10));
  const auto* proc = dynamic_cast<const GeoLocalBroadcast*>(&probe.process(0));
  std::cout << "schedule: " << proc->phases() << " election phases x "
            << proc->phase_length() << " rounds, then " << proc->iterations()
            << " decay iterations x " << proc->iteration_length()
            << " rounds\n";

  return sc::run_main(argc, argv, {"example/sensor-field"});
}
