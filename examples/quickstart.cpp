// Quickstart: build a dual graph radio network, run the paper's permuted
// decay global broadcast (§4.1) against an oblivious adversary, and inspect
// the result.
//
//   $ ./quickstart
//
// Every dualcast experiment combines four objects — a DualGraph (reliable
// layer G plus unreliable layer G'), a Problem, a LinkProcess (the
// adversary), and the engine, a KernelExecution. The scenario registries
// make the first three, and the algorithm, a *string*: this walkthrough
// builds the pieces by name, wires them manually once, and then shows the
// same experiment as a one-call registered scenario. (See
// examples/leader_election.cpp for registering your own algorithm.)

#include <algorithm>
#include <iostream>

#include "scenario/scenario.hpp"
#include "sim/kernel_execution.hpp"

int main() {
  using namespace dualcast;
  namespace sc = dualcast::scenario;

  // 1. Network, by spec string: a 12x12 jittered-grid geographic network.
  //    Nodes within distance 1 share a reliable G edge; pairs in the grey
  //    zone (1, 2] are unreliable G'-only edges, toggled by the adversary.
  const sc::Topology topo =
      sc::topologies().build("jgrid(12,12,0.6,0.05,2.0)", /*seed=*/42);
  std::cout << "network: n = " << topo.n()
            << ", G edges = " << topo.net().g().edge_count()
            << ", unreliable G'-only edges = "
            << topo.net().gp_only_edges().size()
            << ", diameter(G) = " << topo.net().g().diameter() << "\n";

  // 2. Problem: node 0 must deliver a message to everyone. Problems are
  //    stateful monitors, so the registry hands back a per-trial factory.
  const sc::ProblemFactory problem =
      sc::problems().build("global(0)", topo);

  // 3. Adversary: every unreliable edge flips a fresh coin each round — an
  //    oblivious link process (its choices never depend on the execution).
  const LinkProcessFactory adversary =
      sc::adversaries().build("iid(0.5)", topo);

  // 4. Algorithm + engine: the §4.1 permuted decay broadcast. The source
  //    draws secret bits after the execution starts and ships them in the
  //    message, so no pre-committed adversary can predict the schedule.
  const ProcessFactory algorithm =
      sc::algorithms().build("decay_global(permuted)");
  KernelExecution exec(topo.net(), algorithm, problem(), adversary(),
                       ExecutionConfig{}.with_seed(7).with_max_rounds(100000));
  const RunResult result = exec.run();

  std::cout << "solved: " << (result.solved ? "yes" : "no") << " in "
            << result.rounds << " rounds\n";
  std::cout << "total transmissions: " << exec.history().total_transmissions()
            << ", successful deliveries: " << exec.history().total_deliveries()
            << "\n";

  // Per-node first-reception latency profile (a few percentiles).
  std::vector<int> latencies;
  for (int v = 1; v < topo.n(); ++v) {
    latencies.push_back(exec.first_receive_round()[static_cast<std::size_t>(v)]);
  }
  std::sort(latencies.begin(), latencies.end());
  std::cout << "first-reception rounds: p50 = "
            << latencies[latencies.size() / 2]
            << ", p90 = " << latencies[latencies.size() * 9 / 10]
            << ", max = " << latencies.back() << "\n";

  // The same experiment as a value: a ScenarioSpec swept over n, medians
  // over seeds, run by the shared engine (this is all a bench is now).
  sc::ScenarioSpec spec;
  spec.name = "quickstart/sweep";
  spec.title = "Quickstart: permuted decay vs iid(0.5), growing grids";
  spec.topology = "jgrid({x},{x},0.6,0.05,2.0)";
  spec.problem = "global(0)";
  spec.axis = "side";
  spec.sweep = {6, 9, 12};
  spec.trials = 5;
  spec.max_rounds = "100000";
  spec.columns = {{"permuted decay", "decay_global(permuted)", "iid(0.5)", ""}};
  sc::RunOptions options;
  options.out = &std::cout;
  sc::run_scenario(spec, options);

  return result.solved ? 0 : 1;
}
