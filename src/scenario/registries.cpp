#include "scenario/registries.hpp"

#include "util/assert.hpp"

namespace dualcast::scenario {

const std::vector<int>& Topology::node_set(const std::string& name) const {
  const auto it = node_sets.find(name);
  if (it == node_sets.end()) {
    throw ScenarioError(
        str("topology \"", spec, "\": unknown node set \"", name,
            "\"; known: ",
            join_names(node_sets, [](const auto& kv) { return kv.first; })));
  }
  return it->second;
}

int Topology::mark(const std::string& name) const {
  const auto it = marks.find(name);
  if (it == marks.end()) {
    throw ScenarioError(
        str("topology \"", spec, "\": unknown mark \"", name, "\"; known: ",
            join_names(marks, [](const auto& kv) { return kv.first; })));
  }
  return it->second;
}

TopologyRegistry& topologies() {
  static TopologyRegistry& registry = *[] {
    auto* r = new TopologyRegistry();
    register_builtin_topologies(*r);
    return r;
  }();
  return registry;
}

AlgorithmRegistry& algorithms() {
  static AlgorithmRegistry& registry = *[] {
    auto* r = new AlgorithmRegistry();
    register_builtin_algorithms(*r);
    return r;
  }();
  return registry;
}

AdversaryRegistry& adversaries() {
  static AdversaryRegistry& registry = *[] {
    auto* r = new AdversaryRegistry();
    register_builtin_adversaries(*r);
    return r;
  }();
  return registry;
}

ProblemRegistry& problems() {
  static ProblemRegistry& registry = *[] {
    auto* r = new ProblemRegistry();
    register_builtin_problems(*r);
    return r;
  }();
  return registry;
}

std::unique_ptr<AlgorithmKernel> select_kernel(
    const KernelFactory& kernel, const Problem& /*problem*/,
    const ProcessFactory& /*factory*/) {
  DC_EXPECTS(kernel != nullptr);
  return kernel();
}

}  // namespace dualcast::scenario
