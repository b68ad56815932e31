#pragma once

// The four string-keyed registries that make a full experiment addressable
// by name:
//
//   topologies()  "dual_clique(256)", "jgrid(12,12,0.6,0.05,2.0)", ...
//   algorithms()  "decay_global(permuted,persistent)", "round_robin", ...
//   adversaries() "iid(0.5)", "anti_schedule", "collider", ...
//   problems()    "global(bridge_b)", "local(side_a)", "gossip(4)", ...
//
// Each accessor is a lazy singleton seeded with the library's built-ins on
// first use; downstream code extends them at runtime with .add() (see
// examples/leader_election.cpp for a complete custom algorithm in a few
// lines). An algorithm is a KernelFactory: a built-in's batch kernel, or the
// scalar adapter (make_scalar_kernel_adapter) around a user-written
// Process. Adversary and problem builders receive the already-built
// Topology so construction-aware pieces (bracelet pre-simulation,
// anti-schedule predictions, named node sets) resolve against the actual
// network; adversary builders also receive the column's algorithm, which
// the bracelet pre-simulation re-runs privately.

#include <memory>

#include "core/kernels.hpp"
#include "scenario/registry.hpp"
#include "scenario/topology.hpp"
#include "sim/kernel.hpp"
#include "sim/link_process.hpp"
#include "sim/problem.hpp"
#include "sim/process.hpp"

namespace dualcast::scenario {

/// Problems are stateful monitors, so scenarios build a fresh one per trial.
using ProblemFactory = std::function<std::shared_ptr<Problem>()>;

/// Topology builders additionally receive a seed for randomized generators
/// (jittered grids, random geometric fields, random G' overlays).
using TopologyRegistry = Registry<Topology, std::uint64_t>;
using AlgorithmRegistry = Registry<KernelFactory>;
using AdversaryRegistry =
    Registry<LinkProcessFactory, const Topology&, const KernelFactory&>;
using ProblemRegistry = Registry<ProblemFactory, const Topology&>;

TopologyRegistry& topologies();
AlgorithmRegistry& algorithms();
AdversaryRegistry& adversaries();
ProblemRegistry& problems();

/// The kernel for one trial: kernel(). Neither `problem` nor `factory` is
/// read (perfbench's driver still calls this form; ROADMAP item 3 retires
/// it). A problem that reads Process objects (batch_compatible() false)
/// needs a kernel that has them — the scalar adapter around a user-written
/// Process; the scenario runner reports any other pairing as a
/// ScenarioError naming both.
std::unique_ptr<AlgorithmKernel> select_kernel(const KernelFactory& kernel,
                                               const Problem& problem,
                                               const ProcessFactory& factory);

/// The argument grammar of the built-in algorithms: their algorithms()
/// entries parse through these, and so does the scalar reference under
/// tests/reference/, so one spec string names one configuration in both.
DecayGlobalConfig parse_decay_global(const SpecArgs& args);
DecayLocalConfig parse_decay_local(const SpecArgs& args);
GeoLocalConfig parse_geo_local(const SpecArgs& args);
RoundRobinConfig parse_round_robin(const SpecArgs& args);
GossipConfig parse_gossip(const SpecArgs& args);
RobustMixConfig parse_robust_mix(const SpecArgs& args);

// Built-in registration hooks (called once by the accessors above; defined
// in builtins.cpp).
void register_builtin_topologies(TopologyRegistry& registry);
void register_builtin_algorithms(AlgorithmRegistry& registry);
void register_builtin_adversaries(AdversaryRegistry& registry);
void register_builtin_problems(ProblemRegistry& registry);

}  // namespace dualcast::scenario
