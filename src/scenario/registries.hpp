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
// lines). Adversary and problem builders receive the already-built Topology
// so construction-aware pieces (bracelet pre-simulation, anti-schedule
// predictions, named node sets) resolve against the actual network.

#include <memory>

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
using AlgorithmRegistry = Registry<ProcessFactory>;
using AdversaryRegistry = Registry<LinkProcessFactory, const Topology&>;
using ProblemRegistry = Registry<ProblemFactory, const Topology&>;
/// Batch-kernel ports of algorithms, keyed by the *same* names and argument
/// grammar as algorithms() — "decay_global(permuted,persistent)" builds the
/// scalar factory from one registry and the kernel from the other.
/// Algorithms without an entry here run through the scalar adapter (see
/// build_kernel_or_null).
using KernelRegistry = Registry<KernelFactory>;

TopologyRegistry& topologies();
AlgorithmRegistry& algorithms();
AdversaryRegistry& adversaries();
ProblemRegistry& problems();
KernelRegistry& kernels();

/// Builds the kernel for an algorithm spec when a batch port is registered
/// under the spec's name; returns an empty factory otherwise (callers fall
/// back to make_scalar_kernel_adapter around the scalar factory).
KernelFactory build_kernel_or_null(const std::string& algorithm_spec);

/// THE kernel-selection rule, shared by the scenario runner and the
/// throughput bench so they always measure the same thing: the registered
/// kernel when the problem can run without Process objects, the
/// scalar-adapter kernel otherwise (and whenever `kernel` is empty).
std::unique_ptr<AlgorithmKernel> select_kernel(const KernelFactory& kernel,
                                               const Problem& problem,
                                               const ProcessFactory& factory);

// Built-in registration hooks (called once by the accessors above; defined
// in builtins.cpp).
void register_builtin_topologies(TopologyRegistry& registry);
void register_builtin_algorithms(AlgorithmRegistry& registry);
void register_builtin_adversaries(AdversaryRegistry& registry);
void register_builtin_problems(ProblemRegistry& registry);
void register_builtin_kernels(KernelRegistry& registry);

}  // namespace dualcast::scenario
