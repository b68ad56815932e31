#pragma once

// The scalar reference forms of the library's six built-in algorithms, as
// ProcessFactory constructors and, through the scalar adapter, as
// KernelFactory values that run anywhere a built-in's kernel does. The
// differential tests hold each built-in kernel to these runs, draw for
// draw.

#include <string>

#include "reference/geo_local.hpp"
#include "reference/global_decay.hpp"
#include "reference/gossip.hpp"
#include "reference/local_decay.hpp"
#include "reference/robust_mix.hpp"
#include "reference/round_robin.hpp"
#include "sim/kernel.hpp"

namespace dualcast {

/// §4.1 / [2] global broadcast (kind selected via config.schedule).
ProcessFactory decay_global_factory(DecayGlobalConfig config);

/// [8] local broadcast baseline.
ProcessFactory decay_local_factory(DecayLocalConfig config);

/// Round-robin broadcast (footnote 4 upper bound).
ProcessFactory round_robin_factory(RoundRobinConfig config);

/// §4.3 geographic local broadcast.
ProcessFactory geo_local_factory(GeoLocalConfig config);

/// Round-robin / permuted-Decay interleaving hedge.
ProcessFactory robust_mix_factory(RobustMixConfig config = {});

/// Decay-style k-gossip.
ProcessFactory gossip_factory(GossipConfig config = {});

/// `factory`'s processes on the scalar adapter, one adapter per call: how a
/// Process is registered as an algorithm.
KernelFactory adapter_factory(ProcessFactory factory);

/// The reference form of a built-in algorithm spec ("decay_global(fixed)",
/// "gossip(quiesce)") on the scalar adapter: the configuration the
/// algorithms() entry parses from the same spec. Throws ScenarioError for
/// an unknown name or bad arguments.
KernelFactory reference_kernel(const std::string& algorithm_spec);

/// `algorithm_spec` with its name prefixed by "reference_": the name under
/// which register_reference_algorithms() adds its reference to
/// algorithms().
std::string reference_spec(const std::string& algorithm_spec);

/// Adds every built-in's reference to scenario::algorithms() under
/// reference_spec() names, once per process, so a scenario can run on the
/// references through the ordinary plan.
void register_reference_algorithms();

}  // namespace dualcast
