#pragma once

// The library's six built-in algorithms, each written once, as a batch
// (SoA) kernel: every node's state in flat arrays plus compact candidate
// lists (message holders, decay windows, broadcast-set members,
// per-iteration geo participants), so a round touches only the nodes that
// can act instead of dispatching n virtual calls. Each algorithm's protocol
// and config are documented in its header in this directory.
//
// Each kernel keeps the per-node draw discipline of its algorithm's scalar
// Process form, which lives under tests/reference/ as the differential
// reference: in the engine's default per-node RNG mode, for each node and
// round a kernel consumes exactly the values the scalar
// init/on_round/on_feedback would consume from that node's forked stream,
// so it replays bit-identically against the scalar adapter over the
// reference (tests/test_sim_kernel_engine.cpp and the catalog-wide parity
// test in tests/test_scenario_runner.cpp). A change to a kernel's behaviour
// changes its reference in lock step.
//
// Every kernel follows the ids and n an ExecutionConfig::env_override
// rewrites (KernelSetup::n, KernelSetup::ids), as the bracelet
// pre-simulation's bands need; with no override it does no work for them.
//
// Under RngMode::word (KernelSetup::rng_mode) the decay/gossip kernels
// instead draw their per-round transmit coins word-parallel — one
// Pow2MaskLadder per 64-node holder-bitmap block — trading byte parity for
// up to 64/ladder fewer RNG draws at identical per-trial distribution
// (validated by tests/test_rng_word_mode.cpp).

#include "core/geo_local.hpp"
#include "core/global_decay.hpp"
#include "core/gossip.hpp"
#include "core/local_decay.hpp"
#include "core/robust_mix.hpp"
#include "core/round_robin.hpp"
#include "sim/kernel.hpp"

namespace dualcast {

/// §4.1 / [2] global broadcast.
KernelFactory decay_global_kernel_factory(DecayGlobalConfig config);

/// [8] local broadcast baseline.
KernelFactory decay_local_kernel_factory(DecayLocalConfig config);

/// Round-robin broadcast (footnote 4).
KernelFactory round_robin_kernel_factory(RoundRobinConfig config);

/// Robin/Decay interleaving hedge.
KernelFactory robust_mix_kernel_factory(RobustMixConfig config = {});

/// Decay-style k-gossip.
KernelFactory gossip_kernel_factory(GossipConfig config);

/// §4.3 geographic local broadcast.
KernelFactory geo_local_kernel_factory(GeoLocalConfig config);

}  // namespace dualcast
