#pragma once

// Batch (SoA) kernel ports of the library's algorithms — the hot-path
// counterparts of the Process classes in this directory. Each kernel holds
// all n nodes' state in flat arrays plus compact candidate lists (message
// holders, decay windows, broadcast-set members, per-iteration geo
// participants), so a round touches only the nodes that can act instead of
// dispatching n virtual calls.
//
// Every kernel is draw-for-draw compatible with its scalar algorithm in the
// engine's default per-node RNG mode: for each node and round it consumes
// exactly the values the scalar init/on_round/on_feedback would consume
// from that node's forked stream, so a kernel replays bit-identically
// against the scalar adapter over its algorithm (enforced by
// tests/test_sim_kernel_engine.cpp and the catalog-wide scenario equality
// test). When changing a scalar algorithm, change its kernel in lock step.
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

/// §4.1 / [2] global broadcast (DecayGlobalBroadcast).
KernelFactory decay_global_kernel_factory(DecayGlobalConfig config);

/// [8] local broadcast baseline (DecayLocalBroadcast).
KernelFactory decay_local_kernel_factory(DecayLocalConfig config);

/// Round-robin broadcast (RoundRobinBroadcast).
KernelFactory round_robin_kernel_factory(RoundRobinConfig config);

/// Robin/Decay interleaving hedge (RobustMixBroadcast).
KernelFactory robust_mix_kernel_factory(RobustMixConfig config = {});

/// Decay-style k-gossip (GossipBroadcast).
KernelFactory gossip_kernel_factory(GossipConfig config);

/// §4.3 geographic local broadcast (GeoLocalBroadcast).
KernelFactory geo_local_kernel_factory(GeoLocalConfig config);

}  // namespace dualcast
