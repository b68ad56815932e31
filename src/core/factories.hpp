#pragma once

// Convenience ProcessFactory constructors for every algorithm in the
// library, so benches and examples can plug algorithms into KernelExecution
// with one call.

#include "core/geo_local.hpp"
#include "core/global_decay.hpp"
#include "core/local_decay.hpp"
#include "core/round_robin.hpp"
#include "sim/process.hpp"

namespace dualcast {

/// §4.1 / [2] global broadcast (kind selected via config.schedule).
ProcessFactory decay_global_factory(DecayGlobalConfig config);

/// [8] local broadcast baseline.
ProcessFactory decay_local_factory(DecayLocalConfig config);

/// Round-robin broadcast (footnote 4 upper bound).
ProcessFactory round_robin_factory(RoundRobinConfig config);

/// §4.3 geographic local broadcast.
ProcessFactory geo_local_factory(GeoLocalConfig config);

}  // namespace dualcast
