// Integration: small-scale end-to-end checks of the Figure 1 ordering —
// for the same algorithm family, stronger adversary classes cost strictly
// more rounds, and the paper's algorithms are fast exactly in the regimes
// the upper bounds claim.

#include <gtest/gtest.h>

#include "adversary/dense_sparse.hpp"
#include "adversary/offline_collider.hpp"
#include "adversary/schedule_attack.hpp"
#include "adversary/static_adversaries.hpp"
#include "core/factories.hpp"
#include "graph/generators.hpp"
#include "sim/kernel_execution.hpp"
#include "test_support.hpp"
#include "util/mathutil.hpp"

namespace dualcast {
namespace {

using testing::median_rounds;
using testing::run_global;
using testing::run_local;

DecayGlobalConfig persistent(ScheduleKind kind) {
  DecayGlobalConfig cfg = DecayGlobalConfig::fast(kind);
  cfg.calls = DecayGlobalConfig::kUnbounded;
  return cfg;
}

TEST(Fig1Integration, GlobalBroadcastAdversaryHierarchyOnDualClique) {
  // Permuted decay on the dual clique: oblivious (benign & adversarial
  // schedules) is polylog; online adaptive and offline adaptive drive it to
  // ~linear. The measured ordering must be:
  //   oblivious << online <= offline.
  const int n = 256;
  const DualCliqueNet dc = dual_clique(n, n / 4);
  const int max_rounds = 300 * n;
  const auto measure = [&](LinkProcessFactory make_adversary,
                           std::uint64_t base) {
    return median_rounds(5, base, max_rounds, [&](std::uint64_t seed) {
      return run_global(dc.net,
                        decay_global_factory(persistent(ScheduleKind::permuted)),
                        make_adversary(), /*source=*/1, seed, max_rounds);
    });
  };
  const double oblivious = measure(
      [] { return std::make_unique<RandomIidEdges>(0.5); }, 1000);
  const double online = measure(
      [] {
        return std::make_unique<DenseSparseOnline>(DenseSparseConfig{0.5});
      },
      2000);
  const double offline = measure(
      [] { return std::make_unique<GreedyColliderOffline>(); }, 3000);

  EXPECT_GE(online, 3.0 * oblivious)
      << "oblivious=" << oblivious << " online=" << online;
  EXPECT_GE(offline, online)
      << "online=" << online << " offline=" << offline;
}

TEST(Fig1Integration, StaticModelMatchesProtocolBounds) {
  // Bottom row of Figure 1: in the protocol model (G = G'), global broadcast
  // is Θ(D log(n/D) + log² n) — concretely, far faster than n on a clique,
  // and ~D-dominated on a line.
  const DualGraph clique = DualGraph::protocol(complete_graph(256));
  const double clique_rounds = median_rounds(5, 1, 20000, [&](std::uint64_t s) {
    return run_global(clique, decay_global_factory(DecayGlobalConfig::fast()),
                      std::make_unique<NoExtraEdges>(), 0, s, 20000);
  });
  EXPECT_LT(clique_rounds, 256.0);  // polylog, not linear

  const DualGraph line = DualGraph::protocol(line_graph(256));
  const double line_rounds = median_rounds(3, 1, 500000, [&](std::uint64_t s) {
    return run_global(line, decay_global_factory(DecayGlobalConfig::fast()),
                      std::make_unique<NoExtraEdges>(), 0, s, 500000);
  });
  EXPECT_GT(line_rounds, 255.0);  // at least one round per hop
}

TEST(Fig1Integration, LocalBroadcastGeoVsGeneralSeparation) {
  // Third row of Figure 1: under oblivious adversaries, local broadcast is
  // polylog on geographic graphs (Thm 4.6) while general graphs admit the
  // Ω(√n/log n) bracelet delay. We compare the geo algorithm's solve time on
  // a geo graph against the bracelet clasp delay at comparable size, both
  // normalized by their benign baselines elsewhere; here we simply check the
  // geo algorithm completes within its scheduled O(log²n logΔ) window.
  Rng rng(7);
  const GeoNet geo = jittered_grid_geo(8, 8, 0.5, 0.05, 2.0, rng);
  std::vector<int> b;
  for (int v = 0; v < geo.net.n(); v += 3) b.push_back(v);

  KernelExecution exec(geo.net, geo_local_factory(GeoLocalConfig::fast()),
                       std::make_shared<LocalBroadcastProblem>(geo.net, b),
                       std::make_unique<RandomIidEdges>(0.5), {3, 1 << 20, {}});
  const auto* proc = dynamic_cast<const GeoLocalBroadcast*>(&exec.process(0));
  ASSERT_NE(proc, nullptr);
  const RunResult result = exec.run();
  ASSERT_TRUE(result.solved);
  EXPECT_LE(result.rounds, proc->total_length());
}

TEST(Fig1Integration, RoundRobinMeetsTheAdaptiveUpperBounds) {
  // First row upper bounds: O(n)-ish deterministic broadcast regardless of
  // adversary class, on the very networks the lower bounds use.
  const int n = 128;
  const DualCliqueNet dc = dual_clique(n, 9);
  for (int adversary = 0; adversary < 2; ++adversary) {
    std::unique_ptr<LinkProcess> lp;
    if (adversary == 0) {
      lp = std::make_unique<GreedyColliderOffline>();
    } else {
      lp = std::make_unique<DenseSparseOnline>(DenseSparseConfig{1.0});
    }
    const RunResult global = run_global(
        dc.net, round_robin_factory(RoundRobinConfig{true}), std::move(lp),
        /*source=*/2, /*seed=*/5, /*max_rounds=*/4 * n);
    ASSERT_TRUE(global.solved);
    EXPECT_LE(global.rounds, 3 * n);
  }
}

TEST(Fig1Integration, PermutedVsFixedSeparationIsObliviousOnly) {
  // The permutation bits matter against oblivious schedule attacks (§4.1)
  // but cannot help against online adaptive adversaries (§3) — the
  // algorithm-level ablation of the paper's core mechanism.
  const int n = 256;
  const DualCliqueNet dc = dual_clique(n, n / 4);
  const int max_rounds = 300 * n;
  const int ladder = clog2(static_cast<std::uint64_t>(n));
  const int window_start = 4 * ladder;

  const auto anti_schedule = [&]() {
    ScheduleAttackConfig cfg;
    cfg.predicted_transmitters = [n, ladder, window_start](int round) {
      if (round == 0) return 1.0;
      if (round < window_start) return 0.0;
      return (n / 2.0) * fixed_decay_probability(round, ladder);
    };
    cfg.threshold_factor = 0.5;
    return std::make_unique<ScheduleAttackOblivious>(cfg);
  };

  const auto measure = [&](ScheduleKind kind, bool online,
                           std::uint64_t base) {
    return median_rounds(5, base, max_rounds, [&](std::uint64_t seed) {
      std::unique_ptr<LinkProcess> lp;
      if (online) {
        lp = std::make_unique<DenseSparseOnline>(DenseSparseConfig{0.5});
      } else {
        lp = anti_schedule();
      }
      return run_global(dc.net, decay_global_factory(persistent(kind)),
                        std::move(lp), /*source=*/1, seed, max_rounds);
    });
  };

  const double fixed_vs_oblivious = measure(ScheduleKind::fixed, false, 10);
  const double permuted_vs_oblivious = measure(ScheduleKind::permuted, false, 20);
  const double permuted_vs_online = measure(ScheduleKind::permuted, true, 30);

  // Permutation defeats the oblivious attack...
  EXPECT_GE(fixed_vs_oblivious, 3.0 * permuted_vs_oblivious);
  // ...but not the online adaptive one.
  EXPECT_GE(permuted_vs_online, 3.0 * permuted_vs_oblivious);
}

}  // namespace
}  // namespace dualcast
