// The large-n acceptance surface of the implicit layers: dual_clique(65536)
// — whose explicit CSR layers would need ~32 GiB — must construct in O(n)
// memory, report the right structure, and carry a global-broadcast
// execution start-to-solve on the structured resolver path. Golden digests
// pin the benchmark's large-n sample paths in both RNG modes.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "scenario/registries.hpp"
#include "scenario/spec.hpp"
#include "sim/kernel_execution.hpp"

namespace dualcast {
namespace {

using scenario::Topology;

TEST(ScaleImplicit, DualClique65536StaysUnderMemoryBudget) {
  const Topology topo = scenario::topologies().build("dual_clique(65536)", 3);
  const DualGraph& net = topo.net();
  ASSERT_EQ(net.n(), 65536);
  EXPECT_TRUE(net.is_implicit());
  EXPECT_EQ(net.structure(), DualGraph::Structure::dual_clique);
  EXPECT_TRUE(net.gprime_complete());
  EXPECT_EQ(net.max_degree(), 65535);
  EXPECT_EQ(net.gp_only_edge_count(),
            static_cast<std::int64_t>(32768) * 32768 - 1);

  // Explicit storage: ~2^31 gp-only edges x (pair + 2 CSR entries + 2 edge
  // indices) ≈ 32 GiB, plus the two Graph layers. The implicit
  // representation must stay under a budget three orders of magnitude
  // smaller (O(1) for the network itself; the topology's side_a/side_b
  // metadata is O(n)).
  EXPECT_LT(net.approx_heap_bytes(), std::size_t{8} << 20);

  // Spot-check the edge-index decode at the extremes and around the
  // bridge hole.
  EXPECT_EQ(net.gp_only_edge(0), (std::pair<int, int>{0, 32768}));
  EXPECT_EQ(net.gp_only_edge(net.gp_only_edge_count() - 1),
            (std::pair<int, int>{32767, 65535}));
  const int ta = net.dual_bridge_a();
  const int tb = net.dual_bridge_b();
  for (std::int64_t e = 0; e < net.gp_only_edge_count(); e += 104729) {
    const auto [u, v] = net.gp_only_edge(e);
    EXPECT_FALSE(u == ta && v == tb) << "bridge pair appeared at index " << e;
  }
}

TEST(ScaleImplicit, DualCliqueGTopologyIsImplicit) {
  // dual_clique_g is the dual clique's G as a protocol-model network; like
  // dual_clique() itself it materializes no O(n²) layer.
  const Topology topo = scenario::topologies().build("dual_clique_g(65536)", 3);
  const DualGraph& net = topo.net();
  EXPECT_TRUE(net.is_implicit());
  EXPECT_EQ(net.structure(), DualGraph::Structure::dual_clique);
  EXPECT_FALSE(net.gprime_complete());
  EXPECT_TRUE(net.g_connected());
  EXPECT_EQ(net.gp_only_edge_count(), 0);  // protocol model: G' == G
  EXPECT_EQ(net.max_degree(), 32768);
  EXPECT_EQ(net.g_layer().edge_count(),
            static_cast<std::int64_t>(32768) * 32767 + 1);
  EXPECT_LT(net.approx_heap_bytes(), std::size_t{8} << 20);
}

TEST(ScaleImplicit, DualClique65536RunsStartToSolve) {
  const Topology topo = scenario::topologies().build("dual_clique(65536)", 3);
  const std::string algo = "decay_global(fixed,persistent)";
  KernelExecution exec(topo.net(), scenario::algorithms().build(algo)(),
                       scenario::problems().build("global(1)", topo)(),
                       scenario::adversaries().build("none", topo, {})(),
                       ExecutionConfig{}
                           .with_seed(7)
                           .with_max_rounds(6000)
                           .with_history_policy(HistoryPolicy::lean));
  const RunResult result = exec.run();
  EXPECT_TRUE(result.solved) << "censored at " << result.rounds;
  EXPECT_EQ(exec.resolver().last_path(), DeliveryResolver::Path::structured);
}

TEST(ScaleImplicit, WholeSideRoundIsOneRun) {
  // Round 0 of a global broadcast: the source transmits alone, so its whole
  // clique side hears it. The record keeps that as one run over the side,
  // plus at most the bridge's one explicit delivery, where a Delivery per
  // listener took 384 KiB.
  const Topology topo = scenario::topologies().build("dual_clique(65536)", 3);
  const std::string algo = "decay_global(fixed,persistent)";
  KernelExecution exec(topo.net(), scenario::algorithms().build(algo)(),
                       scenario::problems().build("global(1)", topo)(),
                       scenario::adversaries().build("none", topo, {})(),
                       ExecutionConfig{}.with_seed(1).with_max_rounds(8));
  ASSERT_EQ(exec.history_policy(), HistoryPolicy::full);
  exec.step();

  const RoundRecord& round0 = exec.history().round(0);
  const int h = topo.net().dual_half();
  ASSERT_EQ(round0.transmitters, std::vector<int>{1});
  ASSERT_EQ(round0.runs.size(), 1u);
  EXPECT_EQ(round0.runs[0].lo, 0);
  EXPECT_EQ(round0.runs[0].hi, h);
  EXPECT_EQ(round0.runs[0].sender, 1);
  EXPECT_GE(delivery_count(round0), h - 1);
  EXPECT_LE(round0.deliveries.size(), 1u);
  for (int v = 0; v < h; ++v) {
    if (v == 1) continue;
    ASSERT_EQ(exec.first_receive_round()[static_cast<std::size_t>(v)], 0)
        << "node " << v;
  }
  EXPECT_EQ(exec.message_holders(), 1 + delivery_count(round0));
  EXPECT_LT(exec.history().approx_bytes(), std::size_t{4} << 10);
}

/// One n = 65536 trial's sample path: the rounds run, the transmission and
/// delivery totals, and an FNV-1a digest of every node's first-receive
/// round. (Under the attacks every node's first receipt is seed-independent,
/// so the totals are what tell two sample paths apart there.)
struct SamplePath {
  int rounds = 0;
  std::int64_t transmissions = 0;
  std::int64_t deliveries = 0;
  std::uint64_t digest = 0;
  friend bool operator==(const SamplePath&, const SamplePath&) = default;
};

std::ostream& operator<<(std::ostream& os, const SamplePath& p) {
  return os << "{" << p.rounds << ", " << p.transmissions << ", "
            << p.deliveries << ", 0x" << std::hex << p.digest << std::dec
            << "}";
}

SamplePath run_large_clique(const Topology& topo, const std::string& problem,
                            const std::string& adversary, RngMode rng_mode,
                            int max_rounds, std::uint64_t seed) {
  const std::string algo = "decay_global(fixed,persistent)";
  KernelExecution exec(topo.net(), scenario::algorithms().build(algo)(),
                       scenario::problems().build(problem, topo)(),
                       scenario::adversaries().build(adversary, topo, {})(),
                       ExecutionConfig{}
                           .with_seed(seed)
                           .with_max_rounds(max_rounds)
                           .with_history_policy(HistoryPolicy::lean)
                           .with_rng_mode(rng_mode));
  SamplePath out;
  out.rounds = exec.run().rounds;
  out.transmissions = exec.history().total_transmissions();
  out.deliveries = exec.history().total_deliveries();
  out.digest = scenario::kFnvOffsetBasis;
  for (const int r : exec.first_receive_round()) {
    out.digest =
        (out.digest ^ static_cast<std::uint32_t>(r)) * 0x100000001b3ULL;
  }
  return out;
}

TEST(ScaleImplicit, GoldenSamplePathsAt65536) {
  // The large-n cells of the benchmark, two seeds each: a global broadcast
  // to solve, and the dense/sparse (per-node and word RNG) and collider
  // attacks capped at 128 rounds. Any engine or kernel change that moves
  // these sample paths must update the pins in a reviewed diff.
  const Topology topo = scenario::topologies().build("dual_clique(65536)", 3);
  struct Cell {
    const char* problem;
    const char* adversary;
    RngMode rng_mode;
    int max_rounds;
    std::uint64_t seed;
    SamplePath expected;
  };
  const Cell cells[] = {
      {"global(1)", "none", RngMode::per_node, 4096, 1,
       {145, 179970, 262143, 0xb4229401fffa9769}},
      {"global(1)", "none", RngMode::per_node, 4096, 2,
       {145, 180198, 229373, 0xaf05ebd2d0ec976b}},
      {"assignment(0)", "dense_sparse(0.5)", RngMode::per_node, 128, 1,
       {128, 130755, 196602, 0x9f25f2e3e5fda36b}},
      {"assignment(0)", "dense_sparse(0.5)", RngMode::per_node, 128, 2,
       {128, 130914, 163835, 0x9f25f2e3e5fda36b}},
      {"assignment(0)", "dense_sparse(0.5)", RngMode::word, 128, 1,
       {128, 131130, 196602, 0x776d91c4d2f1a368}},
      {"assignment(0)", "dense_sparse(0.5)", RngMode::word, 128, 2,
       {128, 130599, 229369, 0x776d91c4d2f1a368}},
      {"assignment(0)", "collider", RngMode::per_node, 128, 1,
       {128, 130755, 196602, 0x9f25f2e3e5fda36b}},
      {"assignment(0)", "collider", RngMode::per_node, 128, 2,
       {128, 130914, 163835, 0x9f25f2e3e5fda36b}},
  };
  for (const Cell& c : cells) {
    SCOPED_TRACE(std::string(c.problem) + " | " + c.adversary + " | " +
                 (c.rng_mode == RngMode::word ? "word" : "per-node") +
                 " | seed " + std::to_string(c.seed));
    EXPECT_EQ(run_large_clique(topo, c.problem, c.adversary, c.rng_mode,
                               c.max_rounds, c.seed),
              c.expected);
  }
}

}  // namespace
}  // namespace dualcast
