// Mask-native EdgeSet: an adversary that selects edges through the
// EdgeSet::some() index-vector compatibility constructor and one that
// writes mask words directly must produce byte-identical executions, in
// every adversary class; the i.i.d. adversary's mask output must match an
// index-vector reimplementation of its exact sampling loop; and implicit
// dual cliques must replay explicit ones bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "adversary/static_adversaries.hpp"
#include "graph/generators.hpp"
#include "sim/kernel_execution.hpp"
#include "test_support.hpp"

namespace dualcast {
namespace {

using testing::scripted_factory;

/// Deterministic per-round index selection over `m` edges (shared by the
/// index-style and mask-style adversaries below so their choices agree).
std::vector<std::int32_t> pick_indices(int round, std::int64_t m, int salt) {
  std::vector<std::int32_t> out;
  for (std::int64_t e = 0; e < m; ++e) {
    if ((e + round + salt) % 3 == 0) out.push_back(static_cast<std::int32_t>(e));
  }
  return out;
}

/// One adversary per (class, style): style 0 routes through
/// EdgeSet::some(), style 1 fills the mask in place.
class StyledAdversary final : public LinkProcess {
 public:
  StyledAdversary(AdversaryClass cls, bool mask_style)
      : cls_(cls), mask_style_(mask_style) {}

  AdversaryClass adversary_class() const override { return cls_; }
  bool needs_history() const override { return false; }

  void on_execution_start(const ExecutionSetup& setup, Rng& /*rng*/) override {
    m_ = setup.net->gp_only_edge_count();
  }

  void choose_oblivious(int round, Rng& /*rng*/, EdgeSet& out) override {
    fill(round, /*salt=*/0, out);
  }
  void choose_online(int round, const ExecutionHistory& /*history*/,
                     const StateInspector& /*inspector*/, Rng& /*rng*/,
                     EdgeSet& out) override {
    fill(round, /*salt=*/1, out);
  }
  void choose_offline(int round, const ExecutionHistory& /*history*/,
                      const StateInspector& /*inspector*/,
                      const RoundActions& actions, Rng& /*rng*/,
                      EdgeSet& out) override {
    fill(round, /*salt=*/static_cast<int>(actions.transmitters->size()), out);
  }

 private:
  void fill(int round, int salt, EdgeSet& out) {
    const std::vector<std::int32_t> indices = pick_indices(round, m_, salt);
    if (mask_style_) {
      out.begin_mask(m_);
      for (const std::int32_t idx : indices) out.set_bit(idx);
      out.finish_mask();
    } else {
      out = EdgeSet::some(indices);
    }
  }

  AdversaryClass cls_;
  bool mask_style_;
  std::int64_t m_ = 0;
};

/// The masks may differ in trailing zero words (some() sizes to the highest
/// set bit, begin_mask to the full edge space); everything else must be
/// exactly equal.
void expect_records_identical(const ExecutionHistory& a,
                              const ExecutionHistory& b) {
  ASSERT_EQ(a.rounds(), b.rounds());
  const auto canonical_mask = [](const RoundRecord& rec) {
    std::vector<std::uint64_t> words = rec.activated_mask;
    while (!words.empty() && words.back() == 0) words.pop_back();
    return words;
  };
  for (int r = 0; r < a.rounds(); ++r) {
    const RoundRecord& ra = a.round(r);
    const RoundRecord& rb = b.round(r);
    ASSERT_EQ(ra.transmitters, rb.transmitters) << "round " << r;
    ASSERT_EQ(ra.activated, rb.activated) << "round " << r;
    ASSERT_EQ(ra.activated_count, rb.activated_count) << "round " << r;
    ASSERT_EQ(canonical_mask(ra), canonical_mask(rb)) << "round " << r;
    // One network may record a run where the other lists each receiver;
    // expanded, the two sequences must match entry for entry.
    const std::vector<Delivery> da = testing::all_deliveries(ra);
    const std::vector<Delivery> db = testing::all_deliveries(rb);
    ASSERT_EQ(da.size(), db.size()) << "round " << r;
    for (std::size_t d = 0; d < da.size(); ++d) {
      ASSERT_EQ(da[d].receiver, db[d].receiver);
      ASSERT_EQ(da[d].sender, db[d].sender);
      ASSERT_EQ(da[d].transmitter_index, db[d].transmitter_index);
    }
  }
}

DualGraph chordal_net(int n, std::uint64_t seed) {
  Rng rng(seed);
  Graph g(n);
  for (int v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  g.finalize();
  Graph gp = g;
  for (int e = 0; e < 3 * n; ++e) {
    const int u = static_cast<int>(rng.uniform_int(0, n - 1));
    const int v = static_cast<int>(rng.uniform_int(0, n - 1));
    if (u != v) gp.add_edge(u, v);
  }
  gp.finalize();
  Graph g2 = g;
  return DualGraph(std::move(g2), std::move(gp));
}

ExecutionHistory run_styled(const DualGraph& net, AdversaryClass cls,
                            bool mask_style) {
  std::vector<std::vector<char>> scripts(static_cast<std::size_t>(net.n()));
  Rng rng(17);
  for (auto& script : scripts) {
    script.resize(30);
    for (auto& bit : script) bit = rng.bernoulli(0.3) ? 1 : 0;
  }
  KernelExecution exec(
      net, scripted_factory(scripts),
      std::make_shared<AssignmentProblem>(net.n(), -1, std::vector<int>{}),
      std::make_unique<StyledAdversary>(cls, mask_style),
      ExecutionConfig{}.with_seed(23).with_max_rounds(30));
  exec.run();
  return exec.history();
}

TEST(EdgeMaskDifferential, MaskAndIndexStylesAreByteIdenticalPerClass) {
  const DualGraph net = chordal_net(24, 11);
  ASSERT_GT(net.gp_only_edge_count(), 0);
  for (const AdversaryClass cls :
       {AdversaryClass::oblivious, AdversaryClass::online_adaptive,
        AdversaryClass::offline_adaptive}) {
    const ExecutionHistory via_indices = run_styled(net, cls, false);
    const ExecutionHistory via_mask = run_styled(net, cls, true);
    expect_records_identical(via_indices, via_mask);
    EXPECT_GT(via_indices.total_deliveries(), 0)
        << "vacuous differential for class " << to_string(cls);
  }
}

// ---------------------------------------------------------------------------
// The i.i.d. adversary: mask output == the old index expansion, draw for
// draw.
// ---------------------------------------------------------------------------

/// The pre-mask RandomIidEdges: identical word-parallel sampling loop, but
/// expanding the present words to an index vector (what the engine consumed
/// before masks). Kept here as the reference for the representation change.
class IndexIidEdges final : public LinkProcess {
 public:
  explicit IndexIidEdges(double p) : p_(p) {
    double frac = p;
    while (frac > 0.0 && frac < 1.0) {
      frac *= 2.0;
      const bool bit = frac >= 1.0;
      if (bit) frac -= 1.0;
      p_bits_.push_back(bit ? 1 : 0);
    }
  }
  AdversaryClass adversary_class() const override {
    return AdversaryClass::oblivious;
  }
  void on_execution_start(const ExecutionSetup& setup, Rng& /*rng*/) override {
    m_ = setup.net->gp_only_edge_count();
  }
  void choose_oblivious(int /*round*/, Rng& rng, EdgeSet& out) override {
    std::vector<std::int32_t> selected;
    for (std::int64_t base = 0; base < m_; base += 64) {
      const int lanes =
          static_cast<int>(std::min<std::int64_t>(64, m_ - base));
      std::uint64_t undecided =
          lanes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
      std::uint64_t present = 0;
      for (const std::uint8_t bit : p_bits_) {
        if (undecided == 0) break;
        const std::uint64_t r = rng.next_u64();
        if (bit) {
          present |= undecided & ~r;
          undecided &= r;
        } else {
          undecided &= ~r;
        }
      }
      while (present != 0) {
        const int j = std::countr_zero(present);
        selected.push_back(static_cast<std::int32_t>(base + j));
        present &= present - 1;
      }
    }
    out = EdgeSet::some(selected);
  }

 private:
  double p_;
  std::int64_t m_ = 0;
  std::vector<std::uint8_t> p_bits_;
};

TEST(EdgeMaskDifferential, IidMaskMatchesIndexExpansionByteForByte) {
  const DualGraph net = chordal_net(40, 29);
  std::vector<std::vector<char>> scripts(40);
  Rng rng(4);
  for (auto& script : scripts) {
    script.resize(40);
    for (auto& bit : script) bit = rng.bernoulli(0.3) ? 1 : 0;
  }
  const auto run = [&](std::unique_ptr<LinkProcess> adversary) {
    KernelExecution exec(
        net, scripted_factory(scripts),
        std::make_shared<AssignmentProblem>(40, -1, std::vector<int>{}),
        std::move(adversary),
        ExecutionConfig{}.with_seed(9).with_max_rounds(40));
    exec.run();
    return exec.history();
  };
  const ExecutionHistory mask_run =
      run(std::make_unique<RandomIidEdges>(0.35));
  const ExecutionHistory index_run =
      run(std::make_unique<IndexIidEdges>(0.35));
  expect_records_identical(index_run, mask_run);
}

TEST(EdgeMaskDifferential, IidEmptyRoundCollapsesToNone) {
  // p small enough that some rounds select nothing: those rounds must be
  // recorded as Kind::none (the empty-mask normalization), never as an
  // all-zero mask.
  const DualGraph net = chordal_net(12, 3);
  std::vector<std::vector<char>> scripts(12);
  for (auto& script : scripts) script.assign(60, 1);
  KernelExecution exec(
      net, scripted_factory(scripts),
      std::make_shared<AssignmentProblem>(12, -1, std::vector<int>{}),
      std::make_unique<RandomIidEdges>(0.01),
      ExecutionConfig{}.with_seed(2).with_max_rounds(60));
  exec.run();
  int none_rounds = 0;
  for (int r = 0; r < exec.history().rounds(); ++r) {
    const RoundRecord& rec = exec.history().round(r);
    if (rec.activated == EdgeSet::Kind::none) {
      EXPECT_TRUE(rec.activated_mask.empty());
      EXPECT_EQ(rec.activated_count, 0);
      ++none_rounds;
    } else {
      EXPECT_EQ(rec.activated, EdgeSet::Kind::mask);
      EXPECT_GT(rec.activated_count, 0);
    }
  }
  EXPECT_GT(none_rounds, 0) << "p=0.01 never produced an empty round";
}

// ---------------------------------------------------------------------------
// Implicit vs explicit dual clique: identical executions.
// ---------------------------------------------------------------------------

TEST(EdgeMaskDifferential, ImplicitDualCliqueReplaysExplicitByteForByte) {
  // Same network in both representations; same seed; every record equal —
  // the representation is invisible to the execution.
  const int n = 64;
  Graph g(n);
  for (int u = 0; u < n / 2; ++u) {
    for (int v = u + 1; v < n / 2; ++v) {
      g.add_edge(u, v);
      g.add_edge(n / 2 + u, n / 2 + v);
    }
  }
  g.add_edge(5, n / 2 + 5);
  g.finalize();
  const DualGraph expl(std::move(g), complete_graph(n));
  const DualGraph impl = DualGraph::implicit_dual_clique(n, 5);

  std::vector<std::vector<char>> scripts(static_cast<std::size_t>(n));
  Rng rng(31);
  for (auto& script : scripts) {
    script.resize(50);
    for (auto& bit : script) bit = rng.bernoulli(0.25) ? 1 : 0;
  }
  const auto run = [&](const DualGraph& net) {
    KernelExecution exec(
        net, scripted_factory(scripts),
        std::make_shared<AssignmentProblem>(n, -1, std::vector<int>{}),
        std::make_unique<RandomIidEdges>(0.2),
        ExecutionConfig{}.with_seed(13).with_max_rounds(50));
    exec.run();
    return exec.history();
  };
  const ExecutionHistory explicit_run = run(expl);
  const ExecutionHistory implicit_run = run(impl);
  expect_records_identical(explicit_run, implicit_run);
  EXPECT_GT(explicit_run.total_deliveries(), 0);
}

}  // namespace
}  // namespace dualcast
