// Problem semantics: role assignment, receiver-set computation, the two
// local-broadcast crediting modes, role lists, and the built-in factories'
// copies.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "adversary/static_adversaries.hpp"
#include "core/factories.hpp"
#include "core/gossip.hpp"
#include "core/kernels.hpp"
#include "graph/generators.hpp"
#include "scenario/registries.hpp"
#include "sim/kernel_execution.hpp"
#include "test_support.hpp"
#include "util/assert.hpp"

namespace dualcast {
namespace {

using testing::scripted_factory;

TEST(GlobalProblem, AssignsSourceRole) {
  const DualGraph net = DualGraph::protocol(line_graph(4));
  const GlobalBroadcastProblem problem(net, 2);
  EXPECT_TRUE(problem.is_source(2));
  EXPECT_FALSE(problem.is_source(0));
  EXPECT_FALSE(problem.in_broadcast_set(2));
  EXPECT_EQ(problem.initial_message(2).source, 2);
  EXPECT_EQ(problem.initial_message(0).source, -1);
}

TEST(GlobalProblem, RequiresConnectedG) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.finalize();
  Graph gp = complete_graph(4);
  const DualGraph net(std::move(g), std::move(gp));
  EXPECT_THROW(GlobalBroadcastProblem(net, 0), ContractViolation);
}

TEST(GlobalProblem, RequiresValidSource) {
  const DualGraph net = DualGraph::protocol(line_graph(4));
  EXPECT_THROW(GlobalBroadcastProblem(net, 4), ContractViolation);
  EXPECT_THROW(GlobalBroadcastProblem(net, -1), ContractViolation);
}

TEST(LocalProblem, ReceiverSetIsGNeighborhoodOfB) {
  // Line 0-1-2-3-4 with B = {0, 3}: R = N_G(B) = {1, 2, 4} plus any B nodes
  // adjacent to B (none here).
  const DualGraph net = DualGraph::protocol(line_graph(5));
  const LocalBroadcastProblem problem(net, {0, 3});
  std::vector<int> r = problem.receivers();
  std::sort(r.begin(), r.end());
  EXPECT_EQ(r, (std::vector<int>{1, 2, 4}));
}

TEST(LocalProblem, AdjacentBNodesAreAlsoReceivers) {
  // B = {1, 2} adjacent in the line: each is in the other's R.
  const DualGraph net = DualGraph::protocol(line_graph(4));
  const LocalBroadcastProblem problem(net, {1, 2});
  std::vector<int> r = problem.receivers();
  std::sort(r.begin(), r.end());
  EXPECT_EQ(r, (std::vector<int>{0, 1, 2, 3}));
}

TEST(LocalProblem, RejectsBadBroadcastSets) {
  const DualGraph net = DualGraph::protocol(line_graph(4));
  EXPECT_THROW(LocalBroadcastProblem(net, {}), ContractViolation);
  EXPECT_THROW(LocalBroadcastProblem(net, {0, 0}), ContractViolation);
  EXPECT_THROW(LocalBroadcastProblem(net, {4}), ContractViolation);
}

TEST(LocalProblem, SolvedWhenAllReceiversCredited) {
  // Line 0-1-2, B = {0}: R = {1}. One clean transmission solves it.
  const DualGraph net = DualGraph::protocol(line_graph(3));
  auto problem = std::make_shared<LocalBroadcastProblem>(
      net, std::vector<int>{0});
  KernelExecution exec(net, scripted_factory({{1}, {0}, {0}}), problem,
                       std::make_unique<NoExtraEdges>(), {1, 5, {}});
  const RunResult result = exec.run();
  EXPECT_TRUE(result.solved);
  EXPECT_EQ(result.rounds, 1);
  EXPECT_EQ(problem->satisfied_count(), 1);
  EXPECT_TRUE(problem->unsatisfied().empty());
}

TEST(LocalProblem, NonBSendersDoNotCount) {
  // B = {0} on line 0-1-2. Node 2 transmits (it is not in B): node 1 hears
  // it, but that must not satisfy node 1.
  const DualGraph net = DualGraph::protocol(line_graph(3));
  auto problem = std::make_shared<LocalBroadcastProblem>(
      net, std::vector<int>{0});
  KernelExecution exec(net, scripted_factory({{0}, {0}, {1}}), problem,
                       std::make_unique<NoExtraEdges>(), {1, 1, {}});
  const RunResult result = exec.run();
  EXPECT_FALSE(result.solved);
  EXPECT_EQ(problem->satisfied_count(), 0);
}

TEST(LocalProblem, LiberalCreditAcceptsGPrimeDelivery) {
  // G: line 0-1-2 and an isolated-ish node 3 connected via G edge to 2;
  // G' adds (0, 3). B = {0, 2}: R includes 3 (G-neighbor of 2). A delivery
  // from 0 (in B) over the activated G' edge credits 3 under the liberal
  // (paper) reading.
  Graph g = line_graph(4);
  Graph gp = g;
  gp.add_edge(0, 3);
  gp.finalize();
  const DualGraph net(std::move(g), std::move(gp));
  auto problem = std::make_shared<LocalBroadcastProblem>(
      net, std::vector<int>{0, 2}, ReceiverCredit::any_b_sender);
  // Only node 0 transmits; chord (0,3) active.
  KernelExecution exec(net, scripted_factory({{1}, {0}, {0}, {0}}), problem,
                       std::make_unique<AllExtraEdges>(), {1, 1, {}});
  exec.run();
  const auto unsat = problem->unsatisfied();
  EXPECT_EQ(std::count(unsat.begin(), unsat.end(), 3), 0)
      << "3 should be credited by 0's delivery over G'";
}

TEST(LocalProblem, StrictCreditRequiresGNeighborSender) {
  Graph g = line_graph(4);
  Graph gp = g;
  gp.add_edge(0, 3);
  gp.finalize();
  const DualGraph net(std::move(g), std::move(gp));
  auto problem = std::make_shared<LocalBroadcastProblem>(
      net, std::vector<int>{0, 2}, ReceiverCredit::g_neighbor_only);
  KernelExecution exec(net, scripted_factory({{1}, {0}, {0}, {0}}), problem,
                       std::make_unique<AllExtraEdges>(), {1, 1, {}});
  exec.run();
  const auto unsat = problem->unsatisfied();
  EXPECT_EQ(std::count(unsat.begin(), unsat.end(), 3), 1)
      << "0 is not a G-neighbor of 3; strict mode must not credit";
}

TEST(AssignmentProblem, NeverSolvedAndAllowsDisconnected) {
  const DualCliqueNet dc = dual_clique_without_bridge(8);
  auto problem = std::make_shared<AssignmentProblem>(
      8, 0, std::vector<int>{1, 2});
  EXPECT_TRUE(problem->is_source(0));
  EXPECT_TRUE(problem->in_broadcast_set(1));
  EXPECT_FALSE(problem->in_broadcast_set(0));
  KernelExecution exec(dc.net,
                       scripted_factory(std::vector<std::vector<char>>(8)),
                       problem, std::make_unique<NoExtraEdges>(), {1, 3, {}});
  const RunResult result = exec.run();
  EXPECT_FALSE(result.solved);
  EXPECT_EQ(result.rounds, 3);
}

TEST(ProblemRoles, RoleNodesMatchScan) {
  // Every problem spec the catalog uses, on the three network families its
  // scenarios run: a built-in's stored list must equal the base class's
  // three-query scan. gossip(k) with k > n repeats sources.
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases =
      {{"dual_clique(32)",
        {"global", "global(1)", "global(bridge_b)", "local(side_a)",
         "local(side_a,strict)", "local(every(3))", "gossip(4)", "gossip(48)",
         "assignment", "assignment(bridge_a)"}},
       {"line(20)",
        {"global", "global(0)", "local(every(3))", "local(first(5),strict)",
         "gossip(3)", "gossip(30)", "assignment(7)"}},
       {"bracelet(128)",
        {"global", "global(clasp_b)", "local(heads_a)",
         "local(heads_a,strict)", "local(every(4))", "gossip(5)",
         "gossip(200)", "assignment(clasp_a)"}}};
  for (const auto& [topology, specs] : cases) {
    const scenario::Topology topo = scenario::topologies().build(topology, 1);
    const int n = topo.n();
    for (const std::string& spec : specs) {
      SCOPED_TRACE(topology + " " + spec);
      const std::shared_ptr<Problem> p =
          scenario::problems().build(spec, topo)();
      const std::vector<int> roles = p->role_nodes(n);
      EXPECT_EQ(roles, p->Problem::role_nodes(n));
      EXPECT_TRUE(std::is_sorted(roles.begin(), roles.end()));
      EXPECT_EQ(std::adjacent_find(roles.begin(), roles.end()), roles.end());
    }
  }
}

TEST(ProblemRoles, DefaultIsTheThreeQueryScan) {
  // A problem that does not override role_nodes gets every node with a
  // source role, a broadcast-set role or an initial message, once each.
  class MarkedProblem final : public Problem {
   public:
    std::string name() const override { return "marked"; }
    bool is_source(int v) const override { return v == 3; }
    bool in_broadcast_set(int v) const override { return v == 1 || v == 3; }
    Message initial_message(int v) const override {
      Message m;
      if (v == 6) m.source = v;
      return m;
    }
    bool solved(const std::vector<std::unique_ptr<Process>>&) const override {
      return false;
    }
  };
  EXPECT_EQ(MarkedProblem().role_nodes(8), (std::vector<int>{1, 3, 6}));
  EXPECT_EQ(MarkedProblem().role_nodes(3), (std::vector<int>{1}));
}

TEST(ProblemRoles, EngineRejectsUnorderedRoleList) {
  // The kernels take roles in ascending node order; a problem whose list
  // breaks that fails at set-up instead of mis-seeding them.
  class UnorderedRoles final : public Problem {
   public:
    std::string name() const override { return "unordered"; }
    bool in_broadcast_set(int v) const override { return v == 1 || v == 3; }
    std::vector<int> role_nodes(int /*n*/) const override { return {3, 1}; }
    bool solved(const std::vector<std::unique_ptr<Process>>&) const override {
      return false;
    }
    bool batch_compatible() const override { return true; }
    bool solved_batch(const NodeStateView&) const override { return false; }
  };
  const DualGraph net = DualGraph::protocol(line_graph(4));
  const DecayLocalConfig config;
  EXPECT_THROW(KernelExecution(net, decay_local_factory(config),
                               decay_local_kernel_factory(config)(),
                               std::make_shared<UnorderedRoles>(),
                               std::make_unique<NoExtraEdges>(), {1, 5, {}}),
               ContractViolation);
}

TEST(ProblemFactory, CopiesShareNoState) {
  // The built-in factories build once and copy: a copy that observes a
  // satisfying round must leave the next copy unsatisfied, with R intact.
  const scenario::Topology topo = scenario::topologies().build("line(3)", 1);
  const scenario::ProblemFactory local =
      scenario::problems().build("local(first(1))", topo);
  const auto solve = [&](std::shared_ptr<Problem> problem) {
    KernelExecution exec(topo.net(), scripted_factory({{1}, {0}, {0}}),
                         std::move(problem), std::make_unique<NoExtraEdges>(),
                         {1, 5, {}});
    return exec.run();
  };
  const auto first =
      std::dynamic_pointer_cast<LocalBroadcastProblem>(local());
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(solve(first).solved);
  EXPECT_EQ(first->satisfied_count(), 1);
  const auto next = std::dynamic_pointer_cast<LocalBroadcastProblem>(local());
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->satisfied_count(), 0);
  EXPECT_EQ(next->receivers(), (std::vector<int>{1}));
  EXPECT_EQ(next->unsatisfied(), (std::vector<int>{1}));
  EXPECT_EQ(first->satisfied_count(), 1);

  // Gossip's known-token table likewise.
  const scenario::ProblemFactory gossip =
      scenario::problems().build("gossip(1)", topo);
  const auto token = std::dynamic_pointer_cast<GossipProblem>(gossip());
  ASSERT_NE(token, nullptr);
  EXPECT_EQ(token->missing(), 2);
  solve(token);
  EXPECT_FALSE(token->knows(2, 0)) << "node 2 is out of node 0's reach";
  EXPECT_EQ(token->missing(), 1);
  const auto fresh = std::dynamic_pointer_cast<GossipProblem>(gossip());
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->missing(), 2);
  EXPECT_FALSE(fresh->knows(1, 0));
}

TEST(ProblemFactory, InvalidProblemThrowsOnEveryCall) {
  // G disconnected: the factory builds nothing, so the second call (the
  // next trial) throws as the first did.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.finalize();
  scenario::Topology topo;
  topo.net_holder =
      std::make_shared<DualGraph>(std::move(g), complete_graph(4));
  const scenario::ProblemFactory global =
      scenario::problems().build("global", topo);
  EXPECT_THROW(global(), ContractViolation);
  EXPECT_THROW(global(), ContractViolation);
}

}  // namespace
}  // namespace dualcast
