// Problem semantics: role assignment, receiver-set computation, and the two
// local-broadcast crediting modes.

#include <gtest/gtest.h>

#include <algorithm>

#include "adversary/static_adversaries.hpp"
#include "graph/generators.hpp"
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

}  // namespace
}  // namespace dualcast
