// Scenario subsystem: spec parsing and the string-keyed registries —
// register -> lookup -> parse-with-params -> instantiate round trips, plus
// the unknown-name and bad-parameter error paths.

#include <gtest/gtest.h>

#include "reference/factories.hpp"
#include "scenario/registries.hpp"
#include "scenario/scenario.hpp"
#include "sim/kernel_execution.hpp"

namespace dualcast::scenario {
namespace {

// ---------------------------------------------------------------------------
// parse_call
// ---------------------------------------------------------------------------

TEST(SpecParse, BareName) {
  const SpecCall call = parse_call("none");
  EXPECT_EQ(call.name, "none");
  EXPECT_TRUE(call.args.empty());
}

TEST(SpecParse, SimpleArgs) {
  const SpecCall call = parse_call("iid(0.5)");
  EXPECT_EQ(call.name, "iid");
  ASSERT_EQ(call.args.size(), 1u);
  EXPECT_EQ(call.args[0], "0.5");
}

TEST(SpecParse, MultipleArgsWithSpaces) {
  const SpecCall call = parse_call("jgrid(12, 12, 0.6, 0.05, 2.0)");
  EXPECT_EQ(call.name, "jgrid");
  ASSERT_EQ(call.args.size(), 5u);
  EXPECT_EQ(call.args[1], "12");
  EXPECT_EQ(call.args[3], "0.05");
}

TEST(SpecParse, NestedCallStaysOneArg) {
  const SpecCall call = parse_call("local(every(3),strict)");
  EXPECT_EQ(call.name, "local");
  ASSERT_EQ(call.args.size(), 2u);
  EXPECT_EQ(call.args[0], "every(3)");
  EXPECT_EQ(call.args[1], "strict");
}

TEST(SpecParse, EmptyArgListIsZeroArgs) {
  const SpecCall call = parse_call("gossip()");
  EXPECT_EQ(call.name, "gossip");
  EXPECT_TRUE(call.args.empty());
}

TEST(SpecParse, Malformed) {
  EXPECT_THROW(parse_call(""), ScenarioError);
  EXPECT_THROW(parse_call("iid(0.5"), ScenarioError);
  EXPECT_THROW(parse_call("iid)0.5("), ScenarioError);
  EXPECT_THROW(parse_call("iid(0.5))"), ScenarioError);
  EXPECT_THROW(parse_call("iid(a,,b)"), ScenarioError);
  EXPECT_THROW(parse_call("(0.5)"), ScenarioError);
}

TEST(SpecParse, TypedAccessors) {
  const SpecCall call = parse_call("f(3,2.5,word)");
  const SpecArgs args(call);
  EXPECT_EQ(args.int_at(0), 3);
  EXPECT_DOUBLE_EQ(args.double_at(1), 2.5);
  EXPECT_EQ(args.str_at(2), "word");
  EXPECT_EQ(args.int_or(5, 7), 7);
  EXPECT_THROW(args.int_at(2), ScenarioError);   // "word" is not an int
  EXPECT_THROW(args.double_at(2), ScenarioError);
  EXPECT_THROW(args.str_at(3), ScenarioError);   // out of range
  EXPECT_THROW(args.expect_count(0, 2), ScenarioError);
}

TEST(SpecParse, SubstituteX) {
  EXPECT_EQ(substitute_x("dual_clique({x})", 256), "dual_clique(256)");
  EXPECT_EQ(substitute_x("jgrid(12,12,{x},0.04,2.0)", 0.35),
            "jgrid(12,12,0.35,0.04,2.0)");
  EXPECT_EQ(substitute_x("a{x}b{x}", 2), "a2b2");
  EXPECT_EQ(substitute_x("no placeholder", 9), "no placeholder");
}

TEST(SpecParse, ResolveRounds) {
  const std::map<std::string, double> vars{
      {"x", 16}, {"n", 128}, {"band_len", 12}};
  EXPECT_EQ(resolve_rounds("300*n", vars), 38400);
  EXPECT_EQ(resolve_rounds("3000*x+20000", vars), 68000);
  EXPECT_EQ(resolve_rounds("200*band_len", vars), 2400);
  EXPECT_EQ(resolve_rounds("2097152", vars), 2097152);
  EXPECT_EQ(resolve_rounds("n", vars), 128);
  EXPECT_THROW(resolve_rounds("300*q", vars), ScenarioError);
  EXPECT_THROW(resolve_rounds("", vars), ScenarioError);
}

// ---------------------------------------------------------------------------
// Registries: round trips
// ---------------------------------------------------------------------------

TEST(Registries, TopologyRoundTrip) {
  const Topology topo = topologies().build("dual_clique(64)", 1);
  EXPECT_EQ(topo.n(), 64);
  EXPECT_EQ(topo.node_set("side_a").size(), 32u);
  EXPECT_EQ(topo.mark("bridge_a"), topo.node_set("side_a")[16]);
  ASSERT_NE(topo.dual_clique, nullptr);
  // The execution-facing net is the construction's net, not a copy.
  EXPECT_EQ(&topo.net(), &topo.dual_clique->net);
}

TEST(Registries, BraceletMetadata) {
  const Topology topo = topologies().build("bracelet(128)", 1);
  EXPECT_EQ(topo.mark("band_len"), 8);
  EXPECT_EQ(topo.node_set("heads_a").size(), 8u);
  ASSERT_NE(topo.bracelet, nullptr);
}

TEST(Registries, AlgorithmAndAdversaryInstantiate) {
  const Topology topo = topologies().build("dual_clique(32)", 1);
  const KernelFactory algorithm =
      algorithms().build("decay_global(permuted,persistent)");
  const LinkProcessFactory adversary =
      adversaries().build("iid(0.5)", topo, algorithm);
  const ProblemFactory problem = problems().build("global(1)", topo);
  // Everything pluggable into a real execution.
  KernelExecution exec(topo.net(), algorithm(), problem(), adversary(),
                       ExecutionConfig{}.with_seed(3).with_max_rounds(5000));
  const RunResult result = exec.run();
  EXPECT_TRUE(result.solved);
}

TEST(Registries, ProblemFactoryMakesFreshInstances) {
  const Topology topo = topologies().build("dual_clique(16)", 1);
  const ProblemFactory problem = problems().build("local(side_a)", topo);
  const auto a = problem();
  const auto b = problem();
  EXPECT_NE(a.get(), b.get());
}

TEST(Registries, NodeSetSpecs) {
  const Topology topo = topologies().build("dual_clique(16)", 1);
  const ProblemFactory every = problems().build("local(every(4))", topo);
  const auto p = std::dynamic_pointer_cast<LocalBroadcastProblem>(every());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->broadcast_set(), (std::vector<int>{0, 4, 8, 12}));
}

TEST(Registries, CustomRegistrationRoundTrip) {
  auto& registry = algorithms();
  ASSERT_FALSE(registry.contains("test_only_algo"));
  registry.add("test_only_algo", "round robin's reference as a Process",
               [](const SpecArgs& args) {
                 args.expect_count(0, 0);
                 return adapter_factory(
                     round_robin_factory(RoundRobinConfig{true}));
               });
  EXPECT_TRUE(registry.contains("test_only_algo"));
  const KernelFactory algorithm = registry.build("test_only_algo");
  ASSERT_NE(algorithm, nullptr);
  EXPECT_NE(algorithm()->processes(), nullptr);
  // Duplicate registration is an error.
  EXPECT_THROW(registry.add("test_only_algo", "", nullptr), ScenarioError);
}

// ---------------------------------------------------------------------------
// Error paths
// ---------------------------------------------------------------------------

TEST(Registries, UnknownNames) {
  const Topology topo = topologies().build("dual_clique(16)", 1);
  EXPECT_THROW(topologies().build("no_such_topology(8)", 1), ScenarioError);
  EXPECT_THROW(algorithms().build("no_such_algorithm"), ScenarioError);
  EXPECT_THROW(adversaries().build("no_such_adversary", topo, {}),
               ScenarioError);
  EXPECT_THROW(problems().build("no_such_problem", topo), ScenarioError);
}

TEST(Registries, BadParameters) {
  const Topology topo = topologies().build("dual_clique(16)", 1);
  EXPECT_THROW(adversaries().build("iid", topo, {}), ScenarioError);  // no p
  EXPECT_THROW(adversaries().build("iid(abc)", topo, {}), ScenarioError);
  EXPECT_THROW(adversaries().build("flicker(3)", topo, {}), ScenarioError);
  EXPECT_THROW(algorithms().build("decay_global(bogus)"), ScenarioError);
  EXPECT_THROW(algorithms().build("round_robin(sideways)"), ScenarioError);
  EXPECT_THROW(topologies().build("dual_clique()", 1), ScenarioError);
  EXPECT_THROW(problems().build("local(no_such_set)", topo), ScenarioError);
  EXPECT_THROW(problems().build("global(no_such_mark)", topo), ScenarioError);
}

TEST(Registries, ConstructionAwareAdversaryRequiresItsTopology) {
  const KernelFactory algorithm = algorithms().build("decay_local");
  const Topology clique = topologies().build("dual_clique(16)", 1);
  EXPECT_THROW(adversaries().build("bracelet_presim", clique, algorithm),
               ScenarioError);
  const Topology br = topologies().build("bracelet(128)", 1);
  EXPECT_NO_THROW(adversaries().build("bracelet_presim", br, algorithm));
}

}  // namespace
}  // namespace dualcast::scenario
