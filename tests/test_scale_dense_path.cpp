// The large-n acceptance surface of the sweep on explicit networks: at
// n = 16384 a jgrid+iid scenario, resolved on the auto path, must run
// start-to-solve within its round budget and end on the LayerView sweep
// (an explicit network has no other path).

#include <gtest/gtest.h>

#include "scenario/registries.hpp"
#include "sim/kernel_execution.hpp"

namespace dualcast {
namespace {

using scenario::Topology;

KernelExecution make_exec(const Topology& topo, int max_rounds) {
  const ProcessFactory factory =
      scenario::algorithms().build("decay_local");
  const KernelFactory kernel = scenario::build_kernel_or_null("decay_local");
  std::shared_ptr<Problem> problem =
      scenario::problems().build("local(every(3))", topo)();
  std::unique_ptr<AlgorithmKernel> k =
      scenario::select_kernel(kernel, *problem, factory);
  return KernelExecution(topo.net(), factory, std::move(k),
                         std::move(problem),
                         scenario::adversaries().build("iid(0.3)", topo)(),
                         ExecutionConfig{}
                             .with_seed(11)
                             .with_max_rounds(max_rounds)
                             .with_history_policy(HistoryPolicy::lean));
}

TEST(ScaleDensePath, JgridAt16kSolvesOnTheSweep) {
  // The scale/jgrid-iid point at side 128: n = 16384.
  const Topology topo =
      scenario::topologies().build("jgrid(128,128,0.5,0.05,2.0)", 3);
  ASSERT_EQ(topo.n(), 16384);
  ASSERT_FALSE(topo.net().is_implicit());

  const int budget = 4000;
  KernelExecution exec = make_exec(topo, budget);
  const RunResult result = exec.run();
  EXPECT_TRUE(result.solved) << "censored at " << budget;
  EXPECT_EQ(exec.resolver().last_path(), DeliveryResolver::Path::sweep);
}

}  // namespace
}  // namespace dualcast
