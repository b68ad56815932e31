// Leader election over unreliable radio links — the second "future work"
// problem in the paper's conclusion, built *on top of* the library's public
// API to show how a downstream user writes a new algorithm.
//
// Protocol (minimum-id election by repeated permuted-decay flooding):
//   * every node draws a random 64-bit identity and starts as a candidate
//     believing in itself;
//   * time is divided into epochs of gamma * clog2(n) rounds; within an
//     epoch a node transmits its current belief with the permuted-decay
//     ladder probabilities derived from *private* random bits (schedule
//     unpredictability against oblivious link processes; the graphs here are
//     bounded-degree, where uncoordinated permutation is safe);
//   * on hearing a smaller identity, a node adopts it (and keeps relaying);
//   * after `epochs` epochs everyone announces their belief; election
//     succeeds if all beliefs agree (they converge to the global minimum).
//
// The example runs the protocol on a geographic network under the oblivious
// adversary suite and reports convergence time and agreement.

#include <algorithm>
#include <iostream>
#include <memory>
#include <set>

#include "analysis/table.hpp"
#include "core/decay_schedule.hpp"
#include "scenario/registries.hpp"
#include "sim/kernel_execution.hpp"
#include "util/mathutil.hpp"

namespace {

using namespace dualcast;

class MinIdElection final : public InspectableProcess {
 public:
  void init(const ProcessEnv& env, Rng& rng) override {
    Process::init(env, rng);
    ladder_ = clog2(static_cast<std::uint64_t>(env.n > 1 ? env.n : 2));
    identity_ = rng.next_u64();
    belief_ = identity_;
    const int width = schedule_chunk_width(ladder_);
    bits_ = BitString::random(rng, static_cast<std::size_t>(64 * ladder_ *
                                                            width));
  }

  Action on_round(int round, Rng& rng) override {
    const int i = permuted_decay_index(bits_, round, ladder_);
    if (rng.coin_pow2(i)) {
      Message m;
      m.kind = MessageKind::data;
      m.source = env_.id;
      m.payload = belief_;
      return Action::send(m);
    }
    return Action::listen();
  }

  void on_feedback(int /*round*/, const RoundFeedback& feedback,
                   Rng& /*rng*/) override {
    if (feedback.received.has_value() &&
        feedback.received->payload < belief_) {
      belief_ = feedback.received->payload;
      last_change_ = true;
    }
  }

  double transmit_probability(int round) const override {
    return pow2_neg(permuted_decay_index(bits_, round, ladder_));
  }

  std::uint64_t identity() const { return identity_; }
  std::uint64_t belief() const { return belief_; }
  bool take_change_flag() {
    const bool changed = last_change_;
    last_change_ = false;
    return changed;
  }

 private:
  int ladder_ = 0;
  std::uint64_t identity_ = 0;
  std::uint64_t belief_ = 0;
  bool last_change_ = false;
  BitString bits_;
};

}  // namespace

int main() {
  using namespace dualcast;
  namespace sc = dualcast::scenario;

  // Registering the custom algorithm is the whole integration surface:
  // after these few lines "min_id_election" works anywhere a built-in
  // algorithm name does — in ScenarioSpec columns, in the dualcast_bench
  // CLI, and below.
  // A Process runs on the engine through the scalar adapter, which keeps
  // the n process objects readable (KernelExecution::process, below).
  sc::algorithms().add(
      "min_id_election", "minimum-id election by permuted-decay flooding",
      [](const sc::SpecArgs&) {
        return KernelFactory([] {
          return make_scalar_kernel_adapter([](const ProcessEnv&) {
            return std::make_unique<MinIdElection>();
          });
        });
      });

  const sc::Topology geo =
      sc::topologies().build("jgrid(10,10,0.6,0.05,2.0)", /*seed=*/777);
  std::cout << "electing a leader among " << geo.n()
            << " radios (geographic network, diameter "
            << geo.net().g().diameter() << ")\n\n";

  const std::vector<const char*> conditions{"none", "iid(0.5)",
                                            "flicker(1,7)"};

  Table table({"link weather", "agreed", "convergence round",
               "distinct beliefs at end"});
  for (const char* weather : conditions) {
    const KernelFactory election = sc::algorithms().build("min_id_election");
    KernelExecution exec(geo.net(), election(),
                         sc::problems().build("assignment", geo)(),
                         sc::adversaries().build(weather, geo, election)(),
                         ExecutionConfig{}.with_seed(5).with_max_rounds(4000));

    int last_change_round = 0;
    while (!exec.done()) {
      exec.step();
      for (int v = 0; v < geo.n(); ++v) {
        auto* proc = dynamic_cast<MinIdElection*>(
            const_cast<Process*>(&exec.process(v)));
        if (proc->take_change_flag()) last_change_round = exec.round();
      }
    }

    std::set<std::uint64_t> beliefs;
    std::uint64_t min_identity = ~std::uint64_t{0};
    for (int v = 0; v < geo.n(); ++v) {
      const auto* proc = dynamic_cast<const MinIdElection*>(&exec.process(v));
      beliefs.insert(proc->belief());
      min_identity = std::min(min_identity, proc->identity());
    }
    const bool agreed = beliefs.size() == 1 && *beliefs.begin() == min_identity;
    table.add_row({weather, agreed ? "yes" : "NO", cell(last_change_round),
                   cell(static_cast<int>(beliefs.size()))});
  }
  table.print(std::cout);
  std::cout << "\nThe election is local broadcast iterated to a fixpoint: the "
               "paper's oblivious-model machinery (private permuted "
               "schedules) is what keeps convergence near the D·polylog "
               "optimum under every weather pattern.\n";
  return 0;
}
