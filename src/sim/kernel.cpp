#include "sim/kernel.hpp"

#include "util/assert.hpp"

namespace dualcast {
namespace {

/// The compatibility adapter: n scalar processes behind the batch
/// interface. Runs the per-node loops of the scalar model — every process
/// acts and receives its feedback every round — so any Process runs on the
/// engine (with no batch speedup; port hot algorithms to a real kernel for
/// that), and the built-in kernels are held to its runs over their scalar
/// references draw for draw.
class ScalarKernelAdapter final : public AlgorithmKernel {
 public:
  explicit ScalarKernelAdapter(ProcessFactory factory)
      : factory_(std::move(factory)) {
    DC_EXPECTS(factory_ != nullptr);
  }

  void init(const KernelSetup& setup, std::span<Rng> rngs) override {
    const int n = setup.net->n();
    processes_.reserve(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) {
      const ProcessEnv env = setup.env(v);
      auto proc = factory_(env);
      DC_EXPECTS_MSG(proc != nullptr, "process factory returned null");
      proc->init(env, rngs[static_cast<std::size_t>(v)]);
      processes_.push_back(std::move(proc));
    }
    feedback_.resize(static_cast<std::size_t>(n));
  }

  void on_round_batch(int round, TxBatch& out, std::span<Rng> rngs) override {
    const int n = static_cast<int>(processes_.size());
    for (int v = 0; v < n; ++v) {
      Action action = processes_[static_cast<std::size_t>(v)]->on_round(
          round, rngs[static_cast<std::size_t>(v)]);
      if (action.transmit) out.transmit(v, std::move(action.message));
    }
  }

  void on_feedback_batch(const FeedbackView& fb,
                         std::span<Rng> rngs) override {
    const int n = static_cast<int>(processes_.size());
    for (int v = 0; v < n; ++v) {
      RoundFeedback& f = feedback_[static_cast<std::size_t>(v)];
      f.transmitted = fb.tx_index_of[static_cast<std::size_t>(v)] >= 0;
      f.received.reset();
      f.sender = -1;
      f.collision = false;
    }
    for_each_delivery(fb, [&](const Delivery& d) {
      RoundFeedback& f = feedback_[static_cast<std::size_t>(d.receiver)];
      f.received = fb.sent[static_cast<std::size_t>(d.transmitter_index)];
      f.sender = d.sender;
    });
    for (const int u : fb.colliders) {
      feedback_[static_cast<std::size_t>(u)].collision = true;
    }
    for (int v = 0; v < n; ++v) {
      processes_[static_cast<std::size_t>(v)]->on_feedback(
          fb.round, feedback_[static_cast<std::size_t>(v)],
          rngs[static_cast<std::size_t>(v)]);
    }
  }

  bool has_message(int v) const override {
    return processes_[static_cast<std::size_t>(v)]->has_message();
  }

  double transmit_probability(int v, int round) const override {
    const auto* inspectable = dynamic_cast<const InspectableProcess*>(
        processes_[static_cast<std::size_t>(v)].get());
    DC_EXPECTS_MSG(inspectable != nullptr,
                   "adaptive adversaries require InspectableProcess "
                   "algorithms");
    return inspectable->transmit_probability(round);
  }

  const std::vector<std::unique_ptr<Process>>* processes() const override {
    return &processes_;
  }

 private:
  ProcessFactory factory_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<RoundFeedback> feedback_;
};

}  // namespace

std::unique_ptr<AlgorithmKernel> make_scalar_kernel_adapter(
    ProcessFactory factory) {
  return std::make_unique<ScalarKernelAdapter>(std::move(factory));
}

}  // namespace dualcast
