#include "adversary/bracelet_presim.hpp"

#include <memory>

#include "adversary/static_adversaries.hpp"
#include "sim/kernel_execution.hpp"
#include "sim/problem.hpp"
#include "util/assert.hpp"
#include "util/mathutil.hpp"

namespace dualcast {

BraceletPresimOblivious::BraceletPresimOblivious(const BraceletNet& bracelet,
                                                 KernelFactory algorithm,
                                                 BraceletPresimConfig config)
    : bracelet_(&bracelet), algorithm_(std::move(algorithm)), config_(config) {
  DC_EXPECTS(algorithm_ != nullptr);
  DC_EXPECTS(config.threshold_factor > 0.0);
}

void BraceletPresimOblivious::on_execution_start(const ExecutionSetup& setup,
                                                 Rng& rng) {
  DC_EXPECTS_MSG(setup.net == &bracelet_->net,
                 "adversary must be constructed for the execution's network");
  const int k = bracelet_->band_len;
  const int n = setup.net->n();
  counts_.assign(static_cast<std::size_t>(k), 0);

  // Isolated per-band simulation (the Lemma 4.4 construction): run each band
  // as a standalone reliable line with the processes' *original* identities,
  // using fresh coins from the adversary's private stream — one evaluation of
  // each isolated broadcast function on a random support sequence. Every
  // band runs on the same line network and role-free problem; only the
  // identity map differs. The prediction reads each round as it ends, so
  // the sub-simulations keep lean history.
  const DualGraph band_net = DualGraph::protocol(line_graph(k));
  const auto band_problem =
      std::make_shared<AssignmentProblem>(k, -1, std::vector<int>{});
  for (const auto& band : bracelet_->bands) {
    ExecutionConfig sub_cfg;
    sub_cfg.seed = rng.next_u64();
    sub_cfg.max_rounds = k;
    sub_cfg.history_policy = HistoryPolicy::lean;
    sub_cfg.env_override = [&, this](ProcessEnv env) {
      const int global_id = band[static_cast<std::size_t>(env.id)];
      ProcessEnv out;
      out.id = global_id;
      out.n = n;
      out.max_degree = setup.net->max_degree();
      out.is_global_source = setup.problem->is_source(global_id);
      out.in_broadcast_set = setup.problem->in_broadcast_set(global_id);
      out.initial_message = setup.problem->initial_message(global_id);
      return out;
    };

    KernelExecution sub(band_net, algorithm_(), band_problem,
                        std::make_unique<NoExtraEdges>(), std::move(sub_cfg));
    while (!sub.done()) {
      sub.step();
      // Band heads occupy local id 0; transmitters are ascending.
      const auto& tx = sub.history().last().transmitters;
      if (!tx.empty() && tx.front() == 0) {
        ++counts_[static_cast<std::size_t>(sub.round() - 1)];
      }
    }
  }

  const double threshold =
      config_.threshold_factor *
      static_cast<double>(clog2(static_cast<std::uint64_t>(n > 1 ? n : 2)));
  dense_.assign(static_cast<std::size_t>(k), 0);
  for (int r = 0; r < k; ++r) {
    dense_[static_cast<std::size_t>(r)] =
        static_cast<double>(counts_[static_cast<std::size_t>(r)]) > threshold
            ? 1
            : 0;
  }
}

void BraceletPresimOblivious::choose_oblivious(int round, Rng& /*rng*/,
                                               EdgeSet& out) {
  const bool dense = round < static_cast<int>(dense_.size())
                         ? dense_[static_cast<std::size_t>(round)] != 0
                         : !config_.fallback_none;
  if (dense) {
    out.set_all();
  } else {
    out.set_none();
  }
}

}  // namespace dualcast
