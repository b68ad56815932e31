#include "sim/execution.hpp"

#include "util/assert.hpp"

namespace dualcast {

ProcessEnv node_env(const DualGraph& net, const Problem& problem,
                    const ExecutionConfig& config, int v) {
  ProcessEnv env;
  env.id = v;
  env.n = net.n();
  env.max_degree = net.max_degree();
  env.is_global_source = problem.is_source(v);
  env.in_broadcast_set = problem.in_broadcast_set(v);
  env.initial_message = problem.initial_message(v);
  if (config.env_override) env = config.env_override(std::move(env));
  return env;
}

Execution::Execution(const DualGraph& net, ProcessFactory factory,
                     std::shared_ptr<Problem> problem,
                     std::unique_ptr<LinkProcess> link_process,
                     ExecutionConfig config)
    : net_(&net),
      problem_(std::move(problem)),
      link_process_(std::move(link_process)),
      config_(config),
      adversary_rng_(0),
      inspector_(&processes_) {
  DC_EXPECTS(net.n() >= 1);
  DC_EXPECTS(factory != nullptr);
  DC_EXPECTS(problem_ != nullptr);
  DC_EXPECTS(link_process_ != nullptr);
  DC_EXPECTS(config_.max_rounds >= 1);

  factory_holder_ = std::move(factory);

  Rng master(config_.seed);
  const int n = net.n();
  processes_.reserve(static_cast<std::size_t>(n));
  node_rngs_.reserve(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    node_rngs_.push_back(master.fork(static_cast<std::uint64_t>(v)));
  }
  adversary_rng_ = master.fork("link-process");

  for (int v = 0; v < n; ++v) {
    const ProcessEnv env = node_env(net, *problem_, config_, v);
    auto proc = factory_holder_(env);
    DC_EXPECTS_MSG(proc != nullptr, "process factory returned null");
    proc->init(env, node_rngs_[static_cast<std::size_t>(v)]);
    processes_.push_back(std::move(proc));
  }

  // The adversary "knows the algorithm" (§2): it receives the process
  // factory and may privately instantiate and simulate it.
  ExecutionSetup setup;
  setup.net = net_;
  setup.factory = &factory_holder_;
  setup.problem = problem_.get();
  setup.max_rounds = config_.max_rounds;
  link_process_->on_execution_start(setup, adversary_rng_);

  // Lean retention is honored only when nobody reads the stored trace.
  const bool lean_ok = config_.history_policy == HistoryPolicy::lean &&
                       !link_process_->needs_history() &&
                       !problem_->needs_history();
  history_.reset(lean_ok ? HistoryPolicy::lean : HistoryPolicy::full);

  first_receive_round_.assign(static_cast<std::size_t>(n), -1);
  feedback_.resize(static_cast<std::size_t>(n));
  tx_index_of_.assign(static_cast<std::size_t>(n), -1);
  resolver_.reset(net_, config_.collision_detection);

  solved_ = problem_->solved(processes_);
}

const Process& Execution::process(int v) const {
  DC_EXPECTS(v >= 0 && v < static_cast<int>(processes_.size()));
  return *processes_[static_cast<std::size_t>(v)];
}

void Execution::select_edges_pre_actions() {
  // Only the online adaptive class chooses before seeing actions; its view is
  // history through round-1 plus start-of-round node state.
  link_process_->choose_online(round_, history_, inspector_, adversary_rng_,
                               edges_);
}

void Execution::select_edges_post_actions() {
  switch (link_process_->adversary_class()) {
    case AdversaryClass::oblivious:
      link_process_->choose_oblivious(round_, adversary_rng_, edges_);
      return;
    case AdversaryClass::offline_adaptive: {
      RoundActions ra;
      ra.transmitters = &record_.transmitters;
      ra.sent = &record_.sent;
      link_process_->choose_offline(round_, history_, inspector_, ra,
                                    adversary_rng_, edges_);
      return;
    }
    case AdversaryClass::online_adaptive:
      DC_ASSERT_MSG(false, "online edges must be chosen before actions");
  }
}

void Execution::step() {
  DC_EXPECTS_MSG(!done(), "step() on a finished execution");
  const int n = net_->n();

  // 1. Online adaptive adversaries commit before any coin is drawn.
  edges_.set_none();
  const bool online =
      link_process_->adversary_class() == AdversaryClass::online_adaptive;
  if (online) select_edges_pre_actions();

  // 2. Draw actions. The round record's transmitter/message arrays are built
  // in the same pass, straight into the reusable scratch record.
  RoundRecord& record = record_;
  record.clear();
  for (int v = 0; v < n; ++v) {
    Action action = processes_[static_cast<std::size_t>(v)]->on_round(
        round_, node_rngs_[static_cast<std::size_t>(v)]);
    if (action.transmit) {
      tx_index_of_[static_cast<std::size_t>(v)] =
          static_cast<int>(record.transmitters.size());
      record.transmitters.push_back(v);
      record.sent.push_back(std::move(action.message));
    } else {
      tx_index_of_[static_cast<std::size_t>(v)] = -1;
    }
  }

  // 3. Oblivious / offline adaptive adversaries commit now.
  if (!online) select_edges_post_actions();

  // 4. Resolve deliveries under the §2 receive rule.
  record.activated = edges_.kind;
  record.activated_count = edges_.kind == EdgeSet::Kind::all
                               ? net_->gp_only_edge_count()
                               : edges_.count;
  resolver_.resolve(tx_index_of_, edges_, record);
  if (edges_.kind == EdgeSet::Kind::mask) {
    // The EdgeSet is dead after delivery resolution: swap the mask words
    // into the record — the record's previous buffer rotates back for the
    // adversary's next round.
    record.activated_mask.swap(edges_.mask);
  }

  // 5. Feedback, bookkeeping, monitoring.
  for (int v = 0; v < n; ++v) {
    RoundFeedback& fb = feedback_[static_cast<std::size_t>(v)];
    fb.transmitted = tx_index_of_[static_cast<std::size_t>(v)] >= 0;
    fb.received.reset();
    fb.sender = -1;
    fb.collision = false;
  }
  for (const Delivery& d : record.deliveries) {
    auto& fb = feedback_[static_cast<std::size_t>(d.receiver)];
    fb.received = record.sent[static_cast<std::size_t>(d.transmitter_index)];
    fb.sender = d.sender;
    if (first_receive_round_[static_cast<std::size_t>(d.receiver)] == -1) {
      first_receive_round_[static_cast<std::size_t>(d.receiver)] = round_;
    }
  }
  for (const int u : resolver_.colliders()) {
    feedback_[static_cast<std::size_t>(u)].collision = true;
  }
  for (int v = 0; v < n; ++v) {
    processes_[static_cast<std::size_t>(v)]->on_feedback(
        round_, feedback_[static_cast<std::size_t>(v)],
        node_rngs_[static_cast<std::size_t>(v)]);
  }

  problem_->observe_round(record, processes_);
  history_.push_reuse(record);
  ++round_;
  solved_ = problem_->solved(processes_);
}

RunResult Execution::run() {
  while (!done()) step();
  return RunResult{solved_, round_};
}

}  // namespace dualcast
