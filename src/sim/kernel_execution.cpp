#include "sim/kernel_execution.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>

#include "util/assert.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace dualcast {

namespace {
/// Keeps the memory an execution frees in the heap for the next execution
/// of its size. `largest` is its largest per-node array in bytes (the node
/// streams); all its n-sized arrays come to about twice that (6.5 MB at
/// n = 65536). By default glibc maps a block above its mmap threshold
/// afresh and unmaps it on release, raising the threshold only to the
/// largest such block released so far, and trims the heap once its free
/// top passes twice the threshold; so each trial re-faulted its arrays,
/// about 1.6k minor faults per n = 65536 trial, 40 % of its time on a
/// 4-core VM and a cost that moves with the host's load. Here the mmap
/// threshold covers `largest` and the trim threshold is four times that.
/// Larger blocks, such as a caller's growing result vector, are still
/// mapped and unmapped. The thresholds are process-wide and only rise.
/// Executions whose node streams fit in 1 MiB (n <= 21845) leave glibc's
/// defaults alone: they re-fault at most a few hundred pages a trial, and
/// raising the thresholds for them bought the Figure-1 tier (n <= 8192,
/// four workers) no time and cost it 0.85 MB of peak resident set. A no-op
/// outside glibc.
void keep_freed_memory_mapped(std::size_t largest) {
#if defined(__GLIBC__)
  constexpr std::size_t kFloor = std::size_t{1} << 20;
  constexpr std::size_t kCeiling = std::size_t{32} << 20;  // glibc's, 64-bit
  static std::atomic<std::size_t> covered{kFloor};
  if (largest <= covered.load(std::memory_order_relaxed)) return;
  static std::mutex mutex;
  const std::lock_guard<std::mutex> lock(mutex);
  const std::size_t rounded = std::bit_ceil(largest);
  if (rounded <= covered.load(std::memory_order_relaxed)) return;
  const std::size_t threshold = std::min(rounded, kCeiling);
  mallopt(M_MMAP_THRESHOLD, static_cast<int>(threshold));
  mallopt(M_TRIM_THRESHOLD, static_cast<int>(4 * threshold));
  covered.store(rounded, std::memory_order_relaxed);
#else
  (void)largest;
#endif
}

const std::vector<std::unique_ptr<Process>>& empty_processes() {
  static const std::vector<std::unique_ptr<Process>> empty;
  return empty;
}

/// True when `env` is not a default environment (see KernelSetup).
bool has_role(const ProcessEnv& env) {
  return env.is_global_source || env.in_broadcast_set ||
         !(env.initial_message == Message{});
}
}  // namespace

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

KernelExecution::KernelExecution(const DualGraph& net, ProcessFactory factory,
                                 std::shared_ptr<Problem> problem,
                                 std::unique_ptr<LinkProcess> link_process,
                                 ExecutionConfig config)
    : KernelExecution(net, factory, make_scalar_kernel_adapter(factory),
                      std::move(problem), std::move(link_process),
                      std::move(config)) {}

KernelExecution::KernelExecution(const DualGraph& net, ProcessFactory factory,
                                 std::unique_ptr<AlgorithmKernel> kernel,
                                 std::shared_ptr<Problem> problem,
                                 std::unique_ptr<LinkProcess> link_process,
                                 ExecutionConfig config)
    : net_(&net),
      problem_(std::move(problem)),
      link_process_(std::move(link_process)),
      config_(std::move(config)),
      factory_holder_(std::move(factory)),
      kernel_(std::move(kernel)),
      adversary_rng_(0),
      inspector_(kernel_.get(), net.n()) {
  keep_freed_memory_mapped(static_cast<std::size_t>(net.n()) * sizeof(Rng));
  DC_EXPECTS(net.n() >= 1);
  DC_EXPECTS(factory_holder_ != nullptr);
  DC_EXPECTS(kernel_ != nullptr);
  DC_EXPECTS(problem_ != nullptr);
  DC_EXPECTS(link_process_ != nullptr);
  DC_EXPECTS(config_.max_rounds >= 1);
  processes_ = kernel_->processes();
  DC_EXPECTS_MSG(
      processes_ != nullptr || problem_->batch_compatible(),
      "the problem reads Process objects but the kernel has none; use the "
      "scalar adapter kernel for this pairing");

  // Stream forks: node 0..n-1, then the adversary.
  Rng master(config_.seed);
  const int n = net.n();
  node_rngs_.reserve(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    node_rngs_.push_back(master.fork(static_cast<std::uint64_t>(v)));
  }
  adversary_rng_ = master.fork("link-process");
  if (config_.rng_mode == RngMode::word) {
    // Word mode: one extra stream per 64-node block, forked after the
    // scalar-parity streams (each fork advances the master's fork counter,
    // so these are independent of every node/adversary stream).
    const int blocks = (n + 63) / 64;
    block_rngs_.reserve(static_cast<std::size_t>(blocks));
    for (int b = 0; b < blocks; ++b) {
      block_rngs_.push_back(master.fork(static_cast<std::uint64_t>(b)));
    }
  }

  // Role-sparse environments: only nodes with a role are materialized;
  // kernels that want any other node's env build it through setup.env.
  // Without an override, the problem's role list names them. An override
  // may give any node a role, or rewrite n and Δ, so then every node is
  // asked. The scalar adapter builds every env itself and reads no roles,
  // so it gets none (see KernelSetup).
  KernelSetup setup;
  setup.n = n;
  setup.max_degree = net.max_degree();
  std::vector<NodeEnv> roles;
  const auto add_role = [&](int v) {
    ProcessEnv env = node_env(net, *problem_, config_, v);
    if (v == 0) {
      setup.n = env.n;
      setup.max_degree = env.max_degree;
    }
    if (has_role(env)) roles.push_back(NodeEnv{v, std::move(env)});
  };
  if (processes_ == nullptr && config_.env_override) {
    for (int v = 0; v < n; ++v) add_role(v);
  } else if (processes_ == nullptr) {
    int last = -1;
    for (const int v : problem_->role_nodes(n)) {
      DC_EXPECTS_MSG(v > last && v < n,
                     "role_nodes must list distinct node ids, ascending");
      add_role(v);
      last = v;
    }
  }
  setup.net = net_;
  setup.roles = roles;
  setup.env = [this](int v) {
    return node_env(*net_, *problem_, config_, v);
  };
  setup.rng_mode = config_.rng_mode;
  setup.block_rngs = block_rngs_;
  kernel_->init(setup, node_rngs_);

  // The holder count serves solved_batch(); the adapter's problems read
  // its processes instead, so it keeps none (see message_holders()). Only
  // role nodes can hold a message after init() (the kernel's completion
  // contract).
  received_.resize(n);
  if (processes_ == nullptr) {
    holder_bits_.resize(n);
    for (const NodeEnv& role : roles) {
      if (kernel_->has_message(role.node)) {
        holder_bits_.set(role.node);
        ++holders_;
      }
    }
  }

  // The adversary "knows the algorithm" (§2): it receives the process
  // factory, and a factory of blank copies of the kernel when it offers
  // them, and may privately instantiate and simulate either.
  ExecutionSetup adv_setup;
  adv_setup.net = net_;
  adv_setup.factory = &factory_holder_;
  if (std::shared_ptr<const AlgorithmKernel> blank = kernel_->fresh()) {
    adv_setup.kernel = [blank] { return blank->fresh(); };
  }
  adv_setup.problem = problem_.get();
  adv_setup.max_rounds = config_.max_rounds;
  link_process_->on_execution_start(adv_setup, adversary_rng_);

  // Lean retention is honored only when nobody reads the stored trace.
  const bool lean_ok = config_.history_policy == HistoryPolicy::lean &&
                       !link_process_->needs_history() &&
                       !problem_->needs_history();
  history_.reset(lean_ok ? HistoryPolicy::lean : HistoryPolicy::full);

  first_receive_round_.assign(static_cast<std::size_t>(n), -1);
  tx_index_of_.assign(static_cast<std::size_t>(n), -1);
  resolver_.reset(net_, config_.collision_detection);

  solved_ = problem_solved();
}

KernelExecution::~KernelExecution() = default;

const Process& KernelExecution::process(int v) const {
  DC_EXPECTS_MSG(processes_ != nullptr,
                 "process() requires a kernel backed by processes");
  DC_EXPECTS(v >= 0 && v < static_cast<int>(processes_->size()));
  return *(*processes_)[static_cast<std::size_t>(v)];
}

int KernelExecution::message_holders() const {
  if (processes_ == nullptr) return holders_;
  int holders = 0;
  for (const auto& proc : *processes_) holders += proc->has_message() ? 1 : 0;
  return holders;
}

bool KernelExecution::problem_solved() const {
  return processes_ != nullptr ? problem_->solved(*processes_)
                               : problem_->solved_batch(state_view_);
}

void KernelExecution::select_edges_post_actions() {
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

void KernelExecution::step() {
  DC_EXPECTS_MSG(!done(), "step() on a finished execution");

  // 1. Online adaptive adversaries commit before any coin is drawn.
  edges_.set_none();
  const bool online =
      link_process_->adversary_class() == AdversaryClass::online_adaptive;
  if (online) {
    link_process_->choose_online(round_, history_, inspector_, adversary_rng_,
                                 edges_);
  }

  // 2. Draw actions into the (already reset) scratch with one batch call.
  RoundRecord& record = record_;
  record.clear();
  TxBatch batch(record, tx_index_of_);
  kernel_->on_round_batch(round_, batch, node_rngs_);

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
  FeedbackView fb;
  fb.round = round_;
  fb.deliveries = record.deliveries;
  fb.runs = record.runs;
  fb.run_skips = record.run_skips;
  fb.transmitters = record.transmitters;
  fb.sent = record.sent;
  fb.colliders = resolver_.colliders();
  fb.tx_index_of = tx_index_of_;
  kernel_->on_feedback_batch(fb, node_rngs_);
  // Only this round's receivers can have become holders (the kernel's
  // completion contract), so only the ones not yet counted are asked. A
  // run is taken a word at a time, visiting only the receivers not yet
  // received or not yet counted.
  const bool count_holders = processes_ == nullptr;
  const auto note_receivers = [&](int block, std::uint64_t bits) {
    const std::uint64_t first = bits & ~received_.word(block);
    received_.set_bits(block, first);
    for_each_bit(first, block * 64, [&](int u, std::uint64_t) {
      first_receive_round_[static_cast<std::size_t>(u)] = round_;
    });
    if (!count_holders) return;
    for_each_bit(bits & ~holder_bits_.word(block), block * 64,
                 [&](int u, std::uint64_t lane) {
                   if (!kernel_->has_message(u)) return;
                   holder_bits_.set_bits(block, lane);
                   ++holders_;
                 });
  };
  for (const DeliveryRun& run : record.runs) {
    for_each_run_word(run, record.transmitters, record.run_skips,
                      note_receivers);
  }
  for (const Delivery& d : record.deliveries) {
    note_receivers(d.receiver / 64, std::uint64_t{1} << (d.receiver % 64));
  }

  problem_->observe_round(
      record, processes_ != nullptr ? *processes_ : empty_processes());
  // Reset the transmitter-indexed scratch before the record is consumed:
  // only transmitter entries ever leave their default state.
  for (const int v : record.transmitters) {
    tx_index_of_[static_cast<std::size_t>(v)] = -1;
  }
  history_.push_reuse(record);
  ++round_;
  solved_ = problem_solved();
}

RunResult KernelExecution::run() {
  while (!done()) step();
  return RunResult{solved_, round_};
}

}  // namespace dualcast
