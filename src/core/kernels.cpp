#include "core/kernels.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>

#include "util/assert.hpp"
#include "util/bitset64.hpp"
#include "util/mathutil.hpp"
#include "util/simd.hpp"

// Each kernel below keeps the init/on_round/on_feedback structure of its
// algorithm's scalar reference (the Process classes under tests/reference/,
// named in each section's banner), restructured around flat state arrays
// and holder bitmaps. Comments point back to the reference only where the
// restructuring is non-obvious; the probability/schedule logic itself is
// documented once, in the config headers of this directory.
//
// Holder sets are kept as bitmaps (one 64-bit block per 64 nodes) rather
// than sorted index vectors: ascending block/bit iteration reproduces the
// scalar adapter's node-visit order for free, membership updates are O(1),
// and — the point — a round's transmit coins are drawn a block at a time
// (DecayCoins). In the engine's `word` RNG mode (KernelSetup::rng_mode) one
// Pow2MaskLadder per 64-node block serves every holder in the block at a
// cost of max-consumed-ladder-index draws instead of one draw per holder.
// In `per_node` mode each holder draws coin_pow2 from its own stream, four
// streams at a time (simd::coin_pow2_lanes), preserving byte-identical
// scalar parity.

namespace dualcast {
namespace {

/// A node set as packed 64-bit blocks (see util/bitset64.hpp): ascending
/// block/bit iteration visits members in ascending node order.
using NodeBitmap = Bitset64;

/// The per-round Decay coins of the decay and gossip kernels, one 64-node
/// block at a time, for both schedules and both RNG modes.
class DecayCoins {
 public:
  void init(const KernelSetup& setup) {
    word_ = setup.rng_mode == RngMode::word && !setup.block_rngs.empty();
    block_rngs_ = setup.block_rngs;
  }

  /// Transmit word of block b: bit j is set iff candidate lane j (a set bit
  /// of `lanes`) wins its Bernoulli(2^-i) coin, where i is `shared_index`
  /// when that is >= 0 (every lane on one schedule) and index_of(v)
  /// otherwise. Draws nothing when `lanes` is empty.
  template <typename IndexOf>
  std::uint64_t block(int b, std::uint64_t lanes, std::span<Rng> rngs,
                      int shared_index, IndexOf&& index_of) {
    if (lanes == 0) return 0;
    const std::size_t base = static_cast<std::size_t>(b) * 64;
    if (shared_index >= 0) {
      // One ladder index for the block: in word mode one mask decides it.
      if (word_) return lanes & ladder(b).mask(shared_index);
      return simd::coin_pow2_lanes(rngs.subspan(base), lanes, shared_index);
    }
    std::uint8_t lane_index[64] = {};
    int max_index = 0;
    for_each_bit(lanes, 0, [&](int j, std::uint64_t) {
      const int index = index_of(static_cast<int>(base) + j);
      lane_index[j] = static_cast<std::uint8_t>(index);
      max_index = std::max(max_index, index);
    });
    if (!word_) {
      return simd::coin_pow2_lanes(rngs.subspan(base), lanes, lane_index);
    }
    // Divergent indices: deepen the ladder once to the max (the same draw
    // sequence lazy per-lane reads would consume), then gather every lane's
    // bit word-parallel.
    Pow2MaskLadder coins = ladder(b);
    coins.mask(max_index);
    return simd::gather_ladder_bits(coins.levels(), lane_index, lanes);
  }

 private:
  Pow2MaskLadder ladder(int b) {
    return Pow2MaskLadder(block_rngs_[static_cast<std::size_t>(b)]);
  }

  bool word_ = false;
  std::span<Rng> block_rngs_;
};

/// Each node's id as its environment states it (ProcessEnv::id): the node
/// index, unless an env_override moved some id (KernelSetup::ids).
class NodeIds {
 public:
  void init(const KernelSetup& setup) {
    ids_.assign(setup.ids.begin(), setup.ids.end());
  }
  int operator()(int v) const {
    return ids_.empty() ? v : ids_[static_cast<std::size_t>(v)];
  }

 private:
  std::vector<int> ids_;
};

/// Round robin's slot owners: in round r, the nodes whose id is r mod n,
/// with ids and n as the environments state them. With node-index ids that
/// is node r mod n alone (none when an override enlarges n past the
/// network); an override's ids are looked up in a sorted (id, node) list.
class RobinSlots {
 public:
  void init(const KernelSetup& setup) {
    n_ = setup.n;
    net_n_ = setup.net->n();
    ids_.init(setup);
    by_id_.clear();
    for (std::size_t v = 0; v < setup.ids.size(); ++v) {
      by_id_.emplace_back(setup.ids[v], static_cast<int>(v));
    }
    std::sort(by_id_.begin(), by_id_.end());
  }

  /// Calls fn(v) for every owner of round `round`'s slot, ascending.
  template <typename Fn>
  void for_each_owner(int round, Fn&& fn) const {
    const int slot = round % n_;
    if (by_id_.empty()) {
      if (slot < net_n_) fn(slot);
      return;
    }
    for (auto it = std::lower_bound(by_id_.begin(), by_id_.end(),
                                    std::pair<int, int>(slot, -1));
         it != by_id_.end() && it->first == slot; ++it) {
      fn(it->second);
    }
  }

  bool owns(int v, int round) const { return round % n_ == ids_(v); }

 private:
  int n_ = 1;
  int net_n_ = 0;
  NodeIds ids_;
  std::vector<std::pair<int, int>> by_id_;  ///< (id, node); override only
};

// ---------------------------------------------------------------------------
// Round robin (RoundRobinBroadcast).
// ---------------------------------------------------------------------------

class RoundRobinKernel final : public AlgorithmKernel {
 public:
  explicit RoundRobinKernel(RoundRobinConfig config) : config_(config) {}

  void init(const KernelSetup& setup, std::span<Rng> /*rngs*/) override {
    const int n = setup.net->n();
    slots_.init(setup);
    has_.resize(n);
    may_.resize(n);
    message_.resize(static_cast<std::size_t>(n));
    for (const auto& [v, env] : setup.roles) {
      if (env.is_global_source || env.in_broadcast_set) {
        has_.set(v);
        may_.set(v);
      }
      message_[static_cast<std::size_t>(v)] = env.initial_message;
    }
  }

  void on_round_batch(int round, TxBatch& out, std::span<Rng> /*rngs*/) override {
    slots_.for_each_owner(round, [&](int v) {
      if (may_.test(v)) out.transmit(v, message_[static_cast<std::size_t>(v)]);
    });
  }

  void on_feedback_batch(const FeedbackView& fb, std::span<Rng> /*rngs*/) override {
    for_each_delivery(fb, [&](const Delivery& d) {
      if (has_.test(d.receiver)) return;
      const Message& m = fb.sent[static_cast<std::size_t>(d.transmitter_index)];
      if (m.kind != MessageKind::data) return;
      has_.set(d.receiver);
      if (config_.relay) {
        message_[static_cast<std::size_t>(d.receiver)] = m;
        may_.set(d.receiver);
      }
    });
  }

  bool has_message(int v) const override { return has_.test(v); }

  double transmit_probability(int v, int round) const override {
    return (may_.test(v) && slots_.owns(v, round)) ? 1.0 : 0.0;
  }

  double expected_transmitters(int round) const override {
    double sum = 0.0;
    slots_.for_each_owner(round,
                          [&](int v) { sum += may_.test(v) ? 1.0 : 0.0; });
    return sum;
  }

 private:
  RoundRobinConfig config_;
  RobinSlots slots_;
  NodeBitmap has_;
  NodeBitmap may_;
  std::vector<Message> message_;
};

// ---------------------------------------------------------------------------
// Local Decay (DecayLocalBroadcast).
// ---------------------------------------------------------------------------

class DecayLocalKernel final : public AlgorithmKernel {
 public:
  explicit DecayLocalKernel(DecayLocalConfig config) : config_(config) {}

  void init(const KernelSetup& setup, std::span<Rng> rngs) override {
    const int n = setup.net->n();
    coins_.init(setup);
    b_bits_.resize(n);
    message_.resize(static_cast<std::size_t>(n));
    if (config_.schedule == ScheduleKind::permuted) {
      private_bits_.resize(static_cast<std::size_t>(n));
    }
    ladder_ = config_.ladder > 0
                  ? config_.ladder
                  : clog2(2 * static_cast<std::uint64_t>(
                                  setup.max_degree > 0 ? setup.max_degree : 1));
    for (const auto& [v, env] : setup.roles) {
      if (!env.in_broadcast_set) continue;
      b_bits_.set(v);
      ++b_count_;
      message_[static_cast<std::size_t>(v)] = env.initial_message;
      if (config_.schedule == ScheduleKind::permuted) {
        const int width = schedule_chunk_width(ladder_);
        const int nbits = config_.seed_bits > 0 ? config_.seed_bits
                                                : 64 * ladder_ * width;
        private_bits_[static_cast<std::size_t>(v)] = BitString::random(
            rngs[static_cast<std::size_t>(v)],
            static_cast<std::size_t>(nbits));
      }
    }
  }

  void on_round_batch(int round, TxBatch& out, std::span<Rng> rngs) override {
    const int shared_index = config_.schedule == ScheduleKind::fixed
                                 ? fixed_decay_index(round, ladder_)
                                 : -1;
    for (int b = 0; b < b_bits_.blocks(); ++b) {
      const std::uint64_t tx =
          coins_.block(b, b_bits_.word(b), rngs, shared_index, [&](int v) {
            return permuted_decay_index(
                private_bits_[static_cast<std::size_t>(v)], round, ladder_);
          });
      for_each_bit(tx, b * 64, [&](int v, std::uint64_t) {
        out.transmit(v, message_[static_cast<std::size_t>(v)]);
      });
    }
  }

  void on_feedback_batch(const FeedbackView& /*fb*/,
                         std::span<Rng> /*rngs*/) override {}

  bool has_message(int v) const override { return b_bits_.test(v); }

  double transmit_probability(int v, int round) const override {
    if (!b_bits_.test(v)) return 0.0;
    const int index =
        config_.schedule == ScheduleKind::fixed
            ? fixed_decay_index(round, ladder_)
            : permuted_decay_index(private_bits_[static_cast<std::size_t>(v)],
                                   round, ladder_);
    return pow2_neg(index);
  }

  double expected_transmitters(int round) const override {
    if (config_.schedule == ScheduleKind::fixed) {
      // k holders at one shared power-of-two probability: k * 2^-i is exact
      // and equals the sequential per-node sum.
      return static_cast<double>(b_count_) *
             pow2_neg(fixed_decay_index(round, ladder_));
    }
    double sum = 0.0;
    for (int b = 0; b < b_bits_.blocks(); ++b) {
      for_each_bit(b_bits_.word(b), b * 64, [&](int v, std::uint64_t) {
        sum += pow2_neg(permuted_decay_index(
            private_bits_[static_cast<std::size_t>(v)], round, ladder_));
      });
    }
    return sum;
  }

 private:
  DecayLocalConfig config_;
  int ladder_ = 0;
  int b_count_ = 0;
  DecayCoins coins_;
  NodeBitmap b_bits_;  ///< the broadcast set; only these ever act
  std::vector<Message> message_;
  std::vector<BitString> private_bits_;
};

// ---------------------------------------------------------------------------
// Global Decay (DecayGlobalBroadcast).
// ---------------------------------------------------------------------------

/// SoA decay-holder state shared by the global-decay kernel and the decay
/// half of the robust-mix kernel (whose decay clock is the engine round
/// halved).
///
/// Holders are grouped into cohorts: nodes that got one message with one
/// window [start, end). A window is fixed by the period of the receipt
/// round, so a run's new holders, and every other receipt of that message
/// in that period, share a cohort. A cohort keeps its members as
/// (block, bits) words and its message as an index into `messages`, the
/// distinct messages held (one per source in every catalog problem), so a
/// run turns into holders a word at a time and no holder copies a Message.
struct DecayGlobalState {
  struct Cohort {
    int start = -1;  ///< window [start, end); a source's is [-1, -1)
    int end = -1;
    int message = -1;       ///< index into `messages`
    std::size_t first = 0;  ///< members: words[first, last)
    std::size_t last = 0;
  };
  struct BlockBits {
    int block = 0;
    std::uint64_t bits = 0;
  };

  DecayGlobalConfig config;
  int ladder = 0;
  int calls = 0;
  DecayCoins coins;
  NodeBitmap is_source;
  NodeBitmap has;
  std::vector<int> sources;  ///< ascending
  std::vector<Message> messages;
  /// The sources' cohorts, then the receipts' in window order: both window
  /// bounds are non-decreasing along the list (round_up of a monotone
  /// round).
  std::vector<Cohort> cohorts;
  std::vector<BlockBits> words;
  std::vector<int> cohort_of;  ///< per node; -1 until it holds a message
  // Every holder of one message shares its source's permuted bit string
  // (§4.1), so while all holders carry one string a round has one ladder
  // index (shared_index).
  const BitString* holder_string = nullptr;  ///< the first holder's bits
  bool received_any = false;   ///< some node has become a holder
  bool mixed_strings = false;  ///< some later holder carries another string

  // Incremental active-window tracking: two heads walk the cohort list, one
  // by window start and one by window end, and OR in or clear out a
  // cohort's words, so the active set advances in O(changes) instead of
  // re-checking every holder's window every round. `mutable`: expected() is
  // a const observer but shares the clock. Queries must be monotone (the
  // engine's round clock).
  mutable NodeBitmap active_bits;  ///< holders with start <= r < end
  mutable std::int64_t active_count = 0;
  mutable int synced_round = 0;
  mutable std::size_t start_head = 0;
  mutable std::size_t end_head = 0;

  /// Advances the active set to `round`.
  void sync(int round) const {
    DC_EXPECTS(round >= synced_round);
    for (; start_head < cohorts.size() && cohorts[start_head].start <= round;
         ++start_head) {
      const Cohort& c = cohorts[start_head];
      for (std::size_t w = c.first; w < c.last; ++w) {
        active_bits.set_bits(words[w].block, words[w].bits);
        active_count += std::popcount(words[w].bits);
      }
    }
    for (; end_head < cohorts.size() && cohorts[end_head].end <= round;
         ++end_head) {
      const Cohort& c = cohorts[end_head];
      for (std::size_t w = c.first; w < c.last; ++w) {
        active_bits.clear_bits(words[w].block, words[w].bits);
        active_count -= std::popcount(words[w].bits);
      }
    }
    synced_round = round;
  }

  /// Applies a role node's environment (every other node starts as no
  /// source and no holder, as resize() leaves it).
  void init_node(int v, const ProcessEnv& env, Rng& rng) {
    if (!env.is_global_source) return;
    is_source.set(v);
    has.set(v);
    sources.push_back(v);
    Message m = env.initial_message;
    if (config.schedule == ScheduleKind::permuted && m.shared_bits == nullptr) {
      const int width = schedule_chunk_width(ladder);
      const int default_bits = 2 * config.gamma * ladder * ladder * width;
      const int nbits = config.seed_bits > 0 ? config.seed_bits : default_bits;
      m.shared_bits = std::make_shared<const BitString>(
          BitString::random(rng, static_cast<std::size_t>(nbits)));
    }
    cohort_of[static_cast<std::size_t>(v)] = static_cast<int>(cohorts.size());
    cohorts.push_back(
        Cohort{-1, -1, message_index(m), words.size(), words.size()});
  }

  void resize(const DecayGlobalConfig& cfg, const KernelSetup& setup) {
    const int n = setup.net->n();
    config = cfg;
    ladder = clog2(static_cast<std::uint64_t>(setup.n > 1 ? setup.n : 2));
    calls = cfg.calls == 0 ? 2 * ladder : cfg.calls;
    coins.init(setup);
    is_source.resize(n);
    has.resize(n);
    cohort_of.assign(static_cast<std::size_t>(n), -1);
    active_bits.resize(n);
  }

  int period() const { return config.gamma * ladder; }

  const Message& message_of(int v) const {
    const Cohort& c = cohorts[static_cast<std::size_t>(
        cohort_of[static_cast<std::size_t>(v)])];
    return messages[static_cast<std::size_t>(c.message)];
  }

  bool active_in(int v, int round) const {
    const int c = cohort_of[static_cast<std::size_t>(v)];
    if (c < 0) return false;
    const Cohort& cohort = cohorts[static_cast<std::size_t>(c)];
    return round >= cohort.start && round < cohort.end;
  }

  /// The ladder index of every holder at `round`, or -1 when holders
  /// carry different bit strings (each then reads its own).
  int shared_index(int round) const {
    if (config.schedule == ScheduleKind::fixed) {
      return fixed_decay_index(round, ladder);
    }
    if (holder_string == nullptr || mixed_strings) return -1;
    return permuted_decay_index(*holder_string, round, ladder);
  }

  int schedule_index(int v, int round) const {
    if (config.schedule == ScheduleKind::fixed) {
      return fixed_decay_index(round, ladder);
    }
    const auto& bits = message_of(v).shared_bits;
    DC_ASSERT_MSG(bits != nullptr, "permuted decay holder without shared bits");
    return permuted_decay_index(*bits, round, ladder);
  }

  /// Transmissions of one decay round at clock `round` (ascending order:
  /// sources act only in round 0, when no holder exists yet).
  template <typename Emit>
  void round(int round, std::span<Rng> rngs, Emit&& emit) {
    if (round == 0) {
      for (const int v : sources) emit(v, message_of(v));
      return;
    }
    sync(round);
    const int index = shared_index(round);
    for (int b = 0; b < active_bits.blocks(); ++b) {
      const std::uint64_t tx =
          coins.block(b, active_bits.word(b), rngs, index,
                      [&](int v) { return schedule_index(v, round); });
      for_each_bit(tx, b * 64,
                   [&](int v, std::uint64_t) { emit(v, message_of(v)); });
    }
  }

  /// A round's receipts at decay clock `round` (mirrors
  /// DecayGlobalBroadcast::on_feedback): a node that holds nothing takes the
  /// first data message it hears. A run's new holders — its words minus
  /// `has` — join one cohort a word at a time.
  void receive(const FeedbackView& fb, int round) {
    for (const DeliveryRun& run : fb.runs) {
      const Message& m =
          fb.sent[static_cast<std::size_t>(run.transmitter_index)];
      if (m.kind != MessageKind::data) continue;
      bool joined = false;
      for_each_run_word(run, fb.transmitters, fb.run_skips,
                        [&](int block, std::uint64_t bits) {
                          bits &= ~has.word(block);
                          if (bits == 0) return;
                          if (!joined) join(m, round);
                          joined = true;
                          add(block, bits);
                        });
    }
    for (const Delivery& d : fb.deliveries) {
      const Message& m = fb.sent[static_cast<std::size_t>(d.transmitter_index)];
      if (has.test(d.receiver) || m.kind != MessageKind::data) continue;
      join(m, round);
      add(d.receiver / 64, std::uint64_t{1} << (d.receiver % 64));
    }
  }

  /// The index of `m` in `messages` (the same fields and the same shared
  /// bits object), appending it on first sight.
  int message_index(const Message& m) {
    for (std::size_t k = messages.size(); k-- > 0;) {
      const Message& held = messages[k];
      if (held.kind == m.kind && held.source == m.source &&
          held.payload == m.payload && held.shared_bits == m.shared_bits) {
        return static_cast<int>(k);
      }
    }
    messages.push_back(m);
    return static_cast<int>(messages.size()) - 1;
  }

  /// Readies the last cohort for new holders of `m` at decay clock
  /// `round`: it stays when it has their window and message and has not
  /// started, else a new one is appended.
  void join(const Message& m, int round) {
    if (!received_any) {  // the first holder
      received_any = true;
      holder_string = m.shared_bits.get();
    } else if (m.shared_bits.get() != holder_string) {
      mixed_strings = true;
    }
    const int start = static_cast<int>(
        round_up(static_cast<std::int64_t>(round) + 1, period()));
    const int end = calls == DecayGlobalConfig::kUnbounded
                        ? std::numeric_limits<int>::max()
                        : start + calls * period();
    const int message = message_index(m);
    if (start_head < cohorts.size()) {
      const Cohort& last = cohorts.back();
      if (last.start == start && last.end == end && last.message == message) {
        return;
      }
    }
    cohorts.push_back(Cohort{start, end, message, words.size(), words.size()});
  }

  /// Makes the nodes `bits` of block `block` holders in the last cohort.
  void add(int block, std::uint64_t bits) {
    Cohort& c = cohorts.back();
    const int cohort = static_cast<int>(cohorts.size()) - 1;
    if (c.last > c.first && words.back().block == block) {
      words.back().bits |= bits;
    } else {
      words.push_back(BlockBits{block, bits});
    }
    c.last = words.size();
    has.set_bits(block, bits);
    for_each_bit(bits, block * 64, [&](int v, std::uint64_t) {
      cohort_of[static_cast<std::size_t>(v)] = cohort;
    });
  }

  double probability(int v, int round) const {
    if (is_source.test(v)) return round == 0 ? 1.0 : 0.0;
    if (!active_in(v, round)) return 0.0;
    return pow2_neg(schedule_index(v, round));
  }

  /// E[|X| | S] at decay clock `round`: non-zero contributors summed in
  /// ascending node order (bit-identical to the full per-node scan; when
  /// every active holder shares one power-of-two p, count * p is the exact
  /// sequential sum, since every partial sum j * p is exact).
  double expected(int round) const {
    if (round == 0) return static_cast<double>(sources.size());
    sync(round);
    const int index = shared_index(round);
    if (index >= 0) {
      return static_cast<double>(active_count) * pow2_neg(index);
    }
    double sum = 0.0;
    for (int b = 0; b < active_bits.blocks(); ++b) {
      for_each_bit(active_bits.word(b), b * 64, [&](int v, std::uint64_t) {
        sum += pow2_neg(schedule_index(v, round));
      });
    }
    return sum;
  }
};

class DecayGlobalKernel final : public AlgorithmKernel {
 public:
  explicit DecayGlobalKernel(DecayGlobalConfig config) : config_(config) {}

  void init(const KernelSetup& setup, std::span<Rng> rngs) override {
    state_.resize(config_, setup);
    for (const auto& [v, env] : setup.roles) {
      state_.init_node(v, env, rngs[static_cast<std::size_t>(v)]);
    }
  }

  void on_round_batch(int round, TxBatch& out, std::span<Rng> rngs) override {
    state_.round(round, rngs,
                 [&](int v, const Message& m) { out.transmit(v, m); });
  }

  void on_feedback_batch(const FeedbackView& fb, std::span<Rng> /*rngs*/) override {
    state_.receive(fb, fb.round);
  }

  bool has_message(int v) const override { return state_.has.test(v); }

  double transmit_probability(int v, int round) const override {
    return state_.probability(v, round);
  }

  double expected_transmitters(int round) const override {
    return state_.expected(round);
  }

 private:
  DecayGlobalConfig config_;
  DecayGlobalState state_;
};

// ---------------------------------------------------------------------------
// RobustMix (RobustMixBroadcast): round robin on even engine rounds, decay
// on odd ones, each half running on its own halved round clock.
// ---------------------------------------------------------------------------

class RobustMixKernel final : public AlgorithmKernel {
 public:
  explicit RobustMixKernel(RobustMixConfig config) : config_(config) {}

  void init(const KernelSetup& setup, std::span<Rng> rngs) override {
    const int n = setup.net->n();
    slots_.init(setup);
    robin_has_.resize(n);
    robin_may_.resize(n);
    robin_message_.resize(static_cast<std::size_t>(n));
    decay_.resize(config_.decay, setup);
    for (const auto& [v, env] : setup.roles) {
      Rng& rng = rngs[static_cast<std::size_t>(v)];
      // RobustMixBroadcast::init attaches the shared permutation bits to the
      // source's message *before* either half initializes, drawing them from
      // the node's own stream.
      ProcessEnv shared_env = env;
      if (env.is_global_source &&
          config_.decay.schedule == ScheduleKind::permuted &&
          shared_env.initial_message.shared_bits == nullptr) {
        const int ladder =
            clog2(static_cast<std::uint64_t>(env.n > 1 ? env.n : 2));
        const int width = schedule_chunk_width(ladder);
        const int nbits =
            config_.decay.seed_bits > 0
                ? config_.decay.seed_bits
                : 2 * config_.decay.gamma * ladder * ladder * width;
        shared_env.initial_message.shared_bits =
            std::make_shared<const BitString>(
                BitString::random(rng, static_cast<std::size_t>(nbits)));
      }
      // (The scalar class forks one sub-stream per half here; neither half
      // ever draws from them, and forking leaves the parent stream's draw
      // sequence untouched, so the kernel skips the forks.)
      if (env.is_global_source || env.in_broadcast_set) {
        robin_has_.set(v);
        robin_may_.set(v);
      }
      robin_message_[static_cast<std::size_t>(v)] =
          shared_env.initial_message;
      decay_.init_node(v, shared_env, rng);
    }
  }

  void on_round_batch(int round, TxBatch& out, std::span<Rng> rngs) override {
    const int rr = round / 2;
    if (round % 2 == 0) {
      slots_.for_each_owner(rr, [&](int v) {
        if (robin_may_.test(v)) {
          out.transmit(v, robin_message_[static_cast<std::size_t>(v)]);
        }
      });
      return;
    }
    decay_.round(rr, rngs,
                 [&](int v, const Message& m) { out.transmit(v, m); });
  }

  void on_feedback_batch(const FeedbackView& fb, std::span<Rng> /*rngs*/) override {
    // Both halves learn from every reception, whichever half's round it was.
    for_each_delivery(fb, [&](const Delivery& d) {
      const Message& m = fb.sent[static_cast<std::size_t>(d.transmitter_index)];
      if (!robin_has_.test(d.receiver) && m.kind == MessageKind::data) {
        robin_has_.set(d.receiver);
        robin_message_[static_cast<std::size_t>(d.receiver)] = m;
        robin_may_.set(d.receiver);
      }
    });
    decay_.receive(fb, fb.round / 2);
  }

  bool has_message(int v) const override {
    return robin_has_.test(v) || decay_.has.test(v);
  }

  double transmit_probability(int v, int round) const override {
    const int rr = round / 2;
    if (round % 2 == 0) {
      return (robin_may_.test(v) && slots_.owns(v, rr)) ? 1.0 : 0.0;
    }
    return decay_.probability(v, rr);
  }

  double expected_transmitters(int round) const override {
    const int rr = round / 2;
    if (round % 2 != 0) return decay_.expected(rr);
    double sum = 0.0;
    slots_.for_each_owner(
        rr, [&](int v) { sum += robin_may_.test(v) ? 1.0 : 0.0; });
    return sum;
  }

 private:
  RobustMixConfig config_;
  RobinSlots slots_;
  NodeBitmap robin_has_;
  NodeBitmap robin_may_;
  std::vector<Message> robin_message_;
  DecayGlobalState decay_;
};

// ---------------------------------------------------------------------------
// Gossip (GossipBroadcast).
// ---------------------------------------------------------------------------

class GossipKernel final : public AlgorithmKernel {
 public:
  explicit GossipKernel(GossipConfig config) : config_(config) {}

  void init(const KernelSetup& setup, std::span<Rng> rngs) override {
    const int n = setup.net->n();
    coins_.init(setup);
    ids_.init(setup);
    holder_bits_.resize(n);
    held_.resize(static_cast<std::size_t>(n));
    offers_left_.resize(static_cast<std::size_t>(n));
    live_tokens_.assign(static_cast<std::size_t>(n), 0);
    seen_.resize(static_cast<std::size_t>(n));
    next_offer_.assign(static_cast<std::size_t>(n), 0);
    ladder_ = config_.ladder > 0 ? config_.ladder
                                 : clog2(static_cast<std::uint64_t>(
                                       setup.n > 1 ? setup.n : 2));
    offer_budget_ = config_.quiesce ? (config_.quiesce_calls > 0
                                           ? config_.quiesce_calls
                                           : 4 * ladder_)
                                    : -1;
    for (const auto& [v, env] : setup.roles) {
      if (env.initial_message.kind == MessageKind::data &&
          env.initial_message.source == env.id) {
        acquire(v, env.initial_message);
      }
    }
    if (config_.schedule == ScheduleKind::permuted) {
      // Every node draws its private bits, role or not.
      private_bits_.resize(static_cast<std::size_t>(n));
      const int width = schedule_chunk_width(ladder_);
      const int nbits = config_.seed_bits > 0 ? config_.seed_bits
                                              : 64 * ladder_ * width;
      for (int v = 0; v < n; ++v) {
        private_bits_[static_cast<std::size_t>(v)] = BitString::random(
            rngs[static_cast<std::size_t>(v)],
            static_cast<std::size_t>(nbits));
      }
    }
  }

  void on_round_batch(int round, TxBatch& out, std::span<Rng> rngs) override {
    const int shared_index = config_.schedule == ScheduleKind::fixed
                                 ? fixed_decay_index(round, ladder_)
                                 : -1;
    const bool quiescing = offer_budget_ >= 0;
    for (int b = 0; b < holder_bits_.blocks(); ++b) {
      std::uint64_t lanes = holder_bits_.word(b);
      if (quiescing) {
        // A holder with no live token is silent and spends no coin.
        for_each_bit(lanes, b * 64, [&](int v, std::uint64_t lane) {
          if (!any_active(static_cast<std::size_t>(v))) lanes &= ~lane;
        });
      }
      const std::uint64_t tx =
          coins_.block(b, lanes, rngs, shared_index, [&](int v) {
            return permuted_decay_index(
                private_bits_[static_cast<std::size_t>(v)], round, ladder_);
          });
      for_each_bit(tx, b * 64, [&](int v, std::uint64_t) {
        const std::size_t i = static_cast<std::size_t>(v);
        std::size_t slot;
        if (quiescing) {
          // The O(tokens) scratch gather runs only on a coin hit (state
          // cannot change between the coin and here, so draws and slot
          // choices are identical to gathering first).
          active_tokens(i);
          slot = active_scratch_[next_offer_[i] % active_scratch_.size()];
          if (--offers_left_[i][slot] == 0) {
            --live_tokens_[i];  // this token just retired
          }
        } else {
          slot = next_offer_[i] % held_[i].size();
        }
        ++next_offer_[i];
        Message m = held_[i][slot];
        m.source = ids_(v);  // relays re-originate (receiver credits token)
        out.transmit(v, std::move(m));
      });
    }
  }

  void on_feedback_batch(const FeedbackView& fb, std::span<Rng> /*rngs*/) override {
    for_each_delivery(fb, [&](const Delivery& d) {
      const Message& m = fb.sent[static_cast<std::size_t>(d.transmitter_index)];
      if (m.kind == MessageKind::data) acquire(d.receiver, m);
    });
  }

  bool has_message(int v) const override {
    return !held_[static_cast<std::size_t>(v)].empty();
  }

  double transmit_probability(int v, int round) const override {
    const std::size_t i = static_cast<std::size_t>(v);
    if (held_[i].empty()) return 0.0;
    if (offer_budget_ >= 0 && !any_active(i)) return 0.0;
    const int index =
        config_.schedule == ScheduleKind::fixed
            ? fixed_decay_index(round, ladder_)
            : permuted_decay_index(private_bits_[i], round, ladder_);
    return pow2_neg(index);
  }

  double expected_transmitters(int round) const override {
    double sum = 0.0;
    for (int b = 0; b < holder_bits_.blocks(); ++b) {
      for_each_bit(holder_bits_.word(b), b * 64, [&](int v, std::uint64_t) {
        sum += transmit_probability(v, round);
      });
    }
    return sum;
  }

 private:
  void acquire(int v, const Message& m) {
    const std::size_t i = static_cast<std::size_t>(v);
    if (std::find(seen_[i].begin(), seen_[i].end(), m.payload) !=
        seen_[i].end()) {
      return;
    }
    seen_[i].push_back(m.payload);
    if (held_[i].empty()) holder_bits_.set(v);
    held_[i].push_back(m);
    offers_left_[i].push_back(offer_budget_);  // -1 (unbounded) or > 0
    ++live_tokens_[i];
  }

  /// O(1) via the live-token counter, so expected_transmitters stays
  /// O(holders) as the AlgorithmKernel contract advertises.
  bool any_active(std::size_t i) const { return live_tokens_[i] > 0; }

  void active_tokens(std::size_t i) {
    active_scratch_.clear();
    for (std::size_t t = 0; t < offers_left_[i].size(); ++t) {
      if (offers_left_[i][t] != 0) active_scratch_.push_back(t);
    }
  }

  GossipConfig config_;
  int ladder_ = 0;
  int offer_budget_ = -1;  ///< per-token offer budget; -1 = unbounded
  DecayCoins coins_;
  NodeIds ids_;
  NodeBitmap holder_bits_;  ///< nodes with a non-empty held set
  std::vector<std::vector<Message>> held_;
  std::vector<std::vector<int>> offers_left_;
  std::vector<int> live_tokens_;  ///< per node: tokens with offers_left != 0
  std::vector<std::vector<std::uint64_t>> seen_;
  std::vector<std::size_t> next_offer_;
  std::vector<BitString> private_bits_;
  std::vector<std::size_t> active_scratch_;
};

// ---------------------------------------------------------------------------
// Geographic local broadcast (GeoLocalBroadcast).
// ---------------------------------------------------------------------------

class GeoLocalKernel final : public AlgorithmKernel {
 public:
  explicit GeoLocalKernel(GeoLocalConfig config) : config_(config) {}

  void init(const KernelSetup& setup, std::span<Rng> rngs) override {
    const int n = setup.net->n();
    ids_.init(setup);
    const GeoLocalLayout layout =
        geo_local_layout(config_, setup.n, setup.max_degree);
    logn_ = layout.logn;
    ladder_ = layout.ladder;
    phases_ = layout.phases;
    phase_rounds_ = layout.phase_rounds;
    iterations_ = layout.iterations;
    const int width = schedule_chunk_width(ladder_);
    const int stride = kParticipationWidth + iteration_length() * width;
    seed_bits_ = config_.seed_bits > 0 ? config_.seed_bits
                                       : std::max(64, iterations_ * stride);

    in_b_.assign(static_cast<std::size_t>(n), 0);
    message_.resize(static_cast<std::size_t>(n));
    active_.assign(static_cast<std::size_t>(n), 1);
    leader_now_.assign(static_cast<std::size_t>(n), 0);
    was_leader_.assign(static_cast<std::size_t>(n), 0);
    own_seed_.resize(static_cast<std::size_t>(n));
    pending_seed_.resize(static_cast<std::size_t>(n));
    pending_origin_.assign(static_cast<std::size_t>(n), -1);
    seed_.resize(static_cast<std::size_t>(n));
    seed_origin_.assign(static_cast<std::size_t>(n), -1);

    for (const auto& [v, env] : setup.roles) {
      if (!env.in_broadcast_set) continue;
      in_b_[static_cast<std::size_t>(v)] = 1;
      b_nodes_.push_back(v);
      message_[static_cast<std::size_t>(v)] = env.initial_message;
    }
    for (int v = 0; v < n; ++v) {
      const std::size_t i = static_cast<std::size_t>(v);
      if (!config_.shared_seeds) {
        // Ablation: private, uncoordinated seeds; no initialization stage.
        commit(v, fresh_seed(rngs[i]), v);
        active_[i] = 0;
      } else {
        uncommitted_.push_back(v);
      }
    }
  }

  void on_round_batch(int round, TxBatch& out, std::span<Rng> rngs) override {
    const RoundPosition pos = locate(round);
    switch (pos.stage) {
      case Stage::init_election: {
        // In-place partition keeps `uncommitted_` ascending: elected nodes
        // move to `leaders_`, the rest stay.
        const double p = pow2_neg(phases_ - pos.phase);
        std::size_t keep = 0;
        for (const int v : uncommitted_) {
          const std::size_t i = static_cast<std::size_t>(v);
          if (rngs[i].bernoulli(p)) {
            leader_now_[i] = 1;
            was_leader_[i] = 1;
            own_seed_[i] = fresh_seed(rngs[i]);
            commit(v, own_seed_[i], v);
            leaders_.push_back(v);
          } else {
            uncommitted_[keep++] = v;
          }
        }
        uncommitted_.resize(keep);
        return;  // everyone listens in an election round
      }
      case Stage::init_dissemination: {
        const double p = 1.0 / static_cast<double>(logn_);
        for (const int v : leaders_) {
          const std::size_t i = static_cast<std::size_t>(v);
          if (rngs[i].bernoulli(p)) {
            Message m;
            m.kind = MessageKind::seed;
            m.source = ids_(v);
            m.payload = static_cast<std::uint64_t>(pos.phase);
            m.shared_bits = own_seed_[i];
            out.transmit(v, std::move(m));
          }
        }
        return;
      }
      case Stage::broadcast: {
        if (pos.iteration != cached_iteration_) {
          // The participation decision is per (node, iteration) and derived
          // from the committed seed, so the participant list is rebuilt
          // once per iteration, not per round.
          participants_.clear();
          for (const int v : b_nodes_) {
            if (seed_[static_cast<std::size_t>(v)] != nullptr &&
                participates(v, pos.iteration)) {
              participants_.push_back(v);
            }
          }
          cached_iteration_ = pos.iteration;
        }
        for (const int v : participants_) {
          const int index = broadcast_index(v, pos.iteration, pos.offset);
          if (rngs[static_cast<std::size_t>(v)].coin_pow2(index)) {
            out.transmit(v, message_[static_cast<std::size_t>(v)]);
          }
        }
        return;
      }
      case Stage::done:
        return;
    }
  }

  void on_feedback_batch(const FeedbackView& fb, std::span<Rng> rngs) override {
    // Capture the first seed heard while active and not a leader.
    for_each_delivery(fb, [&](const Delivery& d) {
      const std::size_t u = static_cast<std::size_t>(d.receiver);
      if (!active_[u] || leader_now_[u] || pending_seed_[u] != nullptr) {
        return;
      }
      const Message& m = fb.sent[static_cast<std::size_t>(d.transmitter_index)];
      if (m.kind != MessageKind::seed || m.shared_bits == nullptr) return;
      pending_seed_[u] = m.shared_bits;
      pending_origin_[u] = m.source;
    });

    const RoundPosition pos = locate(fb.round);
    const bool end_of_phase = pos.stage == Stage::init_dissemination &&
                              pos.offset == phase_length() - 1;
    if (!end_of_phase) return;
    // Leaders finish their phase and become inactive (seed already
    // committed at election).
    for (const int v : leaders_) {
      leader_now_[static_cast<std::size_t>(v)] = 0;
      active_[static_cast<std::size_t>(v)] = 0;
    }
    leaders_.clear();
    // Active non-leaders that heard a seed commit to it.
    std::size_t keep = 0;
    for (const int v : uncommitted_) {
      const std::size_t i = static_cast<std::size_t>(v);
      if (pending_seed_[i] != nullptr) {
        commit(v, pending_seed_[i], pending_origin_[i]);
        active_[i] = 0;
      } else {
        uncommitted_[keep++] = v;
      }
    }
    uncommitted_.resize(keep);
    // Stage end: anyone still uncommitted self-commits (§4.3).
    if (fb.round == init_length() - 1) {
      for (const int v : uncommitted_) {
        const std::size_t i = static_cast<std::size_t>(v);
        commit(v, fresh_seed(rngs[i]), v);
        active_[i] = 0;
      }
      uncommitted_.clear();
    }
  }

  bool has_message(int v) const override {
    return in_b_[static_cast<std::size_t>(v)] != 0;
  }

  double transmit_probability(int v, int round) const override {
    const std::size_t i = static_cast<std::size_t>(v);
    const RoundPosition pos = locate(round);
    switch (pos.stage) {
      case Stage::init_election:
        return 0.0;
      case Stage::init_dissemination:
        return leader_now_[i] ? 1.0 / static_cast<double>(logn_) : 0.0;
      case Stage::broadcast: {
        if (!in_b_[i] || seed_[i] == nullptr) return 0.0;
        if (!participates(v, pos.iteration)) return 0.0;
        return pow2_neg(broadcast_index(v, pos.iteration, pos.offset));
      }
      case Stage::done:
        return 0.0;
    }
    return 0.0;
  }

 private:
  static constexpr int kParticipationWidth = 16;

  enum class Stage { init_election, init_dissemination, broadcast, done };
  struct RoundPosition {
    Stage stage = Stage::done;
    int phase = 0;
    int iteration = 0;
    int offset = 0;
  };

  int phase_length() const { return 1 + phase_rounds_; }
  int iteration_length() const { return config_.gamma * ladder_; }
  int init_length() const {
    return config_.shared_seeds ? phases_ * phase_length() : 0;
  }

  RoundPosition locate(int round) const {
    RoundPosition pos;
    const int init_len = init_length();
    if (round < init_len) {
      pos.phase = round / phase_length();
      pos.offset = round % phase_length();
      pos.stage = pos.offset == 0 ? Stage::init_election
                                  : Stage::init_dissemination;
      return pos;
    }
    const int r = round - init_len;
    const int iter = r / iteration_length();
    if (iter >= iterations_) return pos;  // done
    pos.stage = Stage::broadcast;
    pos.iteration = iter;
    pos.offset = r % iteration_length();
    return pos;
  }

  std::shared_ptr<const BitString> fresh_seed(Rng& rng) const {
    return std::make_shared<const BitString>(
        BitString::random(rng, static_cast<std::size_t>(seed_bits_)));
  }

  void commit(int v, std::shared_ptr<const BitString> seed, int origin) {
    DC_ASSERT(seed != nullptr);
    seed_[static_cast<std::size_t>(v)] = std::move(seed);
    seed_origin_[static_cast<std::size_t>(v)] = origin;
  }

  bool participates(int v, int iteration) const {
    const auto& seed = seed_[static_cast<std::size_t>(v)];
    DC_ASSERT(seed != nullptr);
    const int width = schedule_chunk_width(ladder_);
    const std::size_t stride = static_cast<std::size_t>(
        kParticipationWidth + iteration_length() * width);
    const std::uint64_t chunk = seed->chunk_cyclic(
        static_cast<std::size_t>(iteration) * stride, kParticipationWidth);
    const std::uint64_t threshold =
        (std::uint64_t{1} << kParticipationWidth) /
        static_cast<std::uint64_t>(logn_);
    return chunk < threshold;
  }

  int broadcast_index(int v, int iteration, int offset) const {
    const auto& seed = seed_[static_cast<std::size_t>(v)];
    DC_ASSERT(seed != nullptr);
    const int width = schedule_chunk_width(ladder_);
    const std::size_t stride = static_cast<std::size_t>(
        kParticipationWidth + iteration_length() * width);
    const std::size_t pos = static_cast<std::size_t>(iteration) * stride +
                            static_cast<std::size_t>(kParticipationWidth) +
                            static_cast<std::size_t>(offset) *
                                static_cast<std::size_t>(width);
    const std::uint64_t chunk = seed->chunk_cyclic(pos, width);
    return 1 + static_cast<int>(chunk % static_cast<std::uint64_t>(ladder_));
  }

  GeoLocalConfig config_;
  NodeIds ids_;
  int logn_ = 0;
  int ladder_ = 0;
  int phases_ = 0;
  int phase_rounds_ = 0;
  int iterations_ = 0;
  int seed_bits_ = 0;

  std::vector<char> in_b_;
  std::vector<Message> message_;
  std::vector<char> active_;
  std::vector<char> leader_now_;
  std::vector<char> was_leader_;
  std::vector<std::shared_ptr<const BitString>> own_seed_;
  std::vector<std::shared_ptr<const BitString>> pending_seed_;
  std::vector<int> pending_origin_;
  std::vector<std::shared_ptr<const BitString>> seed_;
  std::vector<int> seed_origin_;

  std::vector<int> b_nodes_;      ///< ascending
  std::vector<int> uncommitted_;  ///< active && !seed, ascending
  std::vector<int> leaders_;      ///< current-phase leaders, ascending
  std::vector<int> participants_; ///< current-iteration B participants
  int cached_iteration_ = -1;
};

}  // namespace

GeoLocalLayout geo_local_layout(const GeoLocalConfig& config, int n,
                                int max_degree) {
  GeoLocalLayout layout;
  layout.logn = clog2(static_cast<std::uint64_t>(n > 1 ? n : 2));
  layout.ladder = config.ladder > 0
                      ? config.ladder
                      : clog2(2 * static_cast<std::uint64_t>(
                                      max_degree > 0 ? max_degree : 1));
  layout.phases =
      clog2(static_cast<std::uint64_t>(max_degree > 1 ? max_degree : 2));
  const int logn = layout.logn;
  layout.phase_rounds =
      config.phase_rounds > 0
          ? config.phase_rounds
          : std::max(1, static_cast<int>(config.c_init * logn * logn));
  layout.iterations =
      config.iterations > 0
          ? config.iterations
          : std::max(1, static_cast<int>(config.c_iter * logn * logn));
  layout.iteration_length = config.gamma * layout.ladder;
  return layout;
}

KernelFactory decay_global_kernel_factory(DecayGlobalConfig config) {
  return [config] { return std::make_unique<DecayGlobalKernel>(config); };
}

KernelFactory decay_local_kernel_factory(DecayLocalConfig config) {
  return [config] { return std::make_unique<DecayLocalKernel>(config); };
}

KernelFactory round_robin_kernel_factory(RoundRobinConfig config) {
  return [config] { return std::make_unique<RoundRobinKernel>(config); };
}

KernelFactory robust_mix_kernel_factory(RobustMixConfig config) {
  return [config] { return std::make_unique<RobustMixKernel>(config); };
}

KernelFactory gossip_kernel_factory(GossipConfig config) {
  return [config] { return std::make_unique<GossipKernel>(config); };
}

KernelFactory geo_local_kernel_factory(GeoLocalConfig config) {
  return [config] { return std::make_unique<GeoLocalKernel>(config); };
}

}  // namespace dualcast
