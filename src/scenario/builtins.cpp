// Built-in registry entries: every topology, algorithm, adversary, and
// problem in the library, addressable by spec string.

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>

#include "adversary/bracelet_presim.hpp"
#include "adversary/dense_sparse.hpp"
#include "adversary/offline_collider.hpp"
#include "adversary/schedule_attack.hpp"
#include "adversary/static_adversaries.hpp"
#include "core/factories.hpp"
#include "core/gossip.hpp"
#include "core/kernels.hpp"
#include "core/robust_mix.hpp"
#include "scenario/registries.hpp"
#include "util/mathutil.hpp"
#include "util/rng.hpp"

namespace dualcast::scenario {
namespace {

// ---------------------------------------------------------------------------
// Topologies
// ---------------------------------------------------------------------------

Topology with_clique_metadata(DualCliqueNet clique, const SpecArgs& args) {
  Topology topo;
  topo.spec = args.spec();
  topo.default_source = 1;
  topo.node_sets["side_a"] = clique.side_a;
  topo.node_sets["side_b"] = clique.side_b;
  topo.marks["bridge_a"] = clique.bridge_a;
  topo.marks["bridge_b"] = clique.bridge_b;
  auto shared = std::make_shared<DualCliqueNet>(std::move(clique));
  topo.dual_clique = shared;
  topo.net_holder = std::shared_ptr<const DualGraph>(shared, &shared->net);
  return topo;
}

Topology with_geo_metadata(GeoNet geo, const SpecArgs& args) {
  Topology topo;
  topo.spec = args.spec();
  auto shared = std::make_shared<GeoNet>(std::move(geo));
  topo.geo = shared;
  topo.net_holder = std::shared_ptr<const DualGraph>(shared, &shared->net);
  return topo;
}

void add_topologies(TopologyRegistry& r) {
  r.add("dual_clique", "the §3 dual clique: dual_clique(n[,bridge_index])",
        [](const SpecArgs& args, std::uint64_t /*seed*/) {
          args.expect_count(1, 2);
          const int n = args.int_at(0);
          return with_clique_metadata(
              dual_clique(n, args.int_or(1, n / 4)), args);
        });
  r.add("dual_clique_g",
        "the reliable layer of the dual clique as a protocol-model network: "
        "dual_clique_g(n[,bridge_index])",
        [](const SpecArgs& args, std::uint64_t /*seed*/) {
          args.expect_count(1, 2);
          const int n = args.int_at(0);
          const int bridge_index = args.int_or(1, n / 4);
          DualCliqueNet clique = dual_clique(n, bridge_index);
          clique.net = DualGraph::protocol_dual_clique(n, bridge_index);
          return with_clique_metadata(std::move(clique), args);
        });
  r.add("bracelet", "the §4.2 bracelet: bracelet(n_target[,clasp_index])",
        [](const SpecArgs& args, std::uint64_t /*seed*/) {
          args.expect_count(1, 2);
          BraceletNet br = bracelet(args.int_at(0), args.int_or(1, 0));
          Topology topo;
          topo.spec = args.spec();
          topo.node_sets["heads_a"] = br.heads_a;
          topo.node_sets["heads_b"] = br.heads_b;
          topo.marks["clasp_a"] = br.clasp_a;
          topo.marks["clasp_b"] = br.clasp_b;
          topo.marks["band_len"] = br.band_len;
          auto shared = std::make_shared<BraceletNet>(std::move(br));
          topo.bracelet = shared;
          topo.net_holder =
              std::shared_ptr<const DualGraph>(shared, &shared->net);
          return topo;
        });
  r.add("line", "protocol-model path: line(n)",
        [](const SpecArgs& args, std::uint64_t /*seed*/) {
          args.expect_count(1, 1);
          Topology topo;
          topo.spec = args.spec();
          topo.net_holder = std::make_shared<DualGraph>(
              DualGraph::protocol(line_graph(args.int_at(0))));
          return topo;
        });
  r.add("line_overlay",
        "path + random unreliable shortcuts: line_overlay(n,c) adds each "
        "non-edge to G' with probability c/n",
        [](const SpecArgs& args, std::uint64_t seed) {
          args.expect_count(2, 2);
          const int n = args.int_at(0);
          Rng rng(seed);
          Topology topo;
          topo.spec = args.spec();
          topo.net_holder = std::make_shared<DualGraph>(
              with_random_gprime(line_graph(n), args.double_at(1) / n, rng));
          return topo;
        });
  r.add("line_kn",
        "path under a complete G' — maximal unreliability, served by the "
        "implicit complement-of-sparse overlay: line_kn(n)",
        [](const SpecArgs& args, std::uint64_t /*seed*/) {
          args.expect_count(1, 1);
          Topology topo;
          topo.spec = args.spec();
          topo.net_holder = std::make_shared<DualGraph>(
              with_complete_gprime(line_graph(args.int_at(0))));
          return topo;
        });
  r.add("grid", "protocol-model 4-neighbor grid: grid(rows,cols)",
        [](const SpecArgs& args, std::uint64_t /*seed*/) {
          args.expect_count(2, 2);
          Topology topo;
          topo.spec = args.spec();
          topo.net_holder = std::make_shared<DualGraph>(
              DualGraph::protocol(grid_graph(args.int_at(0), args.int_at(1))));
          return topo;
        });
  r.add("jgrid",
        "jittered-grid geographic network: jgrid(rows,cols,spacing,jitter,r)",
        [](const SpecArgs& args, std::uint64_t seed) {
          args.expect_count(5, 5);
          Rng rng(seed);
          return with_geo_metadata(
              jittered_grid_geo(args.int_at(0), args.int_at(1),
                                args.double_at(2), args.double_at(3),
                                args.double_at(4), rng),
              args);
        });
  r.add("jgrid_g",
        "reliable layer of a jittered grid as a protocol-model network: "
        "jgrid_g(rows,cols,spacing,jitter,r)",
        [](const SpecArgs& args, std::uint64_t seed) {
          args.expect_count(5, 5);
          Rng rng(seed);
          Topology topo = with_geo_metadata(
              jittered_grid_geo(args.int_at(0), args.int_at(1),
                                args.double_at(2), args.double_at(3),
                                args.double_at(4), rng),
              args);
          topo.net_holder = std::make_shared<DualGraph>(
              DualGraph::protocol(topo.geo->net.g()));
          return topo;
        });
  r.add("random_geo",
        "uniform random geographic field with grey zone: "
        "random_geo(n,side,r)",
        [](const SpecArgs& args, std::uint64_t seed) {
          args.expect_count(3, 3);
          Rng rng(seed);
          GeoParams params;
          params.n = args.int_at(0);
          params.side = args.double_at(1);
          params.r = args.double_at(2);
          return with_geo_metadata(random_geometric(params, rng), args);
        });
}

// ---------------------------------------------------------------------------
// Algorithms
// ---------------------------------------------------------------------------

ScheduleKind parse_schedule(const SpecArgs& args, int i, ScheduleKind fallback) {
  const std::string kind = args.str_or(i, "");
  if (kind.empty()) return fallback;
  if (kind == "fixed") return ScheduleKind::fixed;
  if (kind == "permuted") return ScheduleKind::permuted;
  throw ScenarioError(str("spec \"", args.spec(), "\": schedule must be "
                          "\"fixed\" or \"permuted\", got \"", kind, "\""));
}

// Config parsing is shared between the scalar-algorithm and batch-kernel
// registries so the same spec string always resolves to the same
// configuration on both engine paths.

DecayGlobalConfig parse_decay_global(const SpecArgs& args) {
  args.expect_count(0, 2);
  DecayGlobalConfig cfg = DecayGlobalConfig::fast(
      parse_schedule(args, 0, ScheduleKind::permuted));
  const std::string mode = args.str_or(1, "windowed");
  if (mode == "persistent") {
    cfg.calls = DecayGlobalConfig::kUnbounded;
  } else if (mode != "windowed") {
    throw ScenarioError(str("spec \"", args.spec(),
                            "\": mode must be \"windowed\" or "
                            "\"persistent\", got \"", mode, "\""));
  }
  return cfg;
}

DecayLocalConfig parse_decay_local(const SpecArgs& args) {
  args.expect_count(0, 1);
  DecayLocalConfig cfg;
  cfg.schedule = parse_schedule(args, 0, ScheduleKind::fixed);
  return cfg;
}

GeoLocalConfig parse_geo_local(const SpecArgs& args) {
  args.expect_count(0, 1);
  GeoLocalConfig cfg = GeoLocalConfig::fast();
  const std::string seeds = args.str_or(0, "shared");
  if (seeds == "private") {
    cfg.shared_seeds = false;
  } else if (seeds != "shared") {
    throw ScenarioError(str("spec \"", args.spec(),
                            "\": seed mode must be \"shared\" or "
                            "\"private\", got \"", seeds, "\""));
  }
  return cfg;
}

RoundRobinConfig parse_round_robin(const SpecArgs& args) {
  args.expect_count(0, 1);
  const std::string mode = args.str_or(0, "relay");
  if (mode != "relay" && mode != "norelay") {
    throw ScenarioError(str("spec \"", args.spec(),
                            "\": mode must be \"relay\" or "
                            "\"norelay\", got \"", mode, "\""));
  }
  return RoundRobinConfig{mode == "relay"};
}

GossipConfig parse_gossip(const SpecArgs& args) {
  args.expect_count(0, 1);
  GossipConfig cfg;
  const std::string mode = args.str_or(0, "saturate");
  if (mode == "quiesce") {
    cfg.quiesce = true;
  } else if (mode != "saturate") {
    throw ScenarioError(str("spec \"", args.spec(),
                            "\": mode must be \"saturate\" or "
                            "\"quiesce\", got \"", mode, "\""));
  }
  return cfg;
}

RobustMixConfig parse_robust_mix(const SpecArgs& args) {
  args.expect_count(0, 0);
  return RobustMixConfig{};
}

void add_algorithms(AlgorithmRegistry& r) {
  r.add("decay_global",
        "§4.1 (permuted) Decay global broadcast: "
        "decay_global([fixed|permuted][,persistent])",
        [](const SpecArgs& args) {
          return decay_global_factory(parse_decay_global(args));
        });
  r.add("decay_local",
        "[8] Decay local broadcast: decay_local([fixed|permuted])",
        [](const SpecArgs& args) {
          return decay_local_factory(parse_decay_local(args));
        });
  r.add("geo_local",
        "§4.3 geographic local broadcast: geo_local([shared|private])",
        [](const SpecArgs& args) {
          return geo_local_factory(parse_geo_local(args));
        });
  r.add("round_robin",
        "deterministic round robin (footnote 4): round_robin([relay|norelay])",
        [](const SpecArgs& args) {
          return round_robin_factory(parse_round_robin(args));
        });
  r.add("gossip",
        "decay-style k-gossip rumor spreading: gossip([saturate|quiesce]) — "
        "quiesce retires each token after its decay-call budget",
        [](const SpecArgs& args) {
          return gossip_factory(parse_gossip(args));
        });
  r.add("robust_mix",
        "round-robin/permuted-Decay interleaving hedge: robust_mix()",
        [](const SpecArgs& args) {
          return robust_mix_factory(parse_robust_mix(args));
        });
}

void add_kernels(KernelRegistry& r) {
  r.add("decay_global",
        "batch kernel of decay_global([fixed|permuted][,persistent])",
        [](const SpecArgs& args) {
          return decay_global_kernel_factory(parse_decay_global(args));
        });
  r.add("decay_local", "batch kernel of decay_local([fixed|permuted])",
        [](const SpecArgs& args) {
          return decay_local_kernel_factory(parse_decay_local(args));
        });
  r.add("geo_local", "batch kernel of geo_local([shared|private])",
        [](const SpecArgs& args) {
          return geo_local_kernel_factory(parse_geo_local(args));
        });
  r.add("round_robin", "batch kernel of round_robin([relay|norelay])",
        [](const SpecArgs& args) {
          return round_robin_kernel_factory(parse_round_robin(args));
        });
  r.add("gossip", "batch kernel of gossip([saturate|quiesce])",
        [](const SpecArgs& args) {
          return gossip_kernel_factory(parse_gossip(args));
        });
  r.add("robust_mix", "batch kernel of robust_mix()",
        [](const SpecArgs& args) {
          return robust_mix_kernel_factory(parse_robust_mix(args));
        });
}

// ---------------------------------------------------------------------------
// Adversaries
// ---------------------------------------------------------------------------

void add_adversaries(AdversaryRegistry& r) {
  r.add("none", "no G'-only edges ever (protocol model on G)",
        [](const SpecArgs& args, const Topology&) {
          args.expect_count(0, 0);
          return LinkProcessFactory(
              [] { return std::make_unique<NoExtraEdges>(); });
        });
  r.add("all", "every G'-only edge always on (protocol model on G')",
        [](const SpecArgs& args, const Topology&) {
          args.expect_count(0, 0);
          return LinkProcessFactory(
              [] { return std::make_unique<AllExtraEdges>(); });
        });
  r.add("iid", "i.i.d. random edge availability: iid(p)",
        [](const SpecArgs& args, const Topology&) {
          args.expect_count(1, 1);
          const double p = args.double_at(0);
          return LinkProcessFactory(
              [p] { return std::make_unique<RandomIidEdges>(p); });
        });
  r.add("flicker", "periodic square wave: flicker(on_rounds,off_rounds)",
        [](const SpecArgs& args, const Topology&) {
          args.expect_count(2, 2);
          const int on = args.int_at(0);
          const int off = args.int_at(1);
          return LinkProcessFactory(
              [on, off] { return std::make_unique<FlickerEdges>(on, off); });
        });
  r.add("anti_schedule",
        "§4.1 oblivious attack on fixed Decay, predictions computed from the "
        "public schedule: anti_schedule([threshold_factor])",
        [](const SpecArgs& args, const Topology& topo) {
          args.expect_count(0, 1);
          const double threshold = args.double_or(0, 0.5);
          const int n = topo.n();
          const int ladder = clog2(static_cast<std::uint64_t>(n));
          const int window_start = 4 * ladder;
          return LinkProcessFactory([n, ladder, window_start, threshold] {
            ScheduleAttackConfig cfg;
            cfg.predicted_transmitters = [n, ladder,
                                          window_start](int round) {
              if (round == 0) return 1.0;
              if (round < window_start) return 0.0;
              return (n / 2.0) * fixed_decay_probability(round, ladder);
            };
            cfg.threshold_factor = threshold;
            return std::make_unique<ScheduleAttackOblivious>(cfg);
          });
        });
  r.add("dense_sparse",
        "Theorem 3.1 online adaptive dense/sparse attack: "
        "dense_sparse([threshold_factor])",
        [](const SpecArgs& args, const Topology&) {
          args.expect_count(0, 1);
          const double tau = args.double_or(0, 0.5);
          return LinkProcessFactory([tau] {
            return std::make_unique<DenseSparseOnline>(
                DenseSparseConfig{tau});
          });
        });
  r.add("collider", "offline adaptive greedy collider",
        [](const SpecArgs& args, const Topology&) {
          args.expect_count(0, 0);
          return LinkProcessFactory(
              [] { return std::make_unique<GreedyColliderOffline>(); });
        });
  r.add("bracelet_presim",
        "Theorem 4.3 oblivious pre-simulation attack (bracelet topologies "
        "only): bracelet_presim([threshold_factor])",
        [](const SpecArgs& args, const Topology& topo) {
          args.expect_count(0, 1);
          if (!topo.bracelet) {
            throw ScenarioError(
                str("spec \"", args.spec(), "\": bracelet_presim requires a "
                    "bracelet topology, got \"", topo.spec, "\""));
          }
          BraceletPresimConfig cfg;
          cfg.threshold_factor = args.double_or(0, 0.3);
          cfg.fallback_none = true;
          auto shared = topo.bracelet;
          return LinkProcessFactory([shared, cfg] {
            return std::make_unique<BraceletPresimOblivious>(*shared, cfg);
          });
        });
}

// ---------------------------------------------------------------------------
// Problems
// ---------------------------------------------------------------------------

/// Resolves a node-set spec against the topology: a named set ("side_a"),
/// "every(k)" (nodes 0, k, 2k, ...), or "first(k)".
std::vector<int> resolve_node_set(const std::string& set_spec,
                                  const Topology& topo) {
  const SpecCall call = parse_call(set_spec);
  const SpecArgs args(call);
  if (call.name == "every") {
    args.expect_count(1, 1);
    const int k = args.int_at(0);
    if (k < 1) {
      throw ScenarioError(str("node set \"", set_spec, "\": stride must be "
                              ">= 1"));
    }
    std::vector<int> out;
    for (int v = 0; v < topo.n(); v += k) out.push_back(v);
    return out;
  }
  if (call.name == "first") {
    args.expect_count(1, 1);
    const int k = args.int_at(0);
    std::vector<int> out;
    for (int v = 0; v < k && v < topo.n(); ++v) out.push_back(v);
    return out;
  }
  return topo.node_set(call.name);
}

/// Resolves a node argument: a literal id or a topology mark name.
int resolve_node(const std::string& node_spec, const Topology& topo) {
  if (!node_spec.empty() &&
      (std::isdigit(static_cast<unsigned char>(node_spec[0])) ||
       node_spec[0] == '-')) {
    errno = 0;
    char* end = nullptr;
    const long value = std::strtol(node_spec.c_str(), &end, 10);
    if (end == node_spec.c_str() || *end != '\0' || errno == ERANGE ||
        value < std::numeric_limits<int>::min() ||
        value > std::numeric_limits<int>::max()) {
      throw ScenarioError(
          str("node \"", node_spec, "\" is not a valid id or mark name"));
    }
    return static_cast<int>(value);
  }
  return topo.mark(node_spec);
}

/// A problem factory that builds its problem on its first call and hands
/// every call a copy. No trial changes what a constructor checks and
/// derives (G's connectivity, a BFS on explicit graphs; local broadcast's
/// receiver set R), so each trial pays a copy instead, and a copy shares
/// no state with the prototype. A build that throws keeps nothing, so
/// every call of an invalid spec throws, as every trial did when each
/// built its own. Not std::call_once: under ThreadSanitizer a call_once
/// whose callable threw spins forever on the next call.
template <typename P, typename Build>
ProblemFactory built_once(Build build) {
  struct Prototype {
    std::mutex mutex;
    std::optional<P> problem;  ///< set once, under the mutex; then const
  };
  auto prototype = std::make_shared<Prototype>();
  return [prototype, build = std::move(build)] {
    {
      const std::lock_guard<std::mutex> lock(prototype->mutex);
      if (!prototype->problem) prototype->problem.emplace(build());
    }
    return std::make_shared<P>(*prototype->problem);
  };
}

void add_problems(ProblemRegistry& r) {
  r.add("global",
        "global broadcast from one source: global([source_id|mark]); the "
        "topology's default source when omitted",
        [](const SpecArgs& args, const Topology& topo) {
          args.expect_count(0, 1);
          const int source = args.count() > 0
                                 ? resolve_node(args.str_at(0), topo)
                                 : topo.default_source;
          auto net = topo.net_holder;
          return built_once<GlobalBroadcastProblem>(
              [net, source] { return GlobalBroadcastProblem(*net, source); });
        });
  r.add("local",
        "local broadcast from a node set: local(<set>[,strict]) with <set> a "
        "named topology set, every(k), or first(k)",
        [](const SpecArgs& args, const Topology& topo) {
          args.expect_count(1, 2);
          std::vector<int> set = resolve_node_set(args.str_at(0), topo);
          const std::string credit_arg = args.str_or(1, "any");
          if (credit_arg != "any" && credit_arg != "strict") {
            throw ScenarioError(str("spec \"", args.spec(),
                                    "\": credit must be \"any\" or "
                                    "\"strict\", got \"", credit_arg, "\""));
          }
          const ReceiverCredit credit = credit_arg == "strict"
                                            ? ReceiverCredit::g_neighbor_only
                                            : ReceiverCredit::any_b_sender;
          auto net = topo.net_holder;
          return built_once<LocalBroadcastProblem>(
              [net, set = std::move(set), credit] {
                return LocalBroadcastProblem(*net, set, credit);
              });
        });
  r.add("gossip",
        "k-gossip with sources spread over the id space: gossip(k)",
        [](const SpecArgs& args, const Topology& topo) {
          args.expect_count(1, 1);
          const int k = args.int_at(0);
          if (k < 1) {
            throw ScenarioError(
                str("spec \"", args.spec(), "\": k must be >= 1"));
          }
          std::vector<int> sources;
          for (int t = 0; t < k; ++t) sources.push_back(t * topo.n() / k);
          auto net = topo.net_holder;
          return built_once<GossipProblem>(
              [net, sources = std::move(sources)] {
                return GossipProblem(*net, sources);
              });
        });
  r.add("assignment",
        "role assignment only, never reports solved (driven executions): "
        "assignment([source_id|mark])",
        [](const SpecArgs& args, const Topology& topo) {
          args.expect_count(0, 1);
          const int source = args.count() > 0
                                 ? resolve_node(args.str_at(0), topo)
                                 : -1;
          const int n = topo.n();
          return built_once<AssignmentProblem>(
              [n, source] { return AssignmentProblem(n, source, {}); });
        });
}

}  // namespace

void register_builtin_topologies(TopologyRegistry& registry) {
  add_topologies(registry);
}
void register_builtin_algorithms(AlgorithmRegistry& registry) {
  add_algorithms(registry);
}
void register_builtin_adversaries(AdversaryRegistry& registry) {
  add_adversaries(registry);
}
void register_builtin_problems(ProblemRegistry& registry) {
  add_problems(registry);
}
void register_builtin_kernels(KernelRegistry& registry) {
  add_kernels(registry);
}

}  // namespace dualcast::scenario
