// Engine micro-throughput: rounds/second across network shapes, adversary
// classes, and both kernel paths of the one engine — the scalar adapter
// (rows labeled "scalar", what --engine scalar forces) vs the native batch
// kernels — every piece built from the scenario registries. Not a paper
// experiment — this keeps the harness honest about the cost of the attack
// sweeps, and its JSON artifact is the machine-readable perf trajectory CI
// diffs per commit (bench/compare_bench.py).
//
//   sim_throughput [--out FILE] [--min-time SECONDS] [--filter SUBSTR]
//                  [--scale]
//
// Emits one JSON row per (scenario, engine): {"scenario", "engine",
// "rounds_per_sec", "rounds", "reps"}. The headline row is
// jgrid-geo-iid-n576 — Figure-1-cell-shaped local broadcast under i.i.d.
// link loss — whose kernel-path rounds/s is the number quoted in README
// "Performance".
//
// The scale/ cases mirror the catalog's scale/ scenario tier (grids on the
// sweep + word-parallel RNG at n >= 4096; implicit dual cliques through
// n = 65536). They are measured on native kernels only, as
// {kernel, kernel-word} — the kernel-word / kernel ratio is the word-RNG
// speedup the README quotes. The default run includes the n = 4096 sizes
// and every implicit-representation dual clique (cheap at any n) so CI's
// BENCH artifact tracks the regime; --scale adds the n = 16384 / 65536
// grids, whose explicit geometry is expensive to construct.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "scenario/cli.hpp"
#include "scenario/registries.hpp"
#include "scenario/scenario.hpp"
#include "sim/kernel_execution.hpp"
#include "util/strfmt.hpp"

namespace dualcast {
namespace {

using scenario::EnginePath;
using scenario::Topology;

struct BenchCase {
  std::string name;
  std::string topology;
  std::string algorithm;
  std::string adversary;
  std::string problem;
  int max_rounds = 256;
  std::uint64_t seed = 7;
  /// scale/ tier: native kernels only ({kernel, kernel-word} rows); the
  /// heaviest sizes additionally hide behind --scale.
  bool scale_tier = false;
  bool heavy = false;
};

std::vector<BenchCase> bench_cases(bool include_heavy) {
  std::vector<BenchCase> cases = {
      {"dual_clique-decay-none-n256", "dual_clique(256)",
       "decay_global(fixed,persistent)", "none", "assignment(0)", 256, 7},
      {"dual_clique-decay-iid-n256", "dual_clique(256)",
       "decay_global(fixed,persistent)", "iid(0.3)", "assignment(0)", 256, 7},
      {"dual_clique-decay-dense_sparse-n256", "dual_clique(256)",
       "decay_global(fixed,persistent)", "dense_sparse(0.5)", "assignment(0)",
       256, 7},
      {"dual_clique-decay-collider-n256", "dual_clique(256)",
       "decay_global(fixed,persistent)", "collider", "assignment(0)", 256, 7},
      {"dual_clique-decay-dense_sparse-n1024", "dual_clique(1024)",
       "decay_global(fixed,persistent)", "dense_sparse(0.5)", "assignment(0)",
       128, 7},
      {"jgrid-geo-iid-n64", "jgrid(8,8,0.5,0.05,2.0)", "geo_local",
       "iid(0.3)", "local(every(3))", 512, 11},
      {"jgrid-geo-iid-n576", "jgrid(24,24,0.5,0.05,2.0)", "geo_local",
       "iid(0.3)", "local(every(3))", 512, 11},
      {"jgrid-robin-iid-n576", "jgrid(24,24,0.5,0.05,2.0)", "round_robin",
       "iid(0.3)", "local(every(3))", 512, 11},
      // The scale/ tier (see the catalog's scale/ scenarios). Fixed round
      // caps keep a rep's cost bounded — throughput, not completion, is
      // measured here. Every dual clique here runs on the implicit
      // representation (the generator switches at n >= 2048 — including
      // the n = 4096 rows, whose path changed accordingly), so even
      // n = 65536 is cheap enough for the default (CI-uploaded) set.
      {"scale/dual_clique-decay-dense_sparse-n4096", "dual_clique(4096)",
       "decay_global(fixed,persistent)", "dense_sparse(0.5)", "assignment(0)",
       128, 7, true},
      {"scale/dual_clique-decay-collider-n4096", "dual_clique(4096)",
       "decay_global(fixed,persistent)", "collider", "assignment(0)", 128, 7,
       true},
      {"scale/dual_clique-decay-dense_sparse-n16384", "dual_clique(16384)",
       "decay_global(fixed,persistent)", "dense_sparse(0.5)", "assignment(0)",
       128, 7, true},
      {"scale/dual_clique-decay-collider-n16384", "dual_clique(16384)",
       "decay_global(fixed,persistent)", "collider", "assignment(0)", 128, 7,
       true},
      {"scale/dual_clique-decay-dense_sparse-n65536", "dual_clique(65536)",
       "decay_global(fixed,persistent)", "dense_sparse(0.5)", "assignment(0)",
       128, 7, true},
      {"scale/dual_clique-decay-collider-n65536", "dual_clique(65536)",
       "decay_global(fixed,persistent)", "collider", "assignment(0)", 128, 7,
       true},
      {"scale/jgrid-decay-iid-n4096", "jgrid(64,64,0.5,0.05,2.0)",
       "decay_local", "iid(0.3)", "local(every(3))", 512, 11, true},
      {"scale/jgrid-decay-iid-n16384", "jgrid(128,128,0.5,0.05,2.0)",
       "decay_local", "iid(0.3)", "local(every(3))", 256, 11, true, true},
      {"scale/jgrid-decay-iid-n65536", "jgrid(256,256,0.5,0.05,2.0)",
       "decay_local", "iid(0.3)", "local(every(3))", 128, 11, true, true},
  };
  if (!include_heavy) {
    std::erase_if(cases, [](const BenchCase& c) { return c.heavy; });
  }
  return cases;
}

/// An engine variant measured for one case: the kernel path (`scalar`
/// forces the adapter) plus the RNG discipline.
struct EngineVariant {
  EnginePath path = EnginePath::kernel;
  RngMode rng = RngMode::per_node;
  const char* label = "kernel";
};

std::vector<EngineVariant> engine_variants(const BenchCase& bench) {
  if (bench.scale_tier) {
    return {{EnginePath::kernel, RngMode::per_node, "kernel"},
            {EnginePath::kernel, RngMode::word, "kernel-word"}};
  }
  return {{EnginePath::scalar, RngMode::per_node, "scalar"},
          {EnginePath::kernel, RngMode::per_node, "kernel"}};
}

struct Measurement {
  double rounds_per_sec = 0.0;
  std::int64_t rounds = 0;
  int reps = 0;
};

Measurement run_case(const BenchCase& bench, const Topology& topo,
                     const EngineVariant& engine, double min_seconds) {
  using Clock = std::chrono::steady_clock;
  const ProcessFactory factory =
      scenario::algorithms().build(bench.algorithm);
  const KernelFactory kernel = scenario::build_kernel_or_null(bench.algorithm);
  const LinkProcessFactory adversary =
      scenario::adversaries().build(bench.adversary, topo);
  const scenario::ProblemFactory problem =
      scenario::problems().build(bench.problem, topo);
  const auto config = [&] {
    return ExecutionConfig{}
        .with_seed(bench.seed)
        .with_max_rounds(bench.max_rounds)
        .with_history_policy(HistoryPolicy::lean)
        .with_rng_mode(engine.rng);
  };

  Measurement m;
  const auto start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < min_seconds) {
    std::shared_ptr<Problem> prob = problem();
    std::unique_ptr<AlgorithmKernel> k =
        engine.path == EnginePath::scalar
            ? scenario::select_kernel({}, *prob, factory)
            : scenario::select_kernel(kernel, *prob, factory);
    KernelExecution exec(topo.net(), factory, std::move(k), std::move(prob),
                         adversary(), config());
    exec.run();
    m.rounds += exec.round();
    ++m.reps;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  m.rounds_per_sec = static_cast<double>(m.rounds) / elapsed;
  return m;
}

int run_main(int argc, char** argv) {
  std::string out_path = "BENCH_sim_throughput.json";
  std::string filter;
  double min_seconds = 0.3;
  bool include_heavy = false;
  const std::vector<scenario::Flag> flags = {
      scenario::text_flag("--out", "FILE",
                          "write the JSON rows to FILE (default "
                          "BENCH_sim_throughput.json)",
                          out_path),
      scenario::switch_flag("--scale", "add the n = 16384 / 65536 grids",
                            [&] { include_heavy = true; }),
      {"--min-time", "SECONDS",
       "time each case for at least SECONDS (default 0.3)",
       [&](const std::string& text) {
         char* end = nullptr;
         min_seconds = std::strtod(text.c_str(), &end);
         if (end == text.c_str() || *end != '\0' || !(min_seconds > 0.0)) {
           throw scenario::ScenarioError(str(
               "--min-time: expected a positive number, got \"", text, "\""));
         }
       }},
      scenario::text_flag("--filter", "SUBSTR",
                          "run only the cases whose name contains SUBSTR",
                          filter),
  };
  const scenario::Command command{
      .synopsis = "[options]",
      .about = "Engine rounds/second across network shapes, adversary "
               "classes and both kernel paths, one JSON row per (scenario, "
               "engine)."};
  try {
    if (!scenario::parse_flags(argc, argv, 1, flags, nullptr, command)) {
      return 0;
    }
  } catch (const scenario::ScenarioError& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }

  std::vector<std::string> rows;
  std::printf("%-44s %-12s %14s\n", "scenario", "engine", "rounds/s");
  for (const BenchCase& bench : bench_cases(include_heavy)) {
    if (!filter.empty() && bench.name.find(filter) == std::string::npos) {
      continue;
    }
    // One topology per case, shared by its engine variants (the scale
    // grids/cliques are the expensive part of a case).
    const Topology topo = scenario::topologies().build(bench.topology, 3);
    for (const EngineVariant& engine : engine_variants(bench)) {
      const Measurement m = run_case(bench, topo, engine, min_seconds);
      std::printf("%-44s %-12s %13.1fk\n", bench.name.c_str(), engine.label,
                  m.rounds_per_sec / 1e3);
      std::fflush(stdout);
      rows.push_back(str("{\"scenario\":\"", bench.name, "\",\"engine\":\"",
                         engine.label,
                         "\",\"rounds_per_sec\":",
                         static_cast<std::int64_t>(m.rounds_per_sec),
                         ",\"rounds\":", m.rounds, ",\"reps\":", m.reps,
                         "}"));
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  out << "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << (i > 0 ? ",\n " : "\n ") << rows[i];
  }
  out << "\n]\n";
  std::cout << "\nwrote " << rows.size() << " rows to " << out_path << "\n";
  return 0;
}

}  // namespace
}  // namespace dualcast

int main(int argc, char** argv) { return dualcast::run_main(argc, argv); }
