#pragma once

// A full experiment as a value.
//
// A ScenarioSpec names a topology (with the sweep axis spliced in via the
// "{x}" placeholder), a problem, a metric, a round budget, and a list of
// columns — (algorithm, adversary) pairs measured side by side, exactly one
// table cell each. run_scenarios() executes a selection of them: it builds
// every sweep point's topology once, then measures every column with
// `trials` independent seeds on one work queue (results are bit-identical
// at any worker count because trials are keyed by seed), censoring unsolved
// runs at the round budget. Results carry both the Figure-1-style console
// table and machine-readable JSON rows.
//
// Scenarios themselves live in a registry (scenarios()), so every bench in
// this repository is reachable by name from one driver:
//
//   dualcast_bench --list
//   dualcast_bench fig1/oblivious-global --json out.json

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "scenario/registries.hpp"

namespace dualcast::scenario {

/// One measured table column: an algorithm/adversary pairing, optionally
/// overriding the scenario-level problem (used by summary grids that mix
/// global and local cells at one sweep point).
struct ScenarioColumn {
  std::string label;
  std::string algorithm;      ///< AlgorithmRegistry spec, "{x}" allowed
  std::string adversary;      ///< AdversaryRegistry spec, "{x}" allowed
  std::string problem;        ///< ProblemRegistry spec; empty = scenario's
};

struct ScenarioSpec {
  std::string name;         ///< registry key, e.g. "fig1/online-global"
  std::string title;        ///< banner line
  std::string paper_claim;  ///< the bound being reproduced
  std::string note;         ///< expectation text printed after the table

  std::string topology;         ///< TopologyRegistry spec, "{x}" allowed
  std::string problem = "global";  ///< ProblemRegistry spec, "{x}" allowed
  /// Measurement per trial: "rounds" (rounds to solve) or
  /// "first_receive(<mark>)" (1-based round the marked node first receives).
  std::string metric = "rounds";

  std::string axis = "n";      ///< display name of the swept variable
  std::vector<double> sweep;   ///< values substituted for "{x}"
  /// Sweep value used by --smoke runs; 0 means sweep.front(). Scenarios
  /// whose sweep is pinned large should set a tiny-but-valid value here.
  double smoke_x = 0.0;

  std::vector<ScenarioColumn> columns;

  int trials = 5;
  std::uint64_t base_seed = 1;      ///< trial t uses seed base_seed + t
  std::uint64_t topology_seed = 1;  ///< point i builds with seed + i
  /// Round budget expression over {x, n, topology marks}, e.g. "300*n",
  /// "200*band_len", "3000*x+20000", "2097152".
  std::string max_rounds = "100*n";

  std::vector<std::string> fit;  ///< column labels to shape-fit against x
};

struct CellResult {
  std::string label;
  double median = 0.0;
  double p95 = 0.0;
  int failures = 0;  ///< trials censored at the round budget
  int trials = 0;
  std::vector<double> values;  ///< per-trial, seed order, censored
};

struct PointResult {
  double x = 0.0;
  int n = 0;
  int max_rounds = 0;
  std::map<std::string, int> marks;  ///< topology marks (e.g. band_len)
  std::vector<CellResult> cells;     ///< one per spec column
};

struct ScenarioResult {
  ScenarioSpec spec;  ///< as executed (after overrides)
  std::vector<PointResult> points;
};

/// Which kernels drive the trials on the one engine (KernelExecution). Both
/// produce byte-identical results for every registered algorithm: trials
/// are keyed by seed, and kernels contract to draw-for-draw parity with
/// their scalar algorithms (the catalog-wide equality test enforces it).
/// `kernel` is the fast path; `scalar` forces the scalar adapter — the
/// reference every native kernel is held to — for every algorithm.
enum class EnginePath : std::uint8_t { kernel, scalar };

const char* to_string(EnginePath engine);
const char* to_string(RngMode rng);

struct RunOptions {
  /// Workers draining the one queue of every (scenario × sweep point ×
  /// column × trial) of a run (`--sweep-threads N`, or `--threads N`); 1
  /// runs the queue inline. Results are bit-identical at every count
  /// (trials are keyed by seed, never by scheduling order).
  int sweep_threads = 1;
  /// Engine selection (see EnginePath). Algorithms without a registered
  /// kernel, and problems that read Process objects, transparently run
  /// through the scalar-adapter kernel on the kernel path.
  EnginePath engine = EnginePath::kernel;
  /// History retention requested for every trial execution. `lean` keeps
  /// O(n) running aggregates instead of the O(rounds·n) trace; the engine
  /// falls back to `full` automatically for adversaries/problems that
  /// declare needs_history(), so this is always safe and never changes
  /// measured results.
  HistoryPolicy history = HistoryPolicy::lean;
  /// RNG stream discipline for kernel-path trials (see RngMode in
  /// util/rng.hpp). `per_node` (default) replays byte-identically against
  /// the scalar adapter; `word` batches 64 transmit coins per draw ladder —
  /// same per-trial distribution, different sample paths, so medians may
  /// shift within trial noise. Requires engine == kernel.
  RngMode rng = RngMode::per_node;
  int trials_override = 0; ///< > 0 replaces spec.trials
  bool smoke = false;      ///< single tiny sweep point, 1 trial, capped budget
  int smoke_max_rounds = 50000;
  std::ostream* out = nullptr;  ///< when set, banner/table/fits print here
};

/// Executes one scenario: run_scenarios({&spec}, options).
ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const RunOptions& options = {});

/// Executes several scenarios. Every scenario's plan is prepared (every
/// sweep point built) before any trial runs, so a spec error anywhere in
/// the selection throws ScenarioError first. Then every (scenario × sweep
/// point × column × trial) drains from ONE work queue over
/// options.sweep_threads workers, so `--all` runs keep many-core boxes
/// saturated across scenario boundaries. Results, and printed output
/// (emitted in selection order after the queue drains), are bit-identical
/// at any worker count. Plans for the whole selection are alive at once —
/// peak memory is the sum of the selection's sweep topologies.
std::vector<ScenarioResult> run_scenarios(
    const std::vector<const ScenarioSpec*>& specs,
    const RunOptions& options = {});

/// Prints the banner, per-point table, fits, and note.
void print_result(const ScenarioResult& result, std::ostream& os);

/// Appends one JSON object per (sweep point, column) to `rows` — the
/// machine-readable form of the result, including raw per-trial values.
void append_json_rows(const ScenarioResult& result,
                      std::vector<std::string>& rows);

/// Writes rows as the one JSON-array file format every producer shares —
/// the CLI's --json, the experiment service's merger, and its result
/// cache all emit through here, so their artifacts are byte-comparable.
/// Returns false when the file cannot be written.
bool write_json_rows_file(const std::string& path,
                          const std::vector<std::string>& rows);

/// Deterministic, injective serialization of a spec (length-prefixed
/// fields, no escaping ambiguity). Hashing it yields the spec's identity
/// for the experiment service's job store and result cache.
std::string canonical_spec_string(const ScenarioSpec& spec);

/// FNV-1a over every registered scenario's canonical string, in
/// registration order: the catalog's identity. Service jobs and cache
/// entries record it so results computed against one catalog are never
/// replayed against another.
std::uint64_t catalog_hash();

// ---------------------------------------------------------------------------
// Scenario registry
// ---------------------------------------------------------------------------

class ScenarioCatalog {
 public:
  /// Registers a scenario. Throws ScenarioError on duplicate or empty specs.
  void add(ScenarioSpec spec);

  bool contains(const std::string& name) const;
  /// Throws ScenarioError (listing known names) when absent.
  const ScenarioSpec& get(const std::string& name) const;
  /// Registration order.
  std::vector<const ScenarioSpec*> all() const;
  /// Scenarios whose name equals `prefix` or starts with it. May be empty.
  std::vector<const ScenarioSpec*> match(const std::string& prefix) const;

 private:
  std::vector<ScenarioSpec> order_;
  std::map<std::string, std::size_t> index_;
};

/// The global catalog, seeded with every built-in bench scenario on first
/// use. Downstream code registers more at runtime via .add().
ScenarioCatalog& scenarios();

/// Defined in catalog.cpp.
void register_builtin_scenarios(ScenarioCatalog& catalog);

}  // namespace dualcast::scenario
