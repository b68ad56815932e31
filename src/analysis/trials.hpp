#pragma once

// Repeated-trial primitives of the scenario runner: run a measurement
// function under independent seeds, censor failed trials at a cap, and
// spread work over a shared task queue. Because each trial is keyed by its
// seed — never by scheduling order — a parallel run produces bit-identical
// results to a sequential one.

#include <cstdint>
#include <functional>
#include <vector>

#include "analysis/stats.hpp"

namespace dualcast {

/// One trial: given a seed, produce a measurement (e.g. rounds to solve).
/// A negative return marks the trial as failed/censored.
using TrialFn = std::function<double(std::uint64_t seed)>;

/// Runs tasks 0..count-1, distributing them over `threads` workers pulling
/// from one shared atomic queue (threads <= 1 runs inline). `fn` must be
/// safe to call concurrently when threads > 1. Exceptions propagate to the
/// caller exactly as in the sequential path: the first one is captured, the
/// remaining tasks drain, and it is rethrown after the join. This is the
/// work-queue primitive under both run_raw_trials below and the scenario
/// runner's sweep-point-level scheduler.
void run_tasks(int count, int threads, const std::function<void(int)>& fn);

/// Process-wide count of trial executions performed through the scenario
/// runner (any engine, any scheduler, any thread). The experiment
/// service's result-cache guarantee is stated against this counter: a
/// fully-cached serve leaves it untouched, so tests and the `serve`
/// summary line can prove zero recomputation.
std::uint64_t trials_executed();

/// Increments trials_executed(); called once per trial by the runner.
void note_trial_executed();

/// Runs `count` trials with seeds base_seed, base_seed+1, ... and returns
/// the raw fn values in seed order. `threads > 1` distributes trials over a
/// pool; `fn` must then be safe to call concurrently (every execution built
/// from a distinct seed is).
std::vector<double> run_raw_trials(int count, std::uint64_t base_seed,
                                   const TrialFn& fn, int threads = 1);

/// Censored trials: failed trials are kept, recorded at `cap` (typically
/// max_rounds), so medians stay meaningful when a few runs time out.
/// `values` is in seed order and includes every trial.
struct CensoredTrials {
  std::vector<double> values;
  int failures = 0;
  double median = 0.0;
  double p95 = 0.0;

  int trials() const { return static_cast<int>(values.size()); }
};

/// Censors an already-measured value vector (negatives recorded at `cap`)
/// and summarizes it. Every scheduler fills the raw values itself and
/// censors through here, so every path censors identically.
CensoredTrials censor_trials(std::vector<double> values, double cap);

}  // namespace dualcast
