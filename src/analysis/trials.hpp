#pragma once

// Repeated-trial primitives of the scenario runner: spread trials over a
// shared task queue, count them, and censor failed trials at a cap.
// Because each trial is keyed by its seed — never by scheduling order — a
// parallel run produces bit-identical results to a sequential one.

#include <cstdint>
#include <functional>
#include <vector>

#include "analysis/stats.hpp"

namespace dualcast {

/// Runs tasks 0..count-1, distributing them over `threads` workers pulling
/// from one shared atomic queue (threads <= 1 runs inline). `fn` must be
/// safe to call concurrently when threads > 1. Exceptions propagate to the
/// caller exactly as in the sequential path: the first one is captured, the
/// remaining tasks drain, and it is rethrown after the join. This is the
/// scenario runner's one work queue.
void run_tasks(int count, int threads, const std::function<void(int)>& fn);

/// Process-wide count of trial executions performed through the scenario
/// runner (any engine, any scheduler, any thread). The experiment
/// service's result-cache guarantee is stated against this counter: a
/// fully-cached serve leaves it untouched, so tests and the `serve`
/// summary line can prove zero recomputation.
std::uint64_t trials_executed();

/// Increments trials_executed(); called once per trial by the runner.
void note_trial_executed();

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
