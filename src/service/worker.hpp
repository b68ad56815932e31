#pragma once

// Sharded workers for the experiment service.
//
// A JobRuntime holds the prepared scenario plans of one job — built once
// per process (the cross-scenario factory cache dedupes algorithm builds)
// and shared read-only by every worker thread. run_worker() is the lease
// loop: repair any corrupt shard logs, then claim a shard, replay its
// completion log to skip already-recorded tasks (crash-safe resume),
// measure the rest in task order with one fsync'd record per trial, mark
// the shard done, release, repeat until no shard is claimable. Any number
// of worker processes/threads may run the loop against one job directory;
// the merger accepts their union.
//
// Robustness mechanics:
//   * a background heartbeat renews the held lease at TTL/3 — but only
//     while the worker keeps advancing its record watermark. A healthy
//     worker on a slow shard is never stolen from; a fail-slow worker
//     (hung IO, wedged compute) stops earning renewals, its lease lapses
//     within one TTL, and a peer steals the shard. On waking, the worker
//     fences itself: it re-verifies ownership before any further append
//     and abandons the shard if a thief holds (or completed) it. This is
//     the one defence against a hung op: nothing interrupts the op itself;
//   * transient IO errors (EIO, ENOSPC, ETIMEDOUT, ...) are retried a
//     bounded number of times with jittered exponential backoff;
//   * a cooperative stop flag (the daemon's SIGTERM path) abandons the
//     current shard cleanly: records already appended stay durable, the
//     lease is released so another worker picks the shard up immediately.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "scenario/plan.hpp"
#include "service/job_store.hpp"

namespace dualcast::service {

/// The prepared, read-only execution state of a job in this process.
class JobRuntime {
 public:
  /// Resolves every job scenario from the catalog, applies the job's
  /// options, and builds all point plans (topologies + factories).
  explicit JobRuntime(const JobStore& store);

  const scenario::RunOptions& options() const { return options_; }
  int total_tasks() const { return offsets_.back(); }

  /// Measures one global flat task (concatenated scenario order). Safe to
  /// call concurrently for distinct tasks.
  double measure(int task) const;

  /// The prepared plans, in job scenario order (the merger fills their raw
  /// stores from records and assembles results from them).
  std::vector<scenario::ScenarioPlan>& plans() { return plans_; }
  const std::vector<int>& offsets() const { return offsets_; }

 private:
  scenario::RunOptions options_;
  std::vector<scenario::ScenarioPlan> plans_;
  std::vector<int> offsets_;
};

struct WorkerOptions {
  /// Lease owner token; default "pid<pid>". Give in-process worker threads
  /// distinct suffixes.
  std::string owner;
  /// Stop after completing this many shards (< 0 = run until no shard is
  /// claimable).
  int max_shards = -1;
  /// Claim preference order over shard indices (empty = natural order).
  /// The daemon passes seeded rotations here so contending fleet members
  /// do not all hammer shard 0; out-of-range entries are skipped.
  std::vector<int> shard_order;
  /// Run the full corrupt-log recovery sweep before claiming (the plain
  /// `worker` CLI default). The daemon turns this off — it recovers at
  /// job pickup and before merging instead, and every claim re-validates
  /// (and self-heals) its own shard log regardless.
  bool recover = true;
  /// Cooperative stop: when set and it becomes true, the worker abandons
  /// work at the next task boundary, releases its lease, and returns.
  const std::atomic<bool>* stop = nullptr;
  /// Retry budget for transient IO errors per operation.
  int io_retries = 4;
  /// Backoff window for those retries (jittered exponential).
  int backoff_initial_ms = 10;
  int backoff_max_ms = 1000;
  std::ostream* log = nullptr;  ///< progress lines, when set
};

struct WorkerReport {
  int shards_completed = 0;
  /// Corrupt logs rewritten to their good prefix, and done markers their
  /// logs fell short of cleared.
  int shards_repaired = 0;
  int tasks_executed = 0;
  int tasks_skipped = 0;   ///< found already recorded (resume)
  int leases_stolen = 0;   ///< expired foreign leases evicted on acquire
  int shards_fenced = 0;   ///< abandoned after waking to a lapsed lease
  int heartbeats_skipped = 0;  ///< due renewals withheld by the progress
                               ///< gate (a fail-slow signature)
  bool stopped = false;    ///< returned early via the stop flag
};

/// The worker lease loop (see file comment).
WorkerReport run_worker(JobStore& store, const JobRuntime& runtime,
                        const WorkerOptions& options);

}  // namespace dualcast::service
