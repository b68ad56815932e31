#pragma once

// Experiment-service orchestration: the high-level operations behind the
// `dualcast_bench serve|worker|merge|status` CLI surfaces (and the unit
// the tests drive directly).
//
//   serve   resolve a selection, satisfy what the result cache already
//           holds, run the rest as a persistent job (in-process worker
//           threads leasing shards), merge, populate the cache, and emit
//           rows byte-identical to a single-process run_scenarios() run.
//   merge   reassemble a complete job's shard records into results.
//   status  report a job's shards, leases, and watermarks.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "service/job_store.hpp"
#include "service/result_cache.hpp"
#include "service/worker.hpp"

namespace dualcast::service {

struct ServeOptions {
  /// Job directory; empty derives ".dualcast-jobs/<job-key>" so identical
  /// requests resume the same job.
  std::string job_dir;
  std::string cache_dir;   ///< empty disables the result cache
  std::string json_path;   ///< merged JSON artifact; empty = none
  /// In-process worker threads leasing shards of the job. 0 = submit
  /// only: create/attach the job, print its status, and return with
  /// `pending` set (operators then run `dualcast_bench worker` processes).
  int workers = 1;
  int shard_tasks = 16;
  int lease_ttl_seconds = 60;
  /// Result-cache byte budget (0 = unbounded): exceeding it evicts
  /// least-recently-used entries.
  std::uint64_t cache_max_bytes = 0;
  /// Recompute cached scenarios anyway and fail on any row mismatch — the
  /// cache-hit verifiability knob.
  bool verify_cache = false;
  /// Injectable fs/clock seams, threaded into the cache, the job store,
  /// and every worker view this serve opens (tests pin a FaultyFs or a
  /// FakeClock here; production leaves the defaults).
  StoreEnv env;
  std::ostream* out = nullptr;  ///< progress + summary lines, when set
};

struct ServeSummary {
  int scenarios = 0;
  int from_cache = 0;        ///< scenarios satisfied by cache lookup
  int computed = 0;          ///< scenarios measured by this call
  std::uint64_t trials_run = 0;  ///< trials executed by this call
  bool pending = false;      ///< workers == 0: job submitted, not measured
  std::uint64_t job_key = 0;
  std::string job_dir;       ///< resolved job directory ("" if fully cached)
  std::vector<std::string> rows;  ///< merged JSON rows, selection order
};

/// End-to-end serve (see file comment). Throws ScenarioError on spec
/// errors, job/catalog mismatches, or cache verification failures.
ServeSummary serve(const std::vector<const scenario::ScenarioSpec*>& selection,
                   const scenario::RunOptions& run_options,
                   const ServeOptions& options);

/// Reassembles a complete job's records into JSON rows (job scenario
/// order) using the same plan/censoring/serialization path as the
/// in-process runner — the byte-identical guarantee. Throws when a shard
/// log is corrupt (never merges damaged records), when tasks are missing
/// (listing how many), or when two records for one task disagree (catalog
/// drift). When `cache` is non-null, each scenario's rows are stored
/// under its cache key on the way out; an unwritable cache is demoted to
/// a warning on `log` (merging continues uncached).
std::vector<std::string> merge_job(JobStore& store, JobRuntime& runtime,
                                   ResultCache* cache,
                                   std::ostream* log = nullptr);

/// Prints the job's meta, per-shard watermarks/leases (with age, flagging
/// stale ones), corruption markers, and progress.
void print_job_status(const JobStore& store, std::ostream& out);

}  // namespace dualcast::service
