#pragma once

// Daemon mode for the experiment service.
//
// run_daemon() watches a jobs directory: every subdirectory containing a
// job.meta is a dropped job. The daemon opens each job, claims shards via
// the worker lease loop (repairing corrupt shard logs, resuming from
// watermarks), and — once every shard is done — merges the results into
// the result cache so later `serve` calls for the same scenarios are
// zero-recompute. Polling is backoff-paced: cycles that make progress
// poll again immediately, idle cycles back off (jittered exponential) up
// to `poll_max_ms`.
//
// Fleet behavior: the daemon publishes a membership file under
// `<jobs_dir>/fleet/` and renews its heartbeat at TTL/3; at the same
// cadence it runs a gc sweep (reap stale members, reclaim their expired
// lease debris).
//
// Claims: every claim round takes one shard, in the daemon's seeded
// shard rotation, from the job that has waited longest (ties in
// discovery order). With J open jobs each is picked at least once every
// J rounds, so a one-shard job dropped behind a large sweep finishes
// after at most one of the sweep's shards. A daemon asks for its next
// shard only when it finishes the last one, so a faster box already
// takes more shards.
//
// Degradation: a job directory that cannot be opened (corrupt meta,
// catalog drift) is warned about once and skipped — it never wedges the
// daemon or the other jobs. A cache directory that cannot be opened or
// written (read-only filesystem, ENOSPC) drops the daemon to
// compute-without-cache with a single warning; jobs still complete.
// Membership publishing is best-effort: it is an observability aid,
// never a correctness gate.
//
// Disk pressure: with `min_free_bytes` set, every cycle probes free space
// on the jobs-dir filesystem (through the Fs seam, so tests inject it)
// and walks the degradation ladder ok -> cache-shed (evict the result
// cache, stop cache writes) -> no-new-claims (finish and merge in-flight
// work, claim nothing new) -> parked (only re-probe). Each state is
// published in the member record and rendered by `status`; transitions
// are logged and counted. The ladder is stateless in the probe value, so
// freed space walks the daemon back up the same rungs.
//
// Shutdown: a cooperative stop flag (wired to SIGTERM/SIGINT by the CLI)
// exits cleanly at the next task boundary — shard records already
// appended stay durable, all held leases are released, and the
// membership file is removed, so a restarted daemon (or any worker)
// picks up exactly where this one stopped.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "service/fleet.hpp"
#include "service/job_store.hpp"

namespace dualcast::service {

struct DaemonOptions {
  std::string jobs_dir;        ///< directory whose subdirectories are jobs
  std::string cache_dir;       ///< empty disables the result cache
  std::uint64_t cache_max_bytes = 0;  ///< cache budget (0 = unbounded)
  std::string owner;           ///< lease owner token; default "pid<pid>.d"
  int poll_initial_ms = 100;   ///< idle backoff start
  int poll_max_ms = 2000;      ///< idle backoff cap
  /// Stop after this many poll cycles (< 0 = run until stopped) — the
  /// bounded mode tests and one-shot drains use.
  int max_cycles = -1;
  /// Membership heartbeat TTL; a daemon silent for this long is stale and
  /// gets reaped (with its expired leases) by any member's gc sweep.
  int member_ttl_seconds = 15;
  /// Seed for the shard-rotation offsets. 0 derives one from the owner
  /// token.
  std::uint64_t seed = 0;
  /// Disk-pressure degradation ladder watermark (bytes of free space on
  /// the jobs-dir filesystem). 0 disables the ladder. Rungs engage as
  /// free space shrinks: < 4x = cache-shed, < 2x = no-new-claims, < 1x =
  /// parked (see fleet.hpp's classify_disk_pressure).
  std::int64_t min_free_bytes = 0;
  /// Test/soak hook: read free bytes from this file (decimal text,
  /// re-read through the Fs seam every cycle) instead of statvfs, so
  /// harnesses can shrink and restore a "disk" deterministically.
  std::string free_bytes_file;
  /// Cooperative stop: when set and it becomes true, finish the current
  /// task, release leases, and return.
  const std::atomic<bool>* stop = nullptr;
  std::ostream* log = nullptr;
};

struct DaemonReport {
  int cycles = 0;
  /// Claim rounds: one pick of a job plus one call into the worker's
  /// lease loop, so a lone daemon takes one round per shard.
  int claim_rounds = 0;
  int jobs_seen = 0;       ///< distinct jobs opened
  int jobs_completed = 0;  ///< jobs whose every shard finished under us
  int shards_completed = 0;
  int tasks_executed = 0;
  int shards_repaired = 0;     ///< as WorkerReport::shards_repaired
  int leases_stolen = 0;       ///< expired foreign leases evicted on claim
  int members_reaped = 0;      ///< stale fleet members removed by our sweeps
  int leases_reclaimed = 0;    ///< expired lease debris removed by our sweeps
  int shards_fenced = 0;       ///< workers fenced off after a lapsed lease
  int heartbeats_skipped = 0;  ///< renewals withheld by the progress gate
  int pressure_transitions = 0;  ///< disk-pressure ladder state changes
  std::string pressure = "ok";   ///< ladder state at exit
  bool stopped = false;  ///< returned via the stop flag
};

/// Runs the daemon loop (see file comment). The env's fs/clock are used
/// for job discovery, membership, and threaded into every store the
/// daemon opens.
DaemonReport run_daemon(const DaemonOptions& options,
                        const StoreEnv& env = {});

}  // namespace dualcast::service
