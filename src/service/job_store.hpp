#pragma once

// Persistent job store for the experiment service.
//
// A *job* is a catalog selection plus the execution parameters that affect
// results (rng mode, trials override, smoke), frozen on disk so a
// killed process — or a fleet of worker processes on a shared filesystem —
// resumes exactly where it stopped. The job's unit of distribution is the
// scenario runner's flat task space: the concatenation, in selection
// order, of each scenario's (sweep point × column × trial) queue. That
// space is cut into contiguous *shards*; workers lease shards, append one
// fsync'd record per completed trial to the shard's log, and a merger
// reassembles the records into JSON byte-identical to a single-process
// run_scenarios() run (same plan, same censoring, same writer).
//
// All IO goes through an injectable util::Fs and all time through an
// injectable util::Clock (StoreEnv), so every durability claim below is
// exercised by the fault-injection test matrix: crash at any syscall,
// torn appends, EIO/ENOSPC, stale clocks.
//
// On-disk layout under the job directory:
//
//   job.meta                  frozen JobSpec (versioned text; written once)
//   shards/shard_<k>.log      append-only completion records, fsync'd.
//                             v2 record (what this version writes):
//                               "r2 <len> <task> <bits-hex> <crc-hex>\n"
//                             where <len> is the byte length of the
//                             "<task> <bits-hex>" payload and <crc-hex>
//                             its CRC32C — torn tails are ignored, any
//                             other unparsable line or checksum/length
//                             mismatch mid-file marks the shard corrupt.
//                             The hex field is the double's exact bit
//                             pattern, so merged values are the measured
//                             values, not a decimal round-trip.
//                             Recovery rewrites a damaged log in place
//                             from the records before the damage (the
//                             last good watermark) and re-leases the
//                             shard to recompute the rest.
//   shards/shard_<k>.done     marker: every task of the shard is recorded
//                             (recovery clears one the log falls short of)
//   leases/shard_<k>.lease    "owner <token>\nsince <unix>\nexpiry <unix>";
//                             published atomically via link() of a fully
//                             written temp file (no empty-file window); an
//                             expired lease may be stolen. Holders renew
//                             via heartbeats at TTL/3.
//
// Leases are a work-partitioning optimization, not a correctness
// mechanism: tasks are deterministic functions of (spec, seed) and records
// are idempotent, so the rare steal race that double-executes a task
// appends two identical records, which the merger accepts (and it rejects
// *conflicting* duplicates, which would indicate catalog drift).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "util/clock.hpp"
#include "util/io.hpp"

namespace dualcast::service {

/// Identity + execution parameters of a job. `catalog` and `key` pin the
/// job to the exact catalog contents and applied specs it was created
/// against; attach/resume refuses to run when either drifts.
struct JobSpec {
  std::vector<std::string> scenario_names;  ///< selection, in order
  RngMode rng = RngMode::per_node;
  int trials_override = 0;
  bool smoke = false;
  int shard_tasks = 16;        ///< flat tasks per shard
  int lease_ttl_seconds = 60;  ///< lease lifetime; expired leases are stolen
  std::uint64_t catalog = 0;   ///< catalog_hash() at creation
  std::uint64_t key = 0;       ///< job identity (hash of catalog+specs+modes)

  /// The RunOptions every executor of this job must use (threads and
  /// output sinks are per-process and not part of the job identity).
  scenario::RunOptions run_options() const;
};

/// Builds a job spec from a selection: applies `options` to each spec,
/// canonicalizes, and derives the catalog/job hashes.
JobSpec make_job_spec(
    const std::vector<const scenario::ScenarioSpec*>& selection,
    const scenario::RunOptions& options, int shard_tasks,
    int lease_ttl_seconds);

/// Injectable environment of a store: null members resolve to the real
/// filesystem and the system clock.
struct StoreEnv {
  util::Fs* fs = nullptr;
  util::Clock* clock = nullptr;

  util::Fs& resolve_fs() const {
    return fs != nullptr ? *fs : util::real_fs();
  }
  util::Clock& resolve_clock() const {
    return clock != nullptr ? *clock : util::system_clock();
  }
};

/// One completed trial: the flat task index and its measured raw value.
struct TaskRecord {
  int task = 0;
  double value = 0.0;
};

/// A shard log scan: the good record prefix plus, when the file is
/// damaged mid-stream, where and how it went bad. A torn *trailing* line
/// (crash mid-append) is normal and not corruption.
struct ShardScan {
  int shard = 0;                    ///< the shard whose log was scanned
  std::vector<TaskRecord> records;  ///< records before any corruption
  bool corrupt = false;
  int bad_line = 0;    ///< 1-based line of the first bad record
  std::string detail;  ///< what failed (checksum, length, syntax)
  std::size_t good_bytes = 0;  ///< log bytes up to the last good newline
  /// Set when recover_all cleared a done marker the log does not back:
  /// the distinct in-range tasks recorded and the shard's task count
  /// (both 0 otherwise).
  int recorded = 0;
  int expected = 0;

  /// "shard <k> record log corrupt at line <n>: <detail>", or "shard <k>
  /// marked done with <r> of <e> tasks recorded" — the merger's refusal
  /// and the repair's log line, the one record of the damage.
  std::string damage() const;
};

/// A published lease as a scan reads it. Ages and expiry are computed
/// against the *store's* clock at scan time, so an injected FakeClock
/// makes the STALE classification fully deterministic — display code must
/// consume these fields instead of re-deriving them from the real clock.
struct LeaseState {
  int shard = 0;
  std::string owner;
  std::int64_t expiry = 0;  ///< unix seconds
  std::int64_t age = -1;    ///< now - since (-1 = unknown)
  /// now - last recorded progress stamp (-1 = unknown / pre-progress
  /// lease). A large value against a live expiry is the fail-slow
  /// signature: a holder that keeps the lease while advancing nothing.
  std::int64_t progress_age = -1;
  bool expired = false;  ///< expiry <= now
};

/// A shard's current on-disk state, as read by status scans.
struct ShardState {
  int index = 0;
  int begin = 0;  ///< first flat task (inclusive)
  int end = 0;    ///< last flat task (exclusive)
  int completed = 0;  ///< distinct recorded tasks
  bool done = false;  ///< done marker present
  bool corrupt = false;  ///< current log fails checksum validation
  std::optional<LeaseState> lease;  ///< the published lease, if any
};

class JobStore {
 public:
  /// Creates the job directory (and meta) or attaches to an existing one.
  /// Attaching verifies the stored key matches `spec` — resuming a job
  /// with different parameters or against a drifted catalog is an error.
  static JobStore create_or_attach(const std::string& dir, const JobSpec& spec,
                                   const StoreEnv& env = {});

  /// Attaches to an existing job directory; throws ScenarioError with a
  /// field-level diagnostic when absent/corrupt, and when the stored
  /// catalog hash does not match this binary's catalog.
  static JobStore open(const std::string& dir, const StoreEnv& env = {});

  const JobSpec& spec() const { return spec_; }
  const std::string& dir() const { return dir_; }
  util::Fs& fs() const { return *fs_; }
  util::Clock& clock() const { return *clock_; }

  int total_tasks() const { return task_offset_.back(); }
  int shard_count() const;
  /// Flat-task range [begin, end) of a shard.
  std::pair<int, int> shard_range(int shard) const;

  // --- records ---------------------------------------------------------

  /// Parses a shard's completion log, validating checksums. Torn trailing
  /// lines (a crash mid-write) are ignored; a damaged record mid-file
  /// marks the scan corrupt and truncates it at the last good watermark.
  ShardScan scan_shard_log(int shard) const;

  /// scan_shard_log after invalidating the log's client-side cache —
  /// for decisions that must see the shared (server) state, not this
  /// machine's possibly-stale view of it.
  ShardScan fresh_scan_shard_log(int shard) const;

  /// Like scan_shard_log but throws ScenarioError on corruption — for
  /// callers (the merger) that must never consume a damaged shard.
  /// Always reads fresh: merge output must reflect the server state.
  std::vector<TaskRecord> read_shard_records(int shard) const;

  /// Repairs a shard log in place when it holds bytes past its good
  /// prefix (a torn tail or mid-file damage): the log is rewritten
  /// atomically to that prefix (unlinked when no record survives). Damage
  /// mid-file first clears the done marker, durably, so a crash anywhere
  /// in the repair leaves a shard that is re-leased and recomputed from
  /// the watermark, never one marked done but short of records. No-op
  /// when the log is healthy. Returns the scan the repair acted on
  /// (`corrupt` reports mid-file damage).
  ShardScan recover_shard(int shard);

  /// Runs recover_shard over every damaged shard, and clears the done
  /// marker of every shard whose log records fewer distinct in-range tasks
  /// than its range (whole records lost, or the log deleted), durably, so
  /// the shard is re-leased and recomputed. Returns the scans of the
  /// shards that were corrupt mid-file or whose marker was cleared.
  ///
  /// Both repairs run only under `owner`'s shard lease (acquired per
  /// damaged shard, released after): on a shared filesystem an unleased
  /// rewrite could act on a *stale* snapshot of a log another machine is
  /// actively appending to and clobber its fresh records. Shards whose
  /// lease is validly held by someone else are skipped — the holder
  /// self-heals on its next claim.
  std::vector<ShardScan> recover_all(const std::string& owner);

  /// Appends one record to a shard's log and fsyncs it before returning —
  /// after a crash, every acknowledged record is on disk.
  void append_record(int shard, const TaskRecord& record);

  /// Writes the shard's done marker (fsync'd) — the cheap "complete" scan
  /// signal for status and lease skipping.
  void mark_shard_done(int shard);
  bool shard_done(int shard) const;

  // --- garbage collection ----------------------------------------------

  /// Reclaims lease debris: unlinks any *expired* lease whose shard is
  /// already done, or whose owner is one of `stale_owners` (a daemon whose
  /// fleet membership heartbeat went stale). Unexpired leases are never
  /// touched — expiry stays the sole safety mechanism — and each unlink
  /// is preceded by an invalidate + fresh re-read so a heartbeat renewal
  /// that simply had not reached this machine's view yet is honored.
  /// Returns the number of leases removed.
  int gc_expired_leases(const std::vector<std::string>& stale_owners = {});

  // --- leases ----------------------------------------------------------

  /// Tries to acquire a shard's lease for `owner`: links a fully-written
  /// lease file into place, or steals the current lease when it is
  /// expired. Returns false when the shard is validly leased by someone
  /// else (per this store's clock). When `stole` is non-null it is set to
  /// whether this acquisition evicted another owner's expired lease — the
  /// fleet's observable "lease steal" event.
  bool try_lease(int shard, const std::string& owner, bool* stole = nullptr);

  /// Extends an owned lease by the job's TTL from now (the heartbeat
  /// path; preserves the lease's original `since`).
  void renew_lease(int shard, const std::string& owner);

  /// Releases an owned lease (no-op when not held by `owner`).
  void release_lease(int shard, const std::string& owner);

  /// Reads every shard's state (records counted, lease parsed).
  std::vector<ShardState> scan() const;

  /// Reads only the lease files (no shard logs): one entry per currently
  /// published lease, with expiry classified against the store clock.
  std::vector<LeaseState> scan_leases() const;

 private:
  JobStore(std::string dir, JobSpec spec, const StoreEnv& env);

  std::string shard_log_path(int shard) const;
  std::string shard_done_path(int shard) const;
  std::string lease_path(int shard) const;
  /// The shard's lease as of `now`; nullopt when none is published (or
  /// it is garbled).
  std::optional<LeaseState> lease_state(int shard, std::int64_t now) const;

  std::string dir_;
  JobSpec spec_;
  std::vector<int> task_offset_;
  util::Fs* fs_ = nullptr;
  util::Clock* clock_ = nullptr;
};

}  // namespace dualcast::service
