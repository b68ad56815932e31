#pragma once

// Fleet coordination for the experiment service.
//
// Many daemons — potentially on many machines sharing one filesystem —
// work one jobs directory. This module gives that fleet two facilities
// (daemon.hpp states how a daemon spreads its claims across jobs):
//
//   * membership: every daemon publishes an identity file
//     `<jobs_dir>/fleet/<daemon-id>` (versioned text, written atomically
//     through the Fs seam) and renews its heartbeat through the Clock
//     seam. A member whose heartbeat is older than its TTL is *stale* —
//     the fleet-wide analogue of an expired lease. `status --jobs-dir`
//     renders this view: live/stale members, per-daemon held leases,
//     shards/sec.
//
//   * orphan lifecycle: gc_sweep() reaps stale membership files and
//     reclaims expired lease debris left by dead daemons (never a live
//     lease — expiry remains the sole safety mechanism). The daemon loop
//     runs the same sweep automatically at heartbeat cadence;
//     `dualcast_bench gc` runs it on demand.
//
// Like leases, membership is an observability aid, not a correctness
// mechanism: tasks stay idempotent and records append-only, so a daemon
// that dies without deregistering costs a stale entry and some
// reclaimable debris, never a wrong merge.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "service/job_store.hpp"

namespace dualcast::service {

// --- membership --------------------------------------------------------

/// What a daemon publishes about itself. Counters are cumulative over the
/// daemon's lifetime; `started`/`heartbeat` are unix seconds per the
/// daemon's clock.
struct MemberRecord {
  std::string id;         ///< daemon id == its lease owner token
  long pid = 0;
  std::string host;       ///< machine name (multi-box fleets)
  std::int64_t started = 0;
  std::int64_t heartbeat = 0;
  int ttl_seconds = 15;   ///< stale once heartbeat + ttl <= now
  std::int64_t cycles = 0;
  std::int64_t tasks = 0;   ///< tasks executed
  std::int64_t shards = 0;  ///< shards completed
  std::int64_t steals = 0;  ///< expired leases stolen
  std::string pressure = "ok";   ///< degradation-ladder state name
  std::int64_t free_bytes = -1;  ///< last probed free space (-1 = unknown)
};

// --- disk-pressure degradation ladder ----------------------------------

/// The daemon's disk-pressure states, most to least healthy. Each rung
/// sheds more load: `cache_shed` evicts the result cache and stops cache
/// writes, `no_new_claims` additionally refuses new shard claims (finishes
/// in-flight work and merges), `parked` does nothing but re-probe — the
/// jobs-dir filesystem is too full to safely append records.
enum class DiskPressure { ok, cache_shed, no_new_claims, parked };

const char* to_string(DiskPressure pressure);

/// Classifies probed free space against the operator's min-free watermark
/// `min_free_bytes` (the `parked` threshold; the upper rungs engage at 2x
/// and 4x). Stateless and monotone in `free_bytes`, so a daemon walks the
/// ladder down and back up as space shrinks and recovers. Unknown free
/// space (< 0) or an unset watermark (<= 0) reads as `ok`.
DiskPressure classify_disk_pressure(std::int64_t free_bytes,
                                    std::int64_t min_free_bytes);

/// A scanned member, classified against the registry's clock.
struct MemberState {
  MemberRecord record;
  bool stale = false;
  std::int64_t age = 0;  ///< seconds since the last heartbeat
};

/// The membership directory of one jobs dir. All IO goes through the
/// injected Fs/Clock, so stale classification is deterministic under a
/// FakeClock and every publish is crash-atomic (tmp + rename).
class FleetRegistry {
 public:
  explicit FleetRegistry(const std::string& jobs_dir,
                         const StoreEnv& env = {});

  const std::string& dir() const { return fleet_dir_; }

  /// Publishes (or re-publishes) a member file, stamping `heartbeat` with
  /// the current clock. Call at TTL/3 cadence, like lease renewal.
  void publish(MemberRecord record);

  /// Removes a member file (clean daemon shutdown). No-op when absent.
  void remove(const std::string& id);

  /// Reads every member file, classifying stale ones. Unparsable files
  /// are skipped (a half-written v0 file cannot occur — publishes are
  /// atomic — so debris means manual tampering).
  std::vector<MemberState> scan() const;

  /// Deletes every stale member's file; returns the reaped ids (the set
  /// gc_sweep feeds into per-job lease reclamation). Each unlink is
  /// preceded by an invalidate + fresh re-read so a heartbeat that had
  /// not propagated to this machine's view yet is honored.
  std::vector<std::string> reap_stale();

 private:
  std::string member_path(const std::string& id) const;

  std::string fleet_dir_;
  util::Fs* fs_ = nullptr;
  util::Clock* clock_ = nullptr;
};

// --- orphan lifecycle --------------------------------------------------

struct GcReport {
  int jobs_swept = 0;
  int members_reaped = 0;
  int leases_reclaimed = 0;
  std::vector<std::string> reaped_ids;
};

/// One garbage-collection pass over a jobs directory: reap stale fleet
/// members, then for every job reclaim expired lease debris (done shards
/// or stale owners). Jobs that cannot be opened are skipped with a note
/// on `log`.
GcReport gc_sweep(const std::string& jobs_dir, const StoreEnv& env = {},
                  std::ostream* log = nullptr);

/// The fleet view behind `status --jobs-dir`: members (live/stale, age,
/// shards/sec, held-lease counts aggregated across every job) followed by
/// a per-job progress summary. Times come from the env clock.
void print_fleet_status(const std::string& jobs_dir, const StoreEnv& env,
                        std::ostream& out);

/// The same fleet view as one machine-readable JSON document (`status
/// --jobs-dir --json FILE`). Deterministic: members, lease owners, and
/// jobs are emitted in sorted order and every number derives from the env
/// clock, so a frozen FakeClock yields byte-identical output.
std::string fleet_status_json(const std::string& jobs_dir,
                              const StoreEnv& env = {});

}  // namespace dualcast::service
