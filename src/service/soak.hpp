#pragma once

// Kill-storm soak harness for the daemon fleet.
//
// run_soak() is the end-to-end robustness drill behind
// `dualcast_bench soak`: it lays down one big job and several small jobs
// in a fresh jobs directory, spawns N *real* daemon processes (fork +
// exec of this binary) against it, and drives a seeded SIGKILL/restart
// schedule while they drain the work. Dead daemons are respawned; the
// storm can additionally arm each first-generation daemon with the
// `--fault-crash-op` FaultyFs crash hook so injected filesystem deaths
// compose with external kills.
//
// Fail-slow storms compose the same way: `--slow` mounts every daemon
// behind a uniform-latency SlowFs, `--stall-seed` arms one seeded
// mid-lease append stall per daemon generation — long enough that the
// holder's progress-gated heartbeat lets the lease lapse, a peer steals
// it, and the holder fences itself on waking — and `--disk-pressure`
// squeezes a shared free-bytes file to zero mid-run and restores it,
// walking the whole fleet down and back up the degradation ladder.
//
// The verdict is the service's whole contract at once:
//   * liveness — every job's every shard completes within the timeout
//     despite the kills (leases expire, survivors steal, respawns rejoin);
//   * safety — re-merging each job in-process yields rows byte-identical
//     to a single-process run_scenarios() of the same selection;
//   * the mechanism actually fired — at least one "stole expired lease"
//     event was observed across the daemon logs (when kills or stalls
//     happened).
//
// Kill pacing: kill k of N is due once k/(N+1) of the soak's shards are
// done, so the storm spreads over the drain however fast the box runs it.
// The drain is the only clock: a wall-clock gap between kills would let a
// fast drain finish inside it and leave the late kills to the few-ms lease
// windows of peers stealing a victim's shard. The report counts the kills
// that landed.
//
// Determinism note: each kill is a `kill_seed`-seeded pick among the
// daemons that hold an unexpired lease at that tick (a kill waits for a
// holder), so every kill leaves a lease to steal. Which daemons hold
// leases depends on wall-clock interleaving, so a storm replays only as
// far as the interleaving does — which is exactly what the byte-identical
// check is for.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace dualcast::service {

struct SoakOptions {
  /// Bench binary to exec for daemon processes; empty = this binary
  /// (/proc/self/exe).
  std::string binary;
  /// Working directory (wiped at start): jobs/, logs/, per-run artifacts.
  std::string dir = ".dualcast-soak";
  int daemons = 4;
  /// Jobs = one big job (big_trials) + this many small ones
  /// (small_trials, small_trials+1, ... — distinct keys).
  int small_jobs = 2;
  int big_trials = 40;
  int small_trials = 4;
  int shard_tasks = 5;
  int lease_ttl_seconds = 2;    ///< short: steals happen within the storm
  int member_ttl_seconds = 4;   ///< stale detection well inside the run
  std::uint64_t kill_seed = 7;  ///< seeds the victim picks
  int kills = 6;                ///< SIGKILLs delivered across the storm
  /// Also arm each first-generation daemon with `--fault-crash-op N`
  /// (respawns run clean, so an early injected death cannot crash-loop).
  int fault_crash_op = -1;
  /// Multi-box simulation: run every daemon behind its own SharedFsSim
  /// view of the jobs directory (`--fs-sim-seed`, derived per slot and
  /// generation — a respawn is a rebooted client with a cold cache), so
  /// the storm exercises NFS weak semantics on a local filesystem.
  bool sim = false;
  std::uint64_t fs_sim_seed = 1;  ///< base seed for the per-slot views
  int fs_sim_stale_ops = 6;       ///< max staleness window, in view ops
  /// Per-daemon wall-clock skew: slot i runs `--clock-skew` with an
  /// offset spread deterministically across [-skew, +skew] seconds
  /// (0 = everyone agrees). Composes with `sim` or stands alone.
  int clock_skew_seconds = 0;
  /// Slow-mount storm (`soak --slow`): every daemon runs behind a SlowFs
  /// adding this many real milliseconds to every filesystem op (0 = off).
  int slow_fs_ms = 0;
  /// Fail-slow storm (`--stall-seed`): each daemon generation arms one
  /// `Kind::delay` fault on a seeded append to a shards/ file —
  /// i.e. while it demonstrably holds that shard's lease — stalling it
  /// for `stall_ms`. With stall_ms > lease TTL the stalled daemon's
  /// progress-gated heartbeat lets the lease lapse, a peer must steal,
  /// and the holder must fence itself on waking. 0 = off.
  std::uint64_t stall_seed = 0;
  /// Stall length in real ms; 0 derives (lease_ttl_seconds + 1) * 1000.
  int stall_ms = 0;
  /// Disk-pressure drill (`--disk-pressure`): daemons run the degradation
  /// ladder against a shared free-bytes file the storm squeezes to zero
  /// mid-run and then restores, requiring a full down-and-back-up walk.
  bool disk_pressure = false;
  std::int64_t min_free_bytes = 1 << 20;  ///< ladder watermark for the drill
  int timeout_seconds = 300;
  std::ostream* log = nullptr;
};

struct SoakReport {
  int jobs = 0;
  int total_tasks = 0;    ///< across all jobs
  int kills = 0;          ///< SIGKILLs actually delivered
  int crashes = 0;        ///< daemons that died on their own (fault hook)
  int restarts = 0;       ///< respawns after kills/crashes
  int steals = 0;         ///< "stole expired lease" lines across logs
  int fences = 0;         ///< "fenced off shard" lines (wake-after-steal)
  int pressure_events = 0;  ///< "disk pressure" transition lines across logs
  bool completed = false; ///< every shard of every job done in time
  bool identical = false; ///< every merge matched its reference bytes
  bool ok = false;        ///< overall verdict (incl. the steal check)
  std::vector<std::string> failures;  ///< human-readable verdict details
};

/// Runs the storm (see file comment). Throws ScenarioError on setup
/// errors (bad options, catalog trouble); storm-phase trouble lands in
/// the report instead.
SoakReport run_soak(const SoakOptions& options);

}  // namespace dualcast::service
