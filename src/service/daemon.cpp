#include "service/daemon.hpp"

#include <unistd.h>

#include <chrono>
#include <map>
#include <memory>
#include <ostream>
#include <thread>
#include <vector>

#include "service/result_cache.hpp"
#include "service/service.hpp"
#include "service/worker.hpp"
#include "util/rng.hpp"
#include "util/strfmt.hpp"

namespace dualcast::service {
namespace {

/// Per-job daemon state, kept across poll cycles so warnings fire once,
/// runtimes (plan preparation is expensive) are reused, and a job's wait
/// survives between claims.
struct JobState {
  std::unique_ptr<JobStore> store;
  std::unique_ptr<JobRuntime> runtime;
  bool warned = false;  ///< already complained about this directory
  bool merged = false;  ///< completed + merged; skip from now on
  int age = 0;          ///< claim rounds waited since this job's last pick
};

bool stop_requested(const DaemonOptions& options) {
  return options.stop != nullptr && options.stop->load();
}

/// Sleeps `ms` in small slices so a stop request never waits out a full
/// backoff delay.
void interruptible_sleep(int ms, const DaemonOptions& options) {
  while (ms > 0 && !stop_requested(options)) {
    const int slice = ms < 10 ? ms : 10;
    std::this_thread::sleep_for(std::chrono::milliseconds(slice));
    ms -= slice;
  }
}

bool all_shards_done(const JobStore& store) {
  const int shards = store.shard_count();
  for (int s = 0; s < shards; ++s) {
    if (!store.shard_done(s)) return false;
  }
  return true;
}

/// A rotation of [0, shards) starting at a seeded offset: contending
/// fleet members scan from different starting shards instead of all
/// hammering shard 0's lease.
std::vector<int> jittered_order(int shards, std::uint64_t& rng) {
  std::vector<int> order(static_cast<std::size_t>(shards));
  const int start =
      shards > 0 ? static_cast<int>(splitmix64(rng) %
                                    static_cast<std::uint64_t>(shards))
                 : 0;
  for (int i = 0; i < shards; ++i) order[i] = (start + i) % shards;
  return order;
}

}  // namespace

DaemonReport run_daemon(const DaemonOptions& options, const StoreEnv& env) {
  DaemonReport report;
  if (options.jobs_dir.empty()) {
    throw scenario::ScenarioError("daemon: jobs_dir is required");
  }
  util::Fs& fs = env.fs != nullptr ? *env.fs : util::real_fs();
  util::Clock& clock =
      env.clock != nullptr ? *env.clock : util::system_clock();
  const std::string owner =
      options.owner.empty() ? str("pid", static_cast<long>(::getpid()), ".d")
                            : options.owner;
  std::uint64_t rng =
      options.seed != 0 ? options.seed : scenario::fnv1a64(owner);

  // The cache is optional equipment: failure to open it (or, later, to
  // write it — merge_job demotes that itself) must never stop job
  // processing.
  std::unique_ptr<ResultCache> cache;
  if (!options.cache_dir.empty()) {
    try {
      cache = std::make_unique<ResultCache>(options.cache_dir,
                                            options.cache_max_bytes, env.fs,
                                            env.clock);
    } catch (const util::IoError& error) {
      if (options.log != nullptr) {
        *options.log << "daemon: warning: cannot open result cache "
                     << options.cache_dir << " (" << error.what()
                     << "); running without caching\n";
      }
    }
  }

  // Fleet membership: publish at startup, renew at TTL/3 alongside the
  // automatic gc sweep. Best-effort — a read-only fleet dir costs the
  // fleet view, not job progress.
  FleetRegistry fleet(options.jobs_dir, env);
  MemberRecord member;
  member.id = owner;
  member.pid = static_cast<long>(::getpid());
  char host[256] = {0};
  if (::gethostname(host, sizeof(host) - 1) == 0) member.host = host;
  member.ttl_seconds = options.member_ttl_seconds;
  member.started = clock.now_seconds();
  // Disk-pressure ladder state (see file comment). The probe goes through
  // the Fs seam: either statvfs on the jobs dir or, for harnesses, a
  // decimal free-bytes file re-read fresh every cycle.
  DiskPressure pressure = DiskPressure::ok;
  std::int64_t last_free = -1;
  const bool ladder_on =
      options.min_free_bytes > 0 || !options.free_bytes_file.empty();
  const auto probe_free_bytes = [&]() -> std::int64_t {
    try {
      if (!options.free_bytes_file.empty()) {
        fs.invalidate(options.free_bytes_file);
        std::string text;
        if (!util::read_file_retry_estale(fs, options.free_bytes_file, text)) {
          return -1;
        }
        return std::stoll(text);
      }
      return fs.free_bytes(options.jobs_dir);
    } catch (const util::IoError&) {
      return -1;
    } catch (const std::exception&) {
      return -1;  // unparsable free-bytes file reads as unknown
    }
  };
  bool member_warned = false;
  const auto publish_member = [&] {
    member.cycles = report.cycles;
    member.tasks = report.tasks_executed;
    member.shards = report.shards_completed;
    member.steals = report.leases_stolen;
    member.pressure = to_string(pressure);
    member.free_bytes = last_free;
    try {
      fleet.publish(member);
    } catch (const util::IoError& error) {
      if (!member_warned && options.log != nullptr) {
        *options.log << "daemon: warning: cannot publish membership ("
                     << error.what() << "); fleet view will not list us\n";
      }
      member_warned = true;
    }
  };
  const auto sweep = [&] {
    try {
      const GcReport swept = gc_sweep(options.jobs_dir, env, options.log);
      report.members_reaped += swept.members_reaped;
      report.leases_reclaimed += swept.leases_reclaimed;
    } catch (const util::IoError& error) {
      if (options.log != nullptr) {
        *options.log << "daemon: warning: gc sweep failed ("
                     << error.what() << ")\n";
      }
    }
  };
  const std::int64_t beat_interval =
      options.member_ttl_seconds / 3 > 1 ? options.member_ttl_seconds / 3 : 1;
  std::int64_t last_beat = clock.now_seconds();
  publish_member();
  // A startup sweep: after a kill -9 + restart, the replacement reclaims
  // its predecessor's debris immediately instead of a heartbeat later.
  sweep();

  std::map<std::string, JobState> jobs;
  util::Backoff backoff(options.poll_initial_ms, options.poll_max_ms,
                        scenario::fnv1a64(owner));
  for (;;) {
    if (stop_requested(options)) {
      report.stopped = true;
      break;
    }
    if (options.max_cycles >= 0 && report.cycles >= options.max_cycles) {
      break;
    }
    ++report.cycles;
    const std::int64_t now = clock.now_seconds();
    if (now - last_beat >= beat_interval) {
      last_beat = now;
      publish_member();
      sweep();
    }

    if (ladder_on) {
      last_free = probe_free_bytes();
      const DiskPressure next =
          classify_disk_pressure(last_free, options.min_free_bytes);
      if (next != pressure) {
        ++report.pressure_transitions;
        if (options.log != nullptr) {
          *options.log << "daemon: disk pressure " << to_string(pressure)
                       << " -> " << to_string(next) << " (free " << last_free
                       << ", watermark " << options.min_free_bytes << ")\n";
        }
        const bool was_ok = pressure == DiskPressure::ok;
        pressure = next;
        publish_member();
        if (was_ok && pressure != DiskPressure::ok && cache != nullptr) {
          // Entering the ladder sheds the whole result cache: evicting
          // entries is the one immediate way this daemon can hand disk
          // space back (cached rows are recomputable by definition).
          try {
            cache->shed(0);
            if (options.log != nullptr) {
              *options.log << "daemon: disk pressure shed result cache\n";
            }
          } catch (const util::IoError& error) {
            if (options.log != nullptr) {
              *options.log << "daemon: warning: cache shed failed ("
                           << error.what() << ")\n";
            }
          }
        }
      }
    }
    if (pressure == DiskPressure::parked) {
      // Parked: too little space to safely append even a record. Nothing
      // but the re-probe (and the heartbeat above) runs until space
      // recovers.
      interruptible_sleep(backoff.next_ms(), options);
      continue;
    }

    // Discovery: every subdirectory with a job.meta, in fs.list order
    // (the order that breaks ties between equally waiting jobs). Opening
    // is lazy and warned-once; a job that fails this cycle is retried
    // next cycle (the store may heal).
    std::vector<std::string> dirs;
    for (const std::string& name : fs.list(options.jobs_dir)) {
      const std::string dir = str(options.jobs_dir, "/", name);
      if (fs.exists(str(dir, "/job.meta"))) dirs.push_back(dir);
    }

    bool progress = false;
    // Claim rounds, one shard each (see the file comment). A job that
    // yields nothing claimable is exhausted for the rest of this cycle;
    // the cycle ends when every job is.
    std::map<std::string, bool> exhausted;
    for (;;) {
      if (stop_requested(options)) break;
      std::vector<std::string> candidates;
      for (const std::string& dir : dirs) {
        if (exhausted[dir]) continue;
        if (jobs.count(dir) != 0 && jobs[dir].merged) continue;
        candidates.push_back(dir);
      }
      if (candidates.empty()) break;
      ++report.claim_rounds;

      // The longest-waiting job; the strict > keeps ties in discovery
      // order.
      std::string picked = candidates.front();
      for (const std::string& dir : candidates) {
        if (jobs[dir].age > jobs[picked].age) picked = dir;
      }
      for (const std::string& dir : candidates) ++jobs[dir].age;
      jobs[picked].age = 0;

      JobState& job = jobs[picked];
      // Repairs this job's corrupt logs; true when there were any. Owned:
      // rewrites only happen under a per-shard lease on shared mounts.
      const auto repair_logs = [&](const char* when) {
        const std::vector<ShardScan> rotten = job.store->recover_all(owner);
        for (const ShardScan& scan : rotten) {
          ++report.shards_repaired;
          progress = true;
          if (options.log != nullptr) {
            *options.log << "daemon: " << when << "repaired "
                         << scan.damage() << " in " << picked << "\n";
          }
        }
        return !rotten.empty();
      };
      try {
        if (job.store == nullptr) {
          job.store =
              std::make_unique<JobStore>(JobStore::open(picked, env));
          ++report.jobs_seen;
          if (options.log != nullptr) {
            *options.log << "daemon: picked up job "
                         << scenario::hash_hex(job.store->spec().key)
                         << " in " << picked << " ("
                         << job.store->total_tasks() << " tasks)\n";
          }
          // Pickup recovery: once here (and before merging) instead of
          // on every worker call.
          repair_logs("");
        }
        if (job.runtime == nullptr) {
          job.runtime = std::make_unique<JobRuntime>(*job.store);
        }
        WorkerReport worked;
        if (pressure != DiskPressure::no_new_claims) {
          WorkerOptions worker_options;
          worker_options.owner = owner;
          worker_options.stop = options.stop;
          worker_options.log = options.log;
          worker_options.recover = false;  // repaired at pickup + pre-merge
          worker_options.op_deadline_seconds = options.op_deadline_seconds;
          worker_options.deadline_fs = options.deadline_fs;
          worker_options.max_shards = 1;
          worker_options.shard_order =
              jittered_order(job.store->shard_count(), rng);
          worked = run_worker(*job.store, *job.runtime, worker_options);
        }
        // Under no-new-claims, nothing was claimed — but a job whose
        // shards all finished (here or elsewhere) still merges below:
        // merging reads records and writes one result file, the step that
        // frees the most follow-on work per byte.
        report.shards_completed += worked.shards_completed;
        report.tasks_executed += worked.tasks_executed;
        report.shards_repaired += worked.shards_repaired;
        report.leases_stolen += worked.leases_stolen;
        report.shards_fenced += worked.shards_fenced;
        report.heartbeats_skipped += worked.heartbeats_skipped;
        if (worked.shards_completed > 0 || worked.tasks_executed > 0 ||
            worked.shards_repaired > 0) {
          progress = true;
        }
        if (worked.stopped) break;
        if (all_shards_done(*job.store)) {
          // Pre-merge integrity pass: anything that went corrupt since
          // pickup is repaired now (clearing its done marker), and the
          // merge waits for the recompute instead of failing.
          if (!repair_logs("pre-merge check ")) {
            // Complete: merge into the cache so future serves hit, then
            // drop the runtime (the records stay for `merge`/`status`).
            // Any degraded pressure rung stops cache writes — the merge
            // itself still happens, uncached.
            merge_job(*job.store, *job.runtime,
                      pressure == DiskPressure::ok ? cache.get() : nullptr,
                      options.log);
            job.merged = true;
            job.runtime.reset();
            ++report.jobs_completed;
            progress = true;
            if (options.log != nullptr) {
              *options.log << "daemon: completed job in " << picked << "\n";
            }
          }
        } else if (worked.shards_completed == 0) {
          // Nothing claimable right now: every remaining shard is validly
          // leased elsewhere. Revisit next cycle.
          exhausted[picked] = true;
        }
      } catch (const scenario::ScenarioError& error) {
        // A bad job directory (corrupt meta, catalog drift, conflicting
        // records) is warned about once, then skipped — it must not wedge
        // the daemon or starve other jobs.
        if (!job.warned && options.log != nullptr) {
          *options.log << "daemon: warning: skipping job " << picked << ": "
                       << error.what() << "\n";
        }
        job.warned = true;
        exhausted[picked] = true;
      } catch (const util::IoError& error) {
        // Exhausted-retries IO failure on this job; leave it for a later
        // cycle (the store may heal — e.g. space freed after ENOSPC).
        if (!job.warned && options.log != nullptr) {
          *options.log << "daemon: warning: IO trouble on job " << picked
                       << ": " << error.what() << "\n";
        }
        job.warned = true;
        exhausted[picked] = true;
      }
    }
    if (stop_requested(options)) {
      report.stopped = true;
      break;
    }
    if (progress) {
      backoff.reset();
    } else {
      interruptible_sleep(backoff.next_ms(), options);
    }
  }

  // Clean exit: deregister so the fleet view drops us immediately instead
  // of after a TTL. Best-effort, like every membership operation.
  try {
    fleet.remove(owner);
  } catch (const util::IoError&) {
  }
  report.pressure = to_string(pressure);
  return report;
}

}  // namespace dualcast::service
