#include "service/service_cli.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "scenario/cli.hpp"
#include "service/daemon.hpp"
#include "service/service.hpp"
#include "service/soak.hpp"
#include "util/clock.hpp"
#include "util/fs_sim.hpp"
#include "util/strfmt.hpp"

namespace dualcast::service {
namespace {

using scenario::also;
using scenario::Command;
using scenario::Flag;
using scenario::int_flag;
using scenario::join_flags;
using scenario::parse_flags;
using scenario::ScenarioError;
using scenario::switch_flag;
using scenario::text_flag;

// Shared default so `serve` runs and later `merge` invocations populate
// and hit the same cache without plumbing.
constexpr const char* kDefaultCacheDir = ".dualcast-cache";

/// The disk-pressure ladder compares free space with 4x the watermark and
/// the soak drill writes 10x, so the watermark is bounded to keep both in
/// range.
constexpr std::int64_t kMaxFreeBytesWatermark =
    std::numeric_limits<std::int64_t>::max() / 10;

/// Set by the SIGTERM/SIGINT handler; polled by daemon/worker loops so a
/// terminated daemon releases its leases instead of abandoning them.
std::atomic<bool> g_stop{false};

void request_stop(int) { g_stop.store(true); }

/// The worker/daemon test-decorator stack, outermost first: FaultyFs
/// (injected death, targeted mid-lease stall) → SharedFsSim (this process
/// as one NFS client view, default staleness windows) → the real
/// filesystem; plus an optional skewed clock. Members exist only when the
/// corresponding flag was given; `env` points at the outermost layer of
/// whatever was built.
struct EnvStack {
  struct Params {
    bool fs_sim = false;
    std::uint64_t fs_sim_seed = 1;
    int fault_crash_op = -1;
    int clock_skew_seconds = 0;
    int stall_append = -1;  ///< stall append N (0-based) to a shards/ file
    int stall_ms = 0;
  };

  std::unique_ptr<util::SharedFsSim> sim;
  std::unique_ptr<util::FaultyFs> faulty;
  std::unique_ptr<util::OffsetClock> clock;
  StoreEnv env;

  void build(const Params& p) {
    util::Fs* fs = &util::real_fs();
    if (p.fs_sim) {
      util::SharedFsSimConfig config;
      config.seed = p.fs_sim_seed;
      sim = std::make_unique<util::SharedFsSim>(*fs, config);
      fs = sim.get();
    }
    if (p.fault_crash_op >= 0 || p.stall_append >= 0) {
      faulty = std::make_unique<util::FaultyFs>(*fs);
      if (p.fault_crash_op >= 0) {
        util::InjectedFault fault;
        fault.kind = util::InjectedFault::Kind::crash;
        fault.at = p.fault_crash_op;
        faulty->inject(fault);
      }
      if (p.stall_append >= 0) {
        // A shard-record append only happens while holding that shard's
        // lease, so this stall is guaranteed to be a *mid-lease* hang.
        util::InjectedFault fault;
        fault.kind = util::InjectedFault::Kind::delay;
        fault.at = p.stall_append;
        fault.op = "append";
        fault.path_substr = "shards/";
        fault.delay_ms = p.stall_ms;
        faulty->inject(fault);
      }
      fs = faulty.get();
    }
    if (fs != &util::real_fs()) env.fs = fs;
    if (p.clock_skew_seconds != 0) {
      clock = std::make_unique<util::OffsetClock>(util::system_clock(),
                                                  p.clock_skew_seconds);
      env.clock = clock.get();
    }
  }
};

/// The test-decorator flags worker and daemon share (see EnvStack); the
/// CI fault matrix and the shared-fs and fail-slow drills drive them.
std::vector<Flag> decorator_flags(EnvStack::Params& p) {
  return {
      int_flag("--fault-crash-op", "N",
               "test hook: die (uncatchable, like kill -9) at filesystem "
               "operation N of this process, counted from 0 (0 = the first "
               "operation)",
               p.fault_crash_op, 0),
      int_flag("--stall-append", "N",
               "test hook: append N to a shard record (i.e. mid-lease), "
               "counted from 0 (0 = the first append), hangs for "
               "--stall-ms",
               p.stall_append, 0),
      int_flag("--stall-ms", "M", "length of the --stall-append hang in ms",
               p.stall_ms, 0),
      also(int_flag("--fs-sim-seed", "S",
                    "test hook: run behind a SharedFsSim NFS-client view "
                    "(seeded staleness windows, delayed directory entries, "
                    "ESTALE on unlinked-under-handle reads)",
                    p.fs_sim_seed, 0),
           [&p] { p.fs_sim = true; }),
  };
}

/// The result-cache flags serve, daemon and merge share.
std::vector<Flag> cache_flags(std::string& cache_dir,
                              std::uint64_t& max_bytes) {
  return {
      text_flag("--cache-dir", "C",
                str("result cache (default ", kDefaultCacheDir, ")"),
                cache_dir),
      switch_flag("--no-cache", "disable the result cache",
                  [&cache_dir] { cache_dir.clear(); }),
      int_flag("--cache-max-bytes", "B",
               "evict least-recently-used cache entries past this budget "
               "(0 = unbounded)",
               max_bytes, 0),
  };
}

int serve_main(int argc, char** argv, const Command& command) {
  std::vector<std::string> names;
  scenario::RunOptions run_options;
  ServeOptions options;
  options.cache_dir = kDefaultCacheDir;
  options.out = &std::cout;
  // serve's parallelism is --workers N: a thread flag is rejected, not
  // accepted and silently run on one worker.
  std::vector<Flag> run_flags = scenario::run_option_flags(run_options);
  for (Flag& flag : run_flags) {
    if (!flag.name.ends_with("-threads")) continue;
    flag.help = "does not apply; serve measures shards on --workers N threads";
    flag.set = [name = flag.name, why = flag.help](const std::string&) {
      throw ScenarioError(str("serve: ", name, " ", why));
    };
  }
  const std::vector<Flag> flags = join_flags(
      {run_flags,
       {int_flag("--workers", "N",
                 "in-process worker threads (default 1); 0 = submit the job "
                 "and exit (then run `worker` processes + `merge`)",
                 options.workers, 0),
        text_flag("--job-dir", "D",
                  "job directory (default .dualcast-jobs/<job-key>)",
                  options.job_dir)},
       cache_flags(options.cache_dir, options.cache_max_bytes),
       {switch_flag("--verify-cache",
                    "recompute cached scenarios and fail on any row mismatch",
                    [&options] { options.verify_cache = true; }),
        int_flag("--shard-tasks", "K", "flat tasks per shard (default 16)",
                 options.shard_tasks, 1),
        // 0 is meaningful: a dead worker's lease is instantly stealable —
        // what crash-drill jobs want, since resume never waits out a TTL.
        int_flag("--lease-ttl", "S",
                 "lease lifetime in seconds (default 60; 0 = a dead worker "
                 "is instantly stealable)",
                 options.lease_ttl_seconds, 0),
        text_flag("--json", "FILE", "write merged result rows to FILE",
                  options.json_path)}});
  if (!parse_flags(argc, argv, 2, flags, &names, command)) return 0;
  if (names.empty()) {
    throw ScenarioError("serve: name at least one scenario (or a prefix)");
  }
  serve(scenario::resolve_selection(names), run_options, options);
  return 0;
}

int worker_main(int argc, char** argv, const Command& command) {
  std::string job_dir;
  EnvStack::Params stack_params;
  WorkerOptions options;
  options.log = &std::cout;
  const std::vector<Flag> flags = join_flags(
      {{text_flag("--job-dir", "D", "the job to work (required)", job_dir),
        text_flag("--owner", "TOKEN", "lease owner token (default pid<pid>)",
                  options.owner)},
       decorator_flags(stack_params)});
  if (!parse_flags(argc, argv, 2, flags, nullptr, command)) return 0;
  if (job_dir.empty()) throw ScenarioError("worker: --job-dir is required");
  EnvStack stack;
  stack.build(stack_params);
  const StoreEnv& env = stack.env;
  JobStore store = JobStore::open(job_dir, env);
  const JobRuntime runtime(store);
  std::signal(SIGTERM, request_stop);
  std::signal(SIGINT, request_stop);
  options.stop = &g_stop;
  const WorkerReport report = run_worker(store, runtime, options);
  std::cout << "worker done: " << report.shards_completed
            << " shard(s) completed, " << report.tasks_executed
            << " task(s) measured, " << report.tasks_skipped
            << " already recorded";
  if (report.shards_repaired > 0) {
    std::cout << ", " << report.shards_repaired
              << " damaged shard(s) repaired";
  }
  if (report.stopped) std::cout << " [stopped by signal]";
  std::cout << "\n";
  return 0;
}

int daemon_main(int argc, char** argv, const Command& command) {
  DaemonOptions options;
  options.cache_dir = kDefaultCacheDir;
  options.log = &std::cout;
  EnvStack::Params stack_params;
  const std::vector<Flag> flags = join_flags(
      {{text_flag("--jobs-dir", "D", "the directory to watch (required)",
                  options.jobs_dir)},
       cache_flags(options.cache_dir, options.cache_max_bytes),
       {text_flag("--owner", "TOKEN",
                  "lease owner token == fleet member id (default pid<pid>.d)",
                  options.owner),
        int_flag("--poll-ms", "M", "idle backoff start (default 100)",
                 options.poll_initial_ms, 1),
        int_flag("--max-poll-ms", "M", "idle backoff cap (default 2000)",
                 options.poll_max_ms, 1),
        int_flag("--max-cycles", "N",
                 "exit after N poll cycles (default: run until signalled)",
                 options.max_cycles, 0),
        int_flag("--member-ttl", "S", "membership heartbeat TTL (default 15)",
                 options.member_ttl_seconds, 1),
        int_flag("--seed", "S",
                 "seeds the shard rotation each claim scans (default: "
                 "derived from the owner token)",
                 options.seed, 0),
        int_flag("--clock-skew", "S",
                 "test hook: offset this daemon's wall clock by S seconds "
                 "(negative allowed)",
                 stack_params.clock_skew_seconds,
                 std::numeric_limits<int>::min()),
        int_flag("--min-free-bytes", "B",
                 "disk-pressure ladder watermark: as free space on the "
                 "jobs-dir filesystem shrinks below 4x/2x/1x B the daemon "
                 "sheds its cache, stops claiming, then parks; freed space "
                 "walks it back up (0 = off)",
                 options.min_free_bytes, 0, kMaxFreeBytesWatermark),
        text_flag("--free-bytes-file", "F",
                  "test hook: probe free bytes from file F instead of statvfs",
                  options.free_bytes_file)},
       decorator_flags(stack_params)});
  if (!parse_flags(argc, argv, 2, flags, nullptr, command)) return 0;
  if (options.jobs_dir.empty()) {
    throw ScenarioError("daemon: --jobs-dir is required");
  }
  // Unbuffered progress: a SIGKILLed daemon (the soak harness's whole
  // point) must not take its logged steal/claim evidence down with it.
  std::cout << std::unitbuf;
  EnvStack stack;
  stack.build(stack_params);
  const StoreEnv& env = stack.env;
  std::signal(SIGTERM, request_stop);
  std::signal(SIGINT, request_stop);
  options.stop = &g_stop;
  const DaemonReport report = run_daemon(options, env);
  std::cout << "daemon exit: " << report.cycles << " cycle(s), "
            << report.jobs_seen << " job(s) seen, " << report.jobs_completed
            << " completed, " << report.tasks_executed
            << " task(s) measured";
  if (report.shards_repaired > 0) {
    std::cout << ", " << report.shards_repaired
              << " damaged shard(s) repaired";
  }
  if (report.leases_stolen > 0) {
    std::cout << ", " << report.leases_stolen << " lease(s) stolen";
  }
  if (report.shards_fenced > 0) {
    std::cout << ", " << report.shards_fenced << " shard(s) fenced";
  }
  if (report.heartbeats_skipped > 0) {
    std::cout << ", " << report.heartbeats_skipped
              << " heartbeat(s) withheld";
  }
  if (report.pressure_transitions > 0) {
    std::cout << ", " << report.pressure_transitions
              << " pressure transition(s) (final " << report.pressure << ")";
  }
  if (report.members_reaped > 0 || report.leases_reclaimed > 0) {
    std::cout << ", gc " << report.members_reaped << "/"
              << report.leases_reclaimed << " member(s)/lease(s)";
  }
  if (report.stopped) std::cout << " [stopped by signal]";
  std::cout << "\n";
  return 0;
}

int gc_main(int argc, char** argv, const Command& command) {
  std::string jobs_dir;
  const std::vector<Flag> flags = {
      text_flag("--jobs-dir", "D", "the jobs directory to sweep (required)",
                jobs_dir),
  };
  if (!parse_flags(argc, argv, 2, flags, nullptr, command)) return 0;
  if (jobs_dir.empty()) throw ScenarioError("gc: --jobs-dir is required");
  const GcReport report = gc_sweep(jobs_dir, {}, &std::cout);
  std::cout << "gc: " << report.jobs_swept << " job(s) swept, "
            << report.members_reaped << " stale member(s) reaped, "
            << report.leases_reclaimed << " expired lease(s) reclaimed\n";
  return 0;
}

int soak_main(int argc, char** argv, const Command& command) {
  SoakOptions options;
  options.log = &std::cout;
  const auto sim = [&options] { options.sim = true; };
  const std::vector<Flag> flags = {
      int_flag("--daemons", "N", "daemon processes in the fleet (default 4)",
               options.daemons, 1),
      int_flag("--kill-seed", "S",
               "seeds the victim picks among lease holders (default 7)",
               options.kill_seed, 0),
      int_flag("--kills", "N",
               "SIGKILLs delivered across the storm (default 6)",
               options.kills, 0),
      text_flag("--dir", "D",
                "working directory (default .dualcast-soak; wiped at start)",
                options.dir),
      int_flag("--fault-crash-op", "N",
               "also arm each first-generation daemon with the FaultyFs "
               "crash hook",
               options.fault_crash_op, 0),
      switch_flag("--sim",
                  "run every daemon behind its own SharedFsSim NFS-client "
                  "view of the jobs directory (respawns get cold caches)",
                  sim),
      also(int_flag("--fs-sim-seed", "S", "view-skew base seed (implies --sim)",
                    options.fs_sim_seed, 0),
           sim),
      int_flag("--clock-skew", "S",
               "spread daemon wall clocks across [-S, +S] seconds",
               options.clock_skew_seconds, 0),
      int_flag("--stall-seed", "S",
               "arm one seeded mid-lease append hang per daemon generation, "
               "long enough that the lease lapses, a peer steals it, and "
               "the holder fences itself on waking",
               options.stall_seed, 0),
      switch_flag("--disk-pressure",
                  "squeeze a shared free-bytes file to zero mid-storm and "
                  "restore it; every daemon must walk the degradation "
                  "ladder down and back up",
                  [&options] { options.disk_pressure = true; }),
  };
  if (!parse_flags(argc, argv, 2, flags, nullptr, command)) return 0;
  const SoakReport report = run_soak(options);
  return report.ok ? 0 : 1;
}

int merge_main(int argc, char** argv, const Command& command) {
  std::string job_dir;
  std::string json_path;
  std::string cache_dir = kDefaultCacheDir;
  std::uint64_t cache_max_bytes = 0;
  const std::vector<Flag> flags = join_flags(
      {{text_flag("--job-dir", "D", "the job to merge (required)", job_dir),
        text_flag("--json", "FILE", "write the merged result rows to FILE",
                  json_path)},
       cache_flags(cache_dir, cache_max_bytes)});
  if (!parse_flags(argc, argv, 2, flags, nullptr, command)) return 0;
  if (job_dir.empty()) throw ScenarioError("merge: --job-dir is required");
  JobStore store = JobStore::open(job_dir);
  JobRuntime runtime(store);
  std::unique_ptr<ResultCache> cache;
  if (!cache_dir.empty()) {
    try {
      cache = std::make_unique<ResultCache>(cache_dir, cache_max_bytes);
    } catch (const util::IoError& error) {
      std::cout << "warning: cannot open result cache " << cache_dir << " ("
                << error.what() << "); merging without caching\n";
    }
  }
  const std::vector<std::string> rows =
      merge_job(store, runtime, cache.get(), &std::cout);
  std::cout << "merged " << rows.size() << " result rows from "
            << store.shard_count() << " shards\n";
  if (!json_path.empty()) {
    if (!scenario::write_json_rows_file(json_path, rows)) {
      throw ScenarioError(str("cannot write ", json_path));
    }
    std::cout << "wrote " << rows.size() << " result rows to " << json_path
              << "\n";
  }
  return 0;
}

int status_main(int argc, char** argv, const Command& command) {
  std::string job_dir;
  std::string jobs_dir;
  std::string json_path;
  const std::vector<Flag> flags = {
      text_flag("--job-dir", "D",
                "report one job's shards, leases (with age and "
                "last-progress age — a big gap on a live lease is a "
                "fail-slow holder; STALE when expired), CORRUPT logs, and "
                "progress",
                job_dir),
      text_flag("--jobs-dir", "D",
                "the fleet view: every member daemon (live/STALE, heartbeat "
                "age, host, shards/sec, disk-pressure state, held leases) "
                "and every job's progress with per-lease owner/age/progress "
                "lines",
                jobs_dir),
      text_flag("--json", "FILE",
                "with --jobs-dir, also write the fleet view as deterministic "
                "machine-readable JSON (\"-\" = stdout)",
                json_path),
  };
  if (!parse_flags(argc, argv, 2, flags, nullptr, command)) return 0;
  if (!jobs_dir.empty()) {
    if (!json_path.empty()) {
      const std::string json = fleet_status_json(jobs_dir);
      if (json_path == "-") {
        std::cout << json;
      } else {
        util::real_fs().write_file_atomic(json_path, json);
        std::cout << "wrote fleet status JSON to " << json_path << "\n";
      }
      return 0;
    }
    print_fleet_status(jobs_dir, {}, std::cout);
    return 0;
  }
  if (!json_path.empty()) {
    throw ScenarioError("status: --json requires --jobs-dir");
  }
  if (job_dir.empty()) {
    throw ScenarioError("status: --job-dir or --jobs-dir is required");
  }
  const JobStore store = JobStore::open(job_dir);
  print_job_status(store, std::cout);
  return 0;
}

/// The subcommand table: what --help prints for each, and what runs it.
struct Subcommand {
  Command command;
  std::string summary;  ///< its line in the driver's --help
  int (*run)(int argc, char** argv, const Command& command);
};

const std::vector<Subcommand>& subcommands() {
  static const std::vector<Subcommand> table = {
      {{.name = "serve",
        .synopsis = "<names...> [options]",
        .about = "Cached/sharded run of a scenario selection. Scenarios "
                 "whose results are in the cache are served without "
                 "recomputation; the rest become a persistent job measured "
                 "by worker threads and merged into rows byte-identical to "
                 "a plain run. The run options are the plain driver's."},
       "cached/sharded run of a selection (byte-identical rows)", serve_main},
      {{.name = "worker",
        .synopsis = "--job-dir D [options]",
        .about = "Lease and measure shards of an existing job until none is "
                 "claimable. Any number of worker processes may run at "
                 "once; a restarted worker resumes from the shard logs and "
                 "rewrites a corrupt one in place to its last good record, "
                 "then recomputes the rest. Leases are heartbeat-renewed at "
                 "TTL/3; transient IO errors are retried with backoff."},
       "lease and measure shards of an existing job", worker_main},
      {{.name = "daemon",
        .synopsis = "--jobs-dir D [options]",
        .about = "Watch D for dropped job directories, work them to "
                 "completion, and merge results into the cache (an "
                 "unwritable cache degrades to compute-without-cache with a "
                 "warning). Each claim takes one shard from the job that "
                 "has waited longest. Polling backs off while idle. The "
                 "daemon publishes a fleet membership file under D/fleet/ "
                 "(heartbeat at TTL/3) and runs a gc sweep at the same "
                 "cadence. SIGTERM/SIGINT stop cleanly with all leases "
                 "released and the member file removed."},
       "watch a jobs directory and drain every job dropped into it",
       daemon_main},
      {{.name = "merge",
        .synopsis = "--job-dir D [options]",
        .about = "Reassemble a complete job's shard records into result "
                 "rows (byte-identical to a single-process run) and "
                 "populate the result cache. Exits nonzero, naming the "
                 "shard and line, if any shard log is corrupt or the job is "
                 "incomplete."},
       "reassemble a complete job into result rows", merge_main},
      {{.name = "status",
        .synopsis = "--job-dir D | --jobs-dir D [--json FILE]",
        .about = "Report one job (--job-dir) or the whole fleet "
                 "(--jobs-dir). The fleet view marks STALE members and "
                 "[EXPIRED] leases: a gc sweep reaps the former, and an "
                 "expired lease once its shard is done or its owner is "
                 "stale."},
       "report a job's or the fleet's shards, leases, and progress",
       status_main},
      {{.name = "gc",
        .synopsis = "--jobs-dir D",
        .about = "One garbage-collection sweep: reap stale fleet members "
                 "and reclaim expired lease debris (done shards or stale "
                 "owners). Daemons run this sweep automatically at "
                 "heartbeat cadence; `status --jobs-dir` shows the STALE "
                 "members and [EXPIRED] leases it acts on."},
       "one garbage-collection sweep of a jobs directory", gc_main},
      {{.name = "soak",
        .synopsis = "[options]",
        .about = "Fleet kill-storm drill: drop one big + several small jobs "
                 "in a fresh directory, spawn N real daemon processes, and "
                 "SIGKILL/restart them on a seeded schedule while they "
                 "drain. Exits nonzero unless every job completes, every "
                 "merge is byte-identical to a single-process run, every "
                 "requested kill landed, and (when kills or stalls "
                 "happened) at least one lease steal was observed."},
       "kill-storm drill of a fleet of real daemon processes", soak_main},
  };
  return table;
}

const Subcommand* find_subcommand(const std::string& name) {
  const auto found = std::find_if(
      subcommands().begin(), subcommands().end(),
      [&](const Subcommand& sub) { return sub.command.name == name; });
  return found == subcommands().end() ? nullptr : &*found;
}

}  // namespace

bool is_service_command(const char* arg) {
  return find_subcommand(arg) != nullptr;
}

std::string command_list() {
  std::string list;
  for (const Subcommand& sub : subcommands()) {
    list += str("  ", pad(sub.command.name, 8), sub.summary, "\n");
  }
  return list;
}

int service_main(int argc, char** argv) {
  try {
    const std::string name = argc >= 2 ? argv[1] : "";
    const Subcommand* sub = find_subcommand(name);
    if (sub == nullptr) {
      throw ScenarioError(str("unknown service command \"", name, "\""));
    }
    return sub->run(argc, argv, sub->command);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}

}  // namespace dualcast::service
