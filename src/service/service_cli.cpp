#include "service/service_cli.hpp"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
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

using scenario::ScenarioError;

// Shared default so `serve` runs and later `merge` invocations populate
// and hit the same cache without plumbing.
constexpr const char* kDefaultCacheDir = ".dualcast-cache";

/// Set by the SIGTERM/SIGINT handler; polled by daemon/worker loops so a
/// terminated daemon releases its leases instead of abandoning them.
std::atomic<bool> g_stop{false};

void request_stop(int) { g_stop.store(true); }

const char* flag_value(const std::string& flag, int argc, char** argv,
                       int& i) {
  if (++i >= argc) throw ScenarioError(str(flag, " requires a value"));
  return argv[i];
}

/// Like parse_int_flag but admits 0 (for --workers 0 = submit-only and
/// --fault-crash-op 0 = crash at the very first filesystem operation).
int parse_nonneg_flag(const std::string& flag, const char* value) {
  if (value == nullptr) throw ScenarioError(str(flag, " requires a value"));
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || parsed < 0 ||
      parsed > std::numeric_limits<int>::max()) {
    throw ScenarioError(str(flag, ": bad value \"", value, "\""));
  }
  return static_cast<int>(parsed);
}

/// Signed flags (--clock-skew may be negative — a box whose clock runs
/// behind the fleet is exactly the interesting case).
int parse_signed_flag(const std::string& flag, const char* value) {
  if (value == nullptr) throw ScenarioError(str(flag, " requires a value"));
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE ||
      parsed < std::numeric_limits<int>::min() ||
      parsed > std::numeric_limits<int>::max()) {
    throw ScenarioError(str(flag, ": bad value \"", value, "\""));
  }
  return static_cast<int>(parsed);
}

/// The worker/daemon test-decorator stack, outermost first:
/// DeadlineFs (per-op IO budget) → FaultyFs (injected death / targeted
/// stall) → SlowFs (uniform latency) → SharedFsSim (this process as one
/// NFS client view) → the real filesystem; plus an optional skewed clock.
/// Members exist only when the corresponding flag was given; `env` points
/// at the outermost layer of whatever was built. Layer order matters:
/// FaultyFs counts ops before SlowFs slows them (schedules stay stable
/// under latency), and DeadlineFs sits outside everything so an injected
/// stall is charged against the op budget like a real hung mount.
struct EnvStack {
  struct Params {
    bool fs_sim = false;
    std::uint64_t fs_sim_seed = 1;
    int fs_sim_stale_ops = 6;
    int fault_crash_op = -1;
    int clock_skew_seconds = 0;
    int slow_fs_ms = 0;
    int stall_append = -1;  ///< stall the N-th append to a shards/ file
    int stall_ms = 0;
    std::int64_t op_deadline_seconds = 0;
  };

  std::unique_ptr<util::SharedFsSim> sim;
  std::unique_ptr<util::SlowFs> slow;
  std::unique_ptr<util::FaultyFs> faulty;
  std::unique_ptr<util::DeadlineFs> deadline;
  std::unique_ptr<util::OffsetClock> clock;
  StoreEnv env;

  void build(const Params& p) {
    util::Fs* fs = &util::real_fs();
    if (p.fs_sim) {
      util::SharedFsSimConfig config;
      config.seed = p.fs_sim_seed;
      config.attr_stale_ops = p.fs_sim_stale_ops;
      config.dir_stale_ops = p.fs_sim_stale_ops;
      sim = std::make_unique<util::SharedFsSim>(*fs, config);
      fs = sim.get();
    }
    if (p.slow_fs_ms > 0) {
      slow = std::make_unique<util::SlowFs>(*fs, p.slow_fs_ms);
      fs = slow.get();
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
    if (p.op_deadline_seconds > 0) {
      deadline = std::make_unique<util::DeadlineFs>(*fs);
      fs = deadline.get();
    }
    if (fs != &util::real_fs()) env.fs = fs;
    if (p.clock_skew_seconds != 0) {
      clock = std::make_unique<util::OffsetClock>(util::system_clock(),
                                                  p.clock_skew_seconds);
      env.clock = clock.get();
    }
  }
};

/// Byte-sized flags (--cache-max-bytes) need the full unsigned range.
std::uint64_t parse_u64_flag(const std::string& flag, const char* value) {
  if (value == nullptr) throw ScenarioError(str(flag, " requires a value"));
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE ||
      (value[0] == '-')) {
    throw ScenarioError(str(flag, ": bad value \"", value, "\""));
  }
  return static_cast<std::uint64_t>(parsed);
}

void print_service_usage(std::ostream& os, const char* binary) {
  os << "experiment service subcommands:\n"
        "\n"
        "  " << binary
     << " serve <names...> [run options] [serve options]\n"
        "      Cached/sharded run of a scenario selection. Scenarios whose\n"
        "      results are in the cache are served without recomputation;\n"
        "      the rest become a persistent job measured by worker threads\n"
        "      and merged into rows byte-identical to a plain run.\n"
        "      Run options: --smoke --trials N --engine E --rng M\n"
        "                   --history P (as in the plain driver)\n"
        "      Serve options:\n"
        "        --workers N      in-process worker threads (default 1);\n"
        "                         0 = submit the job and exit (then run\n"
        "                         `worker` processes + `merge`)\n"
        "        --job-dir D      job directory (default\n"
        "                         .dualcast-jobs/<job-key>)\n"
        "        --cache-dir C    result cache (default " << kDefaultCacheDir
     << ")\n"
        "        --no-cache       disable the result cache\n"
        "        --cache-max-bytes B\n"
        "                         evict least-recently-used cache entries\n"
        "                         past this budget (0 = unbounded)\n"
        "        --verify-cache   recompute cached scenarios and fail on\n"
        "                         any row mismatch\n"
        "        --shard-tasks K  flat tasks per shard (default 16)\n"
        "        --lease-ttl S    lease lifetime in seconds (default 60;\n"
        "                         0 = a dead worker is instantly stealable)\n"
        "        --json FILE      write merged result rows to FILE\n"
        "\n"
        "  " << binary
     << " worker --job-dir D [--owner TOKEN] [--max-shards N]\n"
        "      Lease and measure shards of an existing job until none is\n"
        "      claimable. Any number of worker processes may run at once;\n"
        "      a restarted worker resumes from the shard logs and\n"
        "      quarantines corrupt ones. Leases are heartbeat-renewed at\n"
        "      TTL/3; transient IO errors are retried with backoff.\n"
        "      --op-deadline S     per-logical-op IO budget in seconds:\n"
        "                          an op still unfinished past it becomes\n"
        "                          a transient ETIMEDOUT (0 = unbounded)\n"
        "      --fault-crash-op N  test hook: die (uncatchable, like\n"
        "                          kill -9) at the N-th filesystem\n"
        "                          operation this worker performs\n"
        "      --stall-append N --stall-ms M\n"
        "                          test hook: the N-th append to a shard\n"
        "                          record (i.e. mid-lease) hangs for M ms\n"
        "      --slow-fs-ms M      test hook: every filesystem op takes an\n"
        "                          extra M ms (a uniformly slow mount)\n"
        "      --fs-sim-seed S     test hook: run behind a SharedFsSim\n"
        "                          NFS-client view (seeded staleness\n"
        "                          windows, delayed directory entries,\n"
        "                          ESTALE on unlinked-under-handle reads)\n"
        "      --fs-sim-stale-ops N\n"
        "                          max staleness window in view ops\n"
        "                          (default 6)\n"
        "\n"
        "  " << binary
     << " daemon --jobs-dir D [daemon options]\n"
        "      Watch D for dropped job directories, work them to\n"
        "      completion, and merge results into the cache. Polling\n"
        "      backs off while idle. The daemon publishes a fleet\n"
        "      membership file under D/fleet/ (heartbeat at TTL/3) and\n"
        "      runs a gc sweep at the same cadence. SIGTERM/SIGINT stop\n"
        "      cleanly with all leases released and the member file\n"
        "      removed.\n"
        "        --cache-dir C / --no-cache / --cache-max-bytes B\n"
        "                         as in serve (unwritable cache degrades\n"
        "                         to compute-without-cache with a warning)\n"
        "        --owner TOKEN    lease owner token == fleet member id\n"
        "        --poll-ms M      idle backoff start (default 100)\n"
        "        --max-poll-ms M  idle backoff cap (default 2000)\n"
        "        --max-cycles N   exit after N poll cycles (default: run\n"
        "                         until signalled)\n"
        "        --placement P    fifo | fair | random (default fifo):\n"
        "                         how shard claims spread across jobs;\n"
        "                         fair interleaves one shard at a time\n"
        "                         with aging + a per-job in-flight cap\n"
        "        --inflight-cap N under fair: prefer jobs holding fewer\n"
        "                         than N unexpired leases fleet-wide\n"
        "                         (default 2; soft — never starves)\n"
        "        --member-ttl S   membership heartbeat TTL (default 15)\n"
        "        --seed S         placement jitter seed (default: derived\n"
        "                         from the owner token)\n"
        "        --cores N        advertise N cores in the member record\n"
        "                         (default: probe the machine); feeds the\n"
        "                         fair-placement claim budget\n"
        "        --load100 L      advertise load average x100 (default:\n"
        "                         probe, re-sampled at each heartbeat)\n"
        "        --min-free-bytes B\n"
        "                         disk-pressure ladder watermark: as free\n"
        "                         space on the jobs-dir filesystem shrinks\n"
        "                         below 4x/2x/1x B the daemon sheds its\n"
        "                         cache, stops claiming, then parks; freed\n"
        "                         space walks it back up (0 = off)\n"
        "        --free-bytes-file F\n"
        "                         test hook: probe free bytes from file F\n"
        "                         instead of statvfs\n"
        "        --op-deadline S  per-logical-op IO budget, as in worker\n"
        "        --clock-skew S   test hook: offset this daemon's wall\n"
        "                         clock by S seconds (negative allowed)\n"
        "        --fault-crash-op N\n"
        "                         test hook: die (uncatchable, like\n"
        "                         kill -9) at the N-th filesystem\n"
        "                         operation this daemon performs\n"
        "        --stall-append N --stall-ms M / --slow-fs-ms M\n"
        "                         test hooks: mid-lease hang / uniformly\n"
        "                         slow mount, as in worker\n"
        "        --fs-sim-seed S / --fs-sim-stale-ops N\n"
        "                         test hook: run behind a SharedFsSim\n"
        "                         NFS-client view, as in worker\n"
        "\n"
        "  " << binary
     << " merge --job-dir D [--json FILE] [--cache-dir C] [--no-cache]\n"
        "        [--cache-max-bytes B]\n"
        "      Reassemble a complete job's shard records into result rows\n"
        "      (byte-identical to a single-process run) and populate the\n"
        "      result cache. Exits nonzero, naming the shard and line, if\n"
        "      any shard log is corrupt or the job is incomplete.\n"
        "\n"
        "  " << binary
     << " status --job-dir D | --jobs-dir D [--json FILE]\n"
        "      --job-dir: report one job's shards, leases (with age and\n"
        "      last-progress age — a big gap on a live lease is a\n"
        "      fail-slow holder; STALE when expired), quarantines, and\n"
        "      progress.\n"
        "      --jobs-dir: the fleet view — every member daemon\n"
        "      (live/STALE, heartbeat age, host/cores/load, shards/sec,\n"
        "      disk-pressure state, held leases) and every job's progress\n"
        "      with per-lease owner/age/progress lines.\n"
        "      --json FILE: with --jobs-dir, also write the fleet view as\n"
        "      deterministic machine-readable JSON (\"-\" = stdout).\n"
        "\n"
        "  " << binary
     << " gc --jobs-dir D [--dry-run]\n"
        "      One garbage-collection sweep: reap stale fleet members,\n"
        "      reclaim expired lease debris (done shards or stale\n"
        "      owners), delete quarantined shard logs whose recomputed\n"
        "      replacement passed CRC verification. Daemons run this\n"
        "      sweep automatically at heartbeat cadence.\n"
        "      --dry-run: print what would be reclaimed without mutating\n"
        "      anything.\n"
        "\n"
        "  " << binary
     << " soak [--daemons N] [--kill-seed S] [soak options]\n"
        "      Fleet kill-storm drill: drop one big + several small jobs\n"
        "      in a fresh directory, spawn N real daemon processes, and\n"
        "      SIGKILL/restart them on a seeded schedule while they\n"
        "      drain. Exits nonzero unless every job completes, every\n"
        "      merge is byte-identical to a single-process run, and (when\n"
        "      kills happened) at least one lease steal was observed.\n"
        "        --daemons N / --kills N / --kill-interval-ms M\n"
        "        --kill-seed S    seeds the victim sequence (replayable)\n"
        "        --placement P    fleet placement policy (default fair)\n"
        "        --small-jobs N / --big-trials T / --small-trials T\n"
        "        --shard-tasks K / --lease-ttl S / --member-ttl S\n"
        "        --dir D          working directory (default\n"
        "                         .dualcast-soak; wiped at start)\n"
        "        --timeout S      liveness deadline (default 300)\n"
        "        --fault-crash-op N\n"
        "                         also arm each first-generation daemon\n"
        "                         with the FaultyFs crash hook\n"
        "        --sim            run every daemon behind its own\n"
        "                         SharedFsSim NFS-client view of the jobs\n"
        "                         directory (respawns get cold caches)\n"
        "        --fs-sim-seed S / --fs-sim-stale-ops N\n"
        "                         view-skew base seed / max staleness\n"
        "                         window (both imply --sim)\n"
        "        --clock-skew S   spread daemon wall clocks across\n"
        "                         [-S, +S] seconds\n"
        "        --slow [--slow-fs-ms M]\n"
        "                         run every daemon behind a uniformly slow\n"
        "                         mount (default 2ms per op)\n"
        "        --stall-seed S [--stall-ms M]\n"
        "                         arm one seeded mid-lease append hang per\n"
        "                         daemon generation, long enough (default\n"
        "                         lease TTL + 1s) that the lease lapses, a\n"
        "                         peer steals it, and the holder fences\n"
        "                         itself on waking\n"
        "        --disk-pressure [--min-free-bytes B]\n"
        "                         squeeze a shared free-bytes file to zero\n"
        "                         mid-storm and restore it; every daemon\n"
        "                         must walk the degradation ladder down\n"
        "                         and back up\n"
        "        --no-require-steal\n"
        "                         don't fail when kills produced no steal\n";
}

int serve_main(int argc, char** argv) {
  std::vector<std::string> names;
  scenario::RunOptions run_options;
  ServeOptions options;
  options.cache_dir = kDefaultCacheDir;
  options.out = &std::cout;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string flag = arg.substr(0, arg.find('='));
    if (flag == "--threads" || flag == "--sweep-threads") {
      throw ScenarioError(str("serve: ", flag,
                              " does not apply; serve measures shards on "
                              "--workers N threads"));
    } else if (scenario::consume_run_option_flag(argc, argv, i,
                                                 run_options)) {
      continue;
    } else if (arg == "--job-dir") {
      options.job_dir = flag_value(arg, argc, argv, i);
    } else if (arg == "--cache-dir") {
      options.cache_dir = flag_value(arg, argc, argv, i);
    } else if (arg == "--no-cache") {
      options.cache_dir.clear();
    } else if (arg == "--cache-max-bytes") {
      options.cache_max_bytes =
          parse_u64_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--verify-cache") {
      options.verify_cache = true;
    } else if (arg == "--json") {
      options.json_path = flag_value(arg, argc, argv, i);
    } else if (arg == "--workers") {
      options.workers =
          parse_nonneg_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--shard-tasks") {
      options.shard_tasks =
          scenario::parse_int_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--lease-ttl") {
      // 0 is meaningful: a dead worker's lease is instantly stealable —
      // what crash-drill jobs want, since resume never waits out a TTL.
      options.lease_ttl_seconds =
          parse_nonneg_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--help" || arg == "-h") {
      print_service_usage(std::cout, argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      throw ScenarioError(str("serve: unknown option \"", arg, "\""));
    } else {
      names.push_back(arg);
    }
  }
  if (names.empty()) {
    throw ScenarioError("serve: name at least one scenario (or a prefix)");
  }
  serve(scenario::resolve_selection(names), run_options, options);
  return 0;
}

int worker_main(int argc, char** argv) {
  std::string job_dir;
  EnvStack::Params stack_params;
  WorkerOptions options;
  options.log = &std::cout;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--job-dir") {
      job_dir = flag_value(arg, argc, argv, i);
    } else if (arg == "--owner") {
      options.owner = flag_value(arg, argc, argv, i);
    } else if (arg == "--max-shards") {
      options.max_shards =
          scenario::parse_int_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--op-deadline") {
      stack_params.op_deadline_seconds =
          parse_nonneg_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--fault-crash-op") {
      stack_params.fault_crash_op =
          parse_nonneg_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--slow-fs-ms") {
      stack_params.slow_fs_ms =
          parse_nonneg_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--stall-append") {
      stack_params.stall_append =
          parse_nonneg_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--stall-ms") {
      stack_params.stall_ms =
          parse_nonneg_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--fs-sim-seed") {
      stack_params.fs_sim = true;
      stack_params.fs_sim_seed =
          parse_u64_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--fs-sim-stale-ops") {
      stack_params.fs_sim_stale_ops =
          parse_nonneg_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--help" || arg == "-h") {
      print_service_usage(std::cout, argv[0]);
      return 0;
    } else {
      throw ScenarioError(str("worker: unknown argument \"", arg, "\""));
    }
  }
  if (job_dir.empty()) throw ScenarioError("worker: --job-dir is required");
  // Test decorators: --fault-crash-op wraps this process's filesystem in
  // a FaultyFs so the injected death is indistinguishable (to the job
  // directory) from a kill at that syscall; --stall-append/--stall-ms arm
  // a mid-lease hang instead; --slow-fs-ms taxes every op; --op-deadline
  // bounds each logical op; --fs-sim-seed additionally puts the process
  // behind its own simulated NFS-client view — the CI fault matrix and
  // shared-fs/fail-slow smokes drive these flags.
  EnvStack stack;
  stack.build(stack_params);
  options.op_deadline_seconds = stack_params.op_deadline_seconds;
  options.deadline_fs = stack.deadline.get();
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
  if (report.shards_quarantined > 0) {
    std::cout << ", " << report.shards_quarantined
              << " corrupt shard(s) quarantined";
  }
  if (report.stopped) std::cout << " [stopped by signal]";
  std::cout << "\n";
  return 0;
}

int daemon_main(int argc, char** argv) {
  DaemonOptions options;
  options.cache_dir = kDefaultCacheDir;
  options.log = &std::cout;
  EnvStack::Params stack_params;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs-dir") {
      options.jobs_dir = flag_value(arg, argc, argv, i);
    } else if (arg == "--cache-dir") {
      options.cache_dir = flag_value(arg, argc, argv, i);
    } else if (arg == "--no-cache") {
      options.cache_dir.clear();
    } else if (arg == "--cache-max-bytes") {
      options.cache_max_bytes =
          parse_u64_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--owner") {
      options.owner = flag_value(arg, argc, argv, i);
    } else if (arg == "--poll-ms") {
      options.poll_initial_ms =
          scenario::parse_int_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--max-poll-ms") {
      options.poll_max_ms =
          scenario::parse_int_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--max-cycles") {
      options.max_cycles =
          parse_nonneg_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--placement") {
      options.placement =
          parse_placement(flag_value(arg, argc, argv, i));
    } else if (arg == "--inflight-cap") {
      options.inflight_cap =
          scenario::parse_int_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--member-ttl") {
      options.member_ttl_seconds =
          scenario::parse_int_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--seed") {
      options.seed = parse_u64_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--cores") {
      options.resources.cores =
          scenario::parse_int_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--load100") {
      options.resources.load100 =
          parse_nonneg_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--clock-skew") {
      stack_params.clock_skew_seconds =
          parse_signed_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--min-free-bytes") {
      options.min_free_bytes = static_cast<std::int64_t>(
          parse_u64_flag(arg, flag_value(arg, argc, argv, i)));
    } else if (arg == "--free-bytes-file") {
      options.free_bytes_file = flag_value(arg, argc, argv, i);
    } else if (arg == "--op-deadline") {
      stack_params.op_deadline_seconds =
          parse_nonneg_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--fault-crash-op") {
      stack_params.fault_crash_op =
          parse_nonneg_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--slow-fs-ms") {
      stack_params.slow_fs_ms =
          parse_nonneg_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--stall-append") {
      stack_params.stall_append =
          parse_nonneg_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--stall-ms") {
      stack_params.stall_ms =
          parse_nonneg_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--fs-sim-seed") {
      stack_params.fs_sim = true;
      stack_params.fs_sim_seed =
          parse_u64_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--fs-sim-stale-ops") {
      stack_params.fs_sim_stale_ops =
          parse_nonneg_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--help" || arg == "-h") {
      print_service_usage(std::cout, argv[0]);
      return 0;
    } else {
      throw ScenarioError(str("daemon: unknown argument \"", arg, "\""));
    }
  }
  if (options.jobs_dir.empty()) {
    throw ScenarioError("daemon: --jobs-dir is required");
  }
  // Unbuffered progress: a SIGKILLed daemon (the soak harness's whole
  // point) must not take its logged steal/claim evidence down with it.
  std::cout << std::unitbuf;
  // Test decorators, mirroring the worker's: FaultyFs so the injected
  // death (or mid-lease stall) is indistinguishable from a kill or hung
  // mount at that syscall, SlowFs for uniform latency, DeadlineFs for
  // per-op budgets, SharedFsSim so this daemon runs behind one simulated
  // NFS-client view of the jobs directory, and OffsetClock so its wall
  // clock disagrees with the fleet's by a fixed skew.
  EnvStack stack;
  stack.build(stack_params);
  options.op_deadline_seconds = stack_params.op_deadline_seconds;
  options.deadline_fs = stack.deadline.get();
  const StoreEnv& env = stack.env;
  std::signal(SIGTERM, request_stop);
  std::signal(SIGINT, request_stop);
  options.stop = &g_stop;
  const DaemonReport report = run_daemon(options, env);
  std::cout << "daemon exit: " << report.cycles << " cycle(s), "
            << report.jobs_seen << " job(s) seen, " << report.jobs_completed
            << " completed, " << report.tasks_executed
            << " task(s) measured";
  if (report.shards_quarantined > 0) {
    std::cout << ", " << report.shards_quarantined
              << " corrupt shard(s) quarantined";
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
  if (report.members_reaped > 0 || report.leases_reclaimed > 0 ||
      report.quarantines_removed > 0) {
    std::cout << ", gc " << report.members_reaped << "/"
              << report.leases_reclaimed << "/"
              << report.quarantines_removed
              << " member(s)/lease(s)/quarantine(s)";
  }
  if (report.stopped) std::cout << " [stopped by signal]";
  std::cout << "\n";
  return 0;
}

int gc_main(int argc, char** argv) {
  std::string jobs_dir;
  bool dry_run = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs-dir") {
      jobs_dir = flag_value(arg, argc, argv, i);
    } else if (arg == "--dry-run") {
      dry_run = true;
    } else if (arg == "--help" || arg == "-h") {
      print_service_usage(std::cout, argv[0]);
      return 0;
    } else {
      throw ScenarioError(str("gc: unknown argument \"", arg, "\""));
    }
  }
  if (jobs_dir.empty()) throw ScenarioError("gc: --jobs-dir is required");
  const GcReport report = gc_sweep(jobs_dir, {}, &std::cout, dry_run);
  if (dry_run) {
    std::cout << "gc (dry run): " << report.jobs_swept
              << " job(s) swept, would reap " << report.members_reaped
              << " stale member(s), reclaim " << report.leases_reclaimed
              << " expired lease(s), remove " << report.quarantines_removed
              << " quarantine(s)\n";
  } else {
    std::cout << "gc: " << report.jobs_swept << " job(s) swept, "
              << report.members_reaped << " stale member(s) reaped, "
              << report.leases_reclaimed << " expired lease(s) reclaimed, "
              << report.quarantines_removed << " quarantine(s) removed\n";
  }
  return 0;
}

int soak_main(int argc, char** argv) {
  SoakOptions options;
  options.log = &std::cout;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--daemons") {
      options.daemons =
          scenario::parse_int_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--kill-seed") {
      options.kill_seed =
          parse_u64_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--kills") {
      options.kills = parse_nonneg_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--kill-interval-ms") {
      options.kill_interval_ms =
          scenario::parse_int_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--placement") {
      options.placement = parse_placement(flag_value(arg, argc, argv, i));
    } else if (arg == "--small-jobs") {
      options.small_jobs =
          parse_nonneg_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--big-trials") {
      options.big_trials =
          scenario::parse_int_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--small-trials") {
      options.small_trials =
          scenario::parse_int_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--shard-tasks") {
      options.shard_tasks =
          scenario::parse_int_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--lease-ttl") {
      options.lease_ttl_seconds =
          parse_nonneg_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--member-ttl") {
      options.member_ttl_seconds =
          scenario::parse_int_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--dir") {
      options.dir = flag_value(arg, argc, argv, i);
    } else if (arg == "--timeout") {
      options.timeout_seconds =
          scenario::parse_int_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--fault-crash-op") {
      options.fault_crash_op =
          parse_nonneg_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--sim") {
      options.sim = true;
    } else if (arg == "--fs-sim-seed") {
      options.sim = true;
      options.fs_sim_seed =
          parse_u64_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--fs-sim-stale-ops") {
      options.sim = true;
      options.fs_sim_stale_ops =
          parse_nonneg_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--clock-skew") {
      options.clock_skew_seconds =
          parse_nonneg_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--slow") {
      // Default slow-mount tax; --slow-fs-ms overrides the amount.
      if (options.slow_fs_ms == 0) options.slow_fs_ms = 2;
    } else if (arg == "--slow-fs-ms") {
      options.slow_fs_ms =
          scenario::parse_int_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--stall-seed") {
      options.stall_seed =
          parse_u64_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--stall-ms") {
      options.stall_ms =
          scenario::parse_int_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--disk-pressure") {
      options.disk_pressure = true;
    } else if (arg == "--min-free-bytes") {
      options.min_free_bytes = static_cast<std::int64_t>(
          parse_u64_flag(arg, flag_value(arg, argc, argv, i)));
    } else if (arg == "--no-require-steal") {
      options.require_steal = false;
    } else if (arg == "--help" || arg == "-h") {
      print_service_usage(std::cout, argv[0]);
      return 0;
    } else {
      throw ScenarioError(str("soak: unknown argument \"", arg, "\""));
    }
  }
  const SoakReport report = run_soak(options);
  return report.ok ? 0 : 1;
}

int merge_main(int argc, char** argv) {
  std::string job_dir;
  std::string json_path;
  std::string cache_dir = kDefaultCacheDir;
  std::uint64_t cache_max_bytes = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--job-dir") {
      job_dir = flag_value(arg, argc, argv, i);
    } else if (arg == "--json") {
      json_path = flag_value(arg, argc, argv, i);
    } else if (arg == "--cache-dir") {
      cache_dir = flag_value(arg, argc, argv, i);
    } else if (arg == "--no-cache") {
      cache_dir.clear();
    } else if (arg == "--cache-max-bytes") {
      cache_max_bytes = parse_u64_flag(arg, flag_value(arg, argc, argv, i));
    } else if (arg == "--help" || arg == "-h") {
      print_service_usage(std::cout, argv[0]);
      return 0;
    } else {
      throw ScenarioError(str("merge: unknown argument \"", arg, "\""));
    }
  }
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

int status_main(int argc, char** argv) {
  std::string job_dir;
  std::string jobs_dir;
  std::string json_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--job-dir") {
      job_dir = flag_value(arg, argc, argv, i);
    } else if (arg == "--jobs-dir") {
      jobs_dir = flag_value(arg, argc, argv, i);
    } else if (arg == "--json") {
      json_path = flag_value(arg, argc, argv, i);
    } else if (arg == "--help" || arg == "-h") {
      print_service_usage(std::cout, argv[0]);
      return 0;
    } else {
      throw ScenarioError(str("status: unknown argument \"", arg, "\""));
    }
  }
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

}  // namespace

bool is_service_command(const char* arg) {
  return std::strcmp(arg, "serve") == 0 || std::strcmp(arg, "worker") == 0 ||
         std::strcmp(arg, "daemon") == 0 || std::strcmp(arg, "merge") == 0 ||
         std::strcmp(arg, "status") == 0 || std::strcmp(arg, "gc") == 0 ||
         std::strcmp(arg, "soak") == 0;
}

int service_main(int argc, char** argv) {
  try {
    const std::string command = argc >= 2 ? argv[1] : "";
    if (command == "serve") return serve_main(argc, argv);
    if (command == "worker") return worker_main(argc, argv);
    if (command == "daemon") return daemon_main(argc, argv);
    if (command == "merge") return merge_main(argc, argv);
    if (command == "status") return status_main(argc, argv);
    if (command == "gc") return gc_main(argc, argv);
    if (command == "soak") return soak_main(argc, argv);
    throw ScenarioError(str("unknown service command \"", command, "\""));
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}

}  // namespace dualcast::service
