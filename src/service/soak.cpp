#include "service/soak.hpp"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <thread>

#include "service/service.hpp"
#include "util/rng.hpp"
#include "util/strfmt.hpp"

namespace dualcast::service {
namespace {

namespace stdfs = std::filesystem;
using scenario::ScenarioError;

/// The storm's workload scenario: cheap enough that a job is seconds, not
/// minutes, and in the built-in catalog — daemons are separate processes
/// that re-resolve the job's scenario names, so ad-hoc registrations
/// would not survive the exec boundary.
constexpr const char* kSoakScenario = "fig1/static-global-line";

/// The job ladder: one big job plus kSmallJobs small ones, small job j
/// running kSmallTrials + j trials. Trial counts double as job identities,
/// so the ranges must not overlap.
constexpr int kSmallJobs = 2;
constexpr int kBigTrials = 40;
constexpr int kSmallTrials = 4;
static_assert(kBigTrials > kSmallTrials + kSmallJobs,
              "the big job's trial count must exceed every small job's");
constexpr int kShardTasks = 5;
constexpr int kLeaseTtlSeconds = 2;   ///< short: steals happen in the storm
constexpr int kMemberTtlSeconds = 4;  ///< stale detection well inside the run
constexpr std::int64_t kTimeoutSeconds = 300;
/// The disk-pressure drill's ladder watermark.
constexpr std::int64_t kMinFreeBytes = 1 << 20;
/// A fail-slow stall must comfortably outlive the lease TTL, or no lapse
/// (and no steal) is guaranteed.
constexpr int kStallMs = (kLeaseTtlSeconds + 1) * 1000;

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string self_binary() {
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (len <= 0) {
    throw ScenarioError("soak: cannot resolve /proc/self/exe");
  }
  buf[len] = '\0';
  return std::string(buf);
}

/// One daemon process slot of the fleet.
struct Slot {
  pid_t pid = -1;
  bool alive = false;
  bool killed = false;  ///< we SIGKILLed it (vs died on its own)
  int generation = 0;   ///< respawn count; gen 0 may carry the fault hook
};

/// fork + exec one daemon with stdout/stderr appended to `log_path`.
pid_t spawn_process(const std::string& binary,
                    const std::vector<std::string>& args,
                    const std::string& log_path) {
  const pid_t pid = ::fork();
  if (pid < 0) throw ScenarioError("soak: fork failed");
  if (pid > 0) return pid;
  // Child: redirect output, exec. Only async-signal-safe calls from here.
  const int fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd >= 0) {
    ::dup2(fd, STDOUT_FILENO);
    ::dup2(fd, STDERR_FILENO);
    if (fd > STDERR_FILENO) ::close(fd);
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 2);
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  ::execv(binary.c_str(), argv.data());
  ::_exit(127);
}

int count_occurrences(const std::string& path, const std::string& needle) {
  std::ifstream in(path);
  if (!in) return 0;
  int count = 0;
  std::string line;
  while (std::getline(in, line)) {
    for (std::size_t at = line.find(needle); at != std::string::npos;
         at = line.find(needle, at + needle.size())) {
      ++count;
    }
  }
  return count;
}

int shards_done(const JobStore& store) {
  int done = 0;
  for (int s = 0; s < store.shard_count(); ++s) done += store.shard_done(s);
  return done;
}

}  // namespace

SoakReport run_soak(const SoakOptions& options) {
  if (options.daemons < 1) throw ScenarioError("soak: need >= 1 daemon");
  SoakReport report;
  std::ostream* log = options.log;
  const std::string binary = self_binary();
  const scenario::ScenarioSpec& spec =
      scenario::scenarios().get(kSoakScenario);

  // Fresh ground: jobs/ is the fleet's shared directory, logs/ collects
  // per-daemon output (the steal evidence).
  stdfs::remove_all(options.dir);
  const std::string jobs_dir = str(options.dir, "/jobs");
  const std::string logs_dir = str(options.dir, "/logs");
  stdfs::create_directories(jobs_dir);
  stdfs::create_directories(logs_dir);

  // The job ladder: one big sweep plus kSmallJobs quick ones, with
  // distinct trial counts as distinct job keys. References come straight
  // from run_scenarios() — the byte-identical contract's ground truth —
  // before any daemon exists (parallel reference computation would race
  // the storm clock).
  struct SoakJob {
    std::string dir;
    std::unique_ptr<JobStore> store;
    std::vector<std::string> reference;
  };
  std::vector<SoakJob> jobs;
  std::vector<int> trial_counts{kBigTrials};
  for (int j = 0; j < kSmallJobs; ++j) trial_counts.push_back(kSmallTrials + j);
  const unsigned cores = std::thread::hardware_concurrency();
  for (std::size_t j = 0; j < trial_counts.size(); ++j) {
    SoakJob job;
    job.dir = str(jobs_dir, "/job", j, j == 0 ? "_big" : "_small");
    const JobSpec job_spec = [&] {
      scenario::RunOptions run_options;
      run_options.trials_override = trial_counts[j];
      return make_job_spec({&spec}, run_options, kShardTasks,
                           kLeaseTtlSeconds);
    }();
    scenario::RunOptions ref_options = job_spec.run_options();
    ref_options.sweep_threads =
        cores > 1 ? static_cast<int>(cores > 8 ? 8 : cores) : 1;
    for (const scenario::ScenarioResult& result :
         scenario::run_scenarios({&spec}, ref_options)) {
      scenario::append_json_rows(result, job.reference);
    }
    job.store = std::make_unique<JobStore>(
        JobStore::create_or_attach(job.dir, job_spec));
    report.total_tasks += job.store->total_tasks();
    if (log != nullptr) {
      *log << "soak: job " << job.dir << ": " << job.store->total_tasks()
           << " tasks over " << job.store->shard_count() << " shards\n";
    }
    jobs.push_back(std::move(job));
  }
  report.jobs = static_cast<int>(jobs.size());

  // The fleet. Every daemon gets its own owner token, rotation seed, and
  // log file; generation 0 optionally carries the FaultyFs crash hook.
  // The owner token includes the generation — a respawn is a *new* fleet
  // member (as a real restart's fresh pid would be), so a predecessor's
  // leftover lease is foreign to it and must be stolen, not resumed.
  const std::string free_file = str(options.dir, "/free_bytes");
  const std::int64_t free_high = kMinFreeBytes * 10;
  const auto write_free_bytes = [&](std::int64_t value) {
    // Temp + rename: daemons re-read this file through their Fs seam
    // every cycle and must never observe a half-written number.
    const std::string tmp = str(free_file, ".tmp");
    std::ofstream out(tmp, std::ios::trunc);
    out << value << "\n";
    out.close();
    stdfs::rename(tmp, free_file);
  };
  if (options.disk_pressure) write_free_bytes(free_high);
  const auto daemon_args = [&](int slot, int generation) {
    std::vector<std::string> args{
        "daemon",       "--jobs-dir",  jobs_dir,
        "--no-cache",   "--owner",     str("soak-d", slot, ".g", generation),
        "--poll-ms",    "20",          "--max-poll-ms",
        "200",          "--member-ttl", str(kMemberTtlSeconds),
        "--seed",       str(options.kill_seed * 1000003ull + slot + 1)};
    if (options.fault_crash_op >= 0 && generation == 0) {
      args.push_back("--fault-crash-op");
      args.push_back(str(options.fault_crash_op));
    }
    if (options.stall_seed != 0) {
      // One mid-lease hang per daemon generation: append N (counted from
      // 0) to a shards/ file stalls for longer than the lease TTL. The
      // victim op varies by slot and generation so stalls land at
      // different points of different daemons' claim sequences.
      std::uint64_t x = options.stall_seed * 1000003ull +
                        static_cast<std::uint64_t>(slot) * 131ull +
                        static_cast<std::uint64_t>(generation);
      args.push_back("--stall-append");
      args.push_back(str(1 + splitmix64(x) % 4));
      args.push_back("--stall-ms");
      args.push_back(str(kStallMs));
    }
    if (options.disk_pressure) {
      args.push_back("--min-free-bytes");
      args.push_back(str(kMinFreeBytes));
      args.push_back("--free-bytes-file");
      args.push_back(free_file);
    }
    if (options.sim) {
      // Each daemon mounts the jobs directory through its own SharedFsSim
      // view. The seed folds in slot *and* generation: a respawn is a
      // rebooted client whose cache starts cold and whose staleness
      // schedule differs from its predecessor's.
      args.push_back("--fs-sim-seed");
      args.push_back(str(options.fs_sim_seed * 1000003ull +
                         static_cast<std::uint64_t>(slot) * 131ull +
                         static_cast<std::uint64_t>(generation) + 1));
    }
    if (options.clock_skew_seconds != 0) {
      // Spread wall-clock offsets deterministically across
      // [-skew, +skew]: the fastest and slowest clocks in the fleet
      // disagree by the full 2*skew, so lease-expiry judgments genuinely
      // diverge between daemons.
      const int skew = options.clock_skew_seconds;
      const int offset = options.daemons > 1
                             ? -skew + (2 * skew * slot) / (options.daemons - 1)
                             : skew;
      args.push_back("--clock-skew");
      args.push_back(str(offset));
    }
    return args;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(options.daemons));
  const auto spawn_slot = [&](int i) {
    Slot& slot = slots[static_cast<std::size_t>(i)];
    slot.pid = spawn_process(binary, daemon_args(i, slot.generation),
                             str(logs_dir, "/soak-d", i, ".log"));
    slot.alive = true;
    slot.killed = false;
  };
  for (int i = 0; i < options.daemons; ++i) spawn_slot(i);
  if (log != nullptr) {
    *log << "soak: " << options.daemons << " daemon(s) up, kill seed "
         << options.kill_seed << ", " << options.kills << " kill(s) due";
    if (options.sim) {
      *log << ", fs-sim seed " << options.fs_sim_seed;
    }
    if (options.clock_skew_seconds != 0) {
      *log << ", clock skew +/-" << options.clock_skew_seconds << "s";
    }
    if (options.stall_seed != 0) {
      *log << ", stall seed " << options.stall_seed << " (" << kStallMs
           << "ms vs " << kLeaseTtlSeconds << "s lease)";
    }
    if (options.disk_pressure) {
      *log << ", disk-pressure drill (watermark " << kMinFreeBytes << "B)";
    }
    *log << "\n";
  }

  // The storm: a seeded pick among the lease holders, paced by the drain
  // (see soak.hpp), dead slots respawned each tick (respawns never carry
  // the fault hook — an early injected death must not become a crash
  // loop).
  std::uint64_t rng = options.kill_seed != 0 ? options.kill_seed : 1;
  // Live slots whose current owner token holds an unexpired lease in one
  // of the soak's jobs, in slot order.
  const auto lease_holders = [&] {
    std::vector<std::string> owners;
    for (const SoakJob& job : jobs) {
      for (const LeaseState& lease : job.store->scan_leases()) {
        if (!lease.expired) owners.push_back(lease.owner);
      }
    }
    std::vector<int> holders;
    for (int i = 0; i < options.daemons; ++i) {
      const Slot& slot = slots[static_cast<std::size_t>(i)];
      const std::string owner = str("soak-d", i, ".g", slot.generation);
      if (slot.alive && std::find(owners.begin(), owners.end(), owner) !=
                            owners.end()) {
        holders.push_back(i);
      }
    }
    return holders;
  };
  const std::int64_t deadline = now_ms() + kTimeoutSeconds * 1000;
  int total_shards = 0;
  for (const SoakJob& job : jobs) total_shards += job.store->shard_count();
  // Disk-pressure schedule: let the fleet get going, squeeze the shared
  // "disk" to zero (every daemon must park), hold, then restore (every
  // daemon must walk back up and finish the drain).
  const std::int64_t squeeze_at = now_ms() + 1000;
  const std::int64_t restore_at = squeeze_at + 1500;
  bool squeezed = false;
  bool restored = false;
  int kills_done = 0;
  bool all_done = false;
  while (now_ms() < deadline) {
    if (options.disk_pressure && !squeezed && now_ms() >= squeeze_at) {
      write_free_bytes(0);
      squeezed = true;
      if (log != nullptr) *log << "soak: squeezed free bytes to 0\n";
    }
    if (options.disk_pressure && squeezed && !restored &&
        now_ms() >= restore_at) {
      write_free_bytes(free_high);
      restored = true;
      if (log != nullptr) {
        *log << "soak: restored free bytes to " << free_high << "\n";
      }
    }
    // Reap: a slot that died without our SIGKILL hit the fault hook (or
    // a real bug — the merge check decides which).
    for (Slot& slot : slots) {
      if (!slot.alive) continue;
      int status = 0;
      if (::waitpid(slot.pid, &status, WNOHANG) == slot.pid) {
        slot.alive = false;
        if (!slot.killed) {
          ++report.crashes;
          if (log != nullptr) {
            *log << "soak: daemon pid " << slot.pid
                 << " died on its own (status " << status << ")\n";
          }
        }
      }
    }
    int done = 0;
    for (const SoakJob& job : jobs) done += shards_done(*job.store);
    all_done = done == total_shards;
    // Under the disk-pressure drill, hold the fleet up through the full
    // squeeze-and-restore cycle even if the drain already finished — the
    // ladder walk is part of the verdict, and idle daemons still probe.
    if (all_done && (!options.disk_pressure || restored)) break;
    for (int i = 0; i < options.daemons; ++i) {
      if (!slots[static_cast<std::size_t>(i)].alive) {
        ++slots[static_cast<std::size_t>(i)].generation;
        ++report.restarts;
        spawn_slot(i);
        if (log != nullptr) {
          *log << "soak: respawned daemon " << i << " (generation "
               << slots[static_cast<std::size_t>(i)].generation << ")\n";
        }
      }
    }
    const bool kill_due =
        kills_done < options.kills &&
        static_cast<std::int64_t>(done) * (options.kills + 1) >=
            static_cast<std::int64_t>(kills_done + 1) * total_shards;
    if (kill_due) {
      // Only a live daemon holding an unexpired lease leaves one behind to
      // steal; a kill of a parked or idle daemon proves nothing. With no
      // holder this tick, the kill waits for the next.
      const std::vector<int> holders = lease_holders();
      if (!holders.empty()) {
        const int victim = holders[static_cast<std::size_t>(
            splitmix64(rng) % static_cast<std::uint64_t>(holders.size()))];
        Slot& slot = slots[static_cast<std::size_t>(victim)];
        slot.killed = true;
        ::kill(slot.pid, SIGKILL);
        ::waitpid(slot.pid, nullptr, 0);
        slot.alive = false;
        ++kills_done;
        ++report.kills;
        if (log != nullptr) {
          *log << "soak: SIGKILLed daemon " << victim << " (pid "
               << slot.pid << ") at " << done << "/" << total_shards
               << " shards done, " << (options.kills - kills_done)
               << " kill(s) left\n";
        }
      }
    }
    // Poll fast while kills are outstanding, so each lands close to its
    // share of the drain. A due kill waiting for a holder polls faster
    // still: late in a fast drain the only holders are peers stealing a
    // victim's lapsed lease, each for a few milliseconds.
    std::this_thread::sleep_for(std::chrono::milliseconds(
        kill_due ? 2 : kills_done < options.kills ? 20 : 100));
  }
  report.completed = all_done;
  if (!all_done) {
    report.failures.push_back(
        str("liveness: jobs not drained within ", kTimeoutSeconds, "s"));
  }

  // Stand the fleet down: SIGTERM (clean lease release + deregister),
  // escalating to SIGKILL only if a daemon ignores it.
  for (Slot& slot : slots) {
    if (slot.alive) ::kill(slot.pid, SIGTERM);
  }
  const std::int64_t term_deadline = now_ms() + 10000;
  for (Slot& slot : slots) {
    if (!slot.alive) continue;
    for (;;) {
      if (::waitpid(slot.pid, nullptr, WNOHANG) == slot.pid) break;
      if (now_ms() >= term_deadline) {
        ::kill(slot.pid, SIGKILL);
        ::waitpid(slot.pid, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    slot.alive = false;
  }

  // Steal evidence: the surviving daemons' logs (a SIGKILLed daemon loses
  // buffered lines, but the *stealer* survives by definition — and the
  // daemon CLI runs unbuffered anyway).
  for (int i = 0; i < options.daemons; ++i) {
    const std::string log_path = str(logs_dir, "/soak-d", i, ".log");
    report.steals += count_occurrences(log_path, "stole expired lease");
    report.fences += count_occurrences(log_path, "fenced off shard");
    report.pressure_events += count_occurrences(log_path, "disk pressure");
  }

  // Safety: every job re-merged in-process must reproduce its reference
  // bytes exactly — kills, steals, duplicate records and all.
  report.identical = true;
  for (const SoakJob& job : jobs) {
    try {
      JobRuntime runtime(*job.store);
      const std::vector<std::string> rows =
          merge_job(*job.store, runtime, nullptr);
      if (rows != job.reference) {
        report.identical = false;
        report.failures.push_back(
            str("safety: ", job.dir, " merged rows differ from the ",
                "single-process reference"));
      }
    } catch (const ScenarioError& error) {
      report.identical = false;
      report.failures.push_back(
          str("safety: ", job.dir, " merge failed: ", error.what()));
    }
  }

  report.ok = report.completed && report.identical;
  if (report.kills < options.kills) {
    report.ok = false;
    report.failures.push_back(str("mechanism: ", report.kills, " of ",
                                  options.kills, " kills landed"));
  }
  const bool steal_required = report.kills > 0 || options.stall_seed != 0;
  if (steal_required && report.steals == 0) {
    report.ok = false;
    report.failures.push_back(
        "mechanism: kills/stalls happened but no lease steal was observed");
  }
  if (options.disk_pressure && report.pressure_events < 2) {
    // A full drill is at least one down transition and one back up.
    report.ok = false;
    report.failures.push_back(
        "mechanism: disk-pressure drill produced no ladder walk");
  }
  if (log != nullptr) {
    *log << "soak: " << (report.ok ? "OK" : "FAILED") << " — "
         << report.jobs << " job(s)/" << report.total_tasks << " task(s), "
         << report.kills << " kill(s), " << report.crashes
         << " crash(es), " << report.restarts << " restart(s), "
         << report.steals << " steal(s), " << report.fences
         << " fence(s), " << report.pressure_events
         << " pressure transition(s), merges "
         << (report.identical ? "byte-identical" : "DIVERGENT") << "\n";
    for (const std::string& failure : report.failures) {
      *log << "soak:   " << failure << "\n";
    }
  }
  return report;
}

}  // namespace dualcast::service
