// Fail-slow hardening end to end: a stalled lease holder whose
// progress-gated heartbeat lets the lease lapse, the peer that steals it,
// and the holder's self-fencing on wake-up (byte-identical merge, no task
// executed twice); per-op IO deadlines turning a hung op into a typed
// transient ETIMEDOUT; the heartbeat's refusal to swallow InjectedCrash
// (a death test); the disk-pressure classification rungs; a live daemon
// walking the degradation ladder down and back up via the free-bytes-file
// hook; and the status surfaces (text + JSON) for last-progress age and
// member pressure, byte-deterministic under a FakeClock.

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "service/daemon.hpp"
#include "service/service.hpp"
#include "util/clock.hpp"
#include "util/io.hpp"

namespace dualcast::service {
namespace {

namespace fs = std::filesystem;
using scenario::ScenarioSpec;
using util::DeadlineFs;
using util::FakeClock;
using util::FaultyFs;
using util::InjectedFault;

const ScenarioSpec& mini_scenario() {
  static const std::string name = "svc-test/failslow-mini";
  if (!scenario::scenarios().contains(name)) {
    ScenarioSpec spec;
    spec.name = name;
    spec.title = "service fail-slow mini";
    spec.topology = "dual_clique({x})";
    spec.problem = "global(1)";
    spec.sweep = {8, 12};
    spec.trials = 3;
    spec.base_seed = 66;
    spec.max_rounds = "200*n";
    spec.columns = {
        {"decay+iid", "decay_global(permuted,persistent)", "iid(0.5)", ""},
        {"robin+collider", "round_robin", "collider", ""},
    };
    scenario::scenarios().add(spec);
  }
  return scenario::scenarios().get(name);
}

std::string fresh_dir(const std::string& tag) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("dualcast_failslow_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<std::string> reference_rows() {
  static const std::vector<std::string> rows = [] {
    std::vector<std::string> out;
    for (const scenario::ScenarioResult& result :
         scenario::run_scenarios({&mini_scenario()}, {})) {
      scenario::append_json_rows(result, out);
    }
    return out;
  }();
  return rows;
}

JobSpec mini_job(int shard_tasks, int lease_ttl_seconds) {
  return make_job_spec({&mini_scenario()}, scenario::RunOptions{},
                       shard_tasks, lease_ttl_seconds);
}

TEST(ClassifyDiskPressure, RungsBoundariesAndUnknowns) {
  const std::int64_t w = 1000;
  EXPECT_EQ(classify_disk_pressure(4 * w, w), DiskPressure::ok);
  EXPECT_EQ(classify_disk_pressure(4 * w - 1, w), DiskPressure::cache_shed);
  EXPECT_EQ(classify_disk_pressure(2 * w, w), DiskPressure::cache_shed);
  EXPECT_EQ(classify_disk_pressure(2 * w - 1, w),
            DiskPressure::no_new_claims);
  EXPECT_EQ(classify_disk_pressure(w, w), DiskPressure::no_new_claims);
  EXPECT_EQ(classify_disk_pressure(w - 1, w), DiskPressure::parked);
  EXPECT_EQ(classify_disk_pressure(0, w), DiskPressure::parked);
  // Unknown free space and an unset watermark both read as healthy —
  // the ladder never degrades on missing information.
  EXPECT_EQ(classify_disk_pressure(-1, w), DiskPressure::ok);
  EXPECT_EQ(classify_disk_pressure(0, 0), DiskPressure::ok);
  EXPECT_STREQ(to_string(DiskPressure::ok), "ok");
  EXPECT_STREQ(to_string(DiskPressure::cache_shed), "cache-shed");
  EXPECT_STREQ(to_string(DiskPressure::no_new_claims), "no-new-claims");
  EXPECT_STREQ(to_string(DiskPressure::parked), "parked");
}

TEST(FailSlow, StalledHolderLapsesPeerStealsAndHolderFencesOnWake) {
  // The whole fail-slow story in one deterministic pass: the holder's
  // first record reaches disk, then its fsync hangs long enough (on the
  // shared FakeClock) that the lease TTL lapses with the progress gate
  // withholding renewals. A peer — run from the stall hook, over a
  // different Fs, exactly while the holder is hung — steals the expired
  // lease and finishes everything. The holder wakes, finds the shard
  // done, fences itself off, and executes nothing further: the merge is
  // byte-identical and no task ran twice.
  const std::string dir = fresh_dir("stall_steal");
  FakeClock clock(1000);
  FaultyFs faulty(util::real_fs());
  faulty.set_tick_clock(&clock);
  StoreEnv env;
  env.fs = &faulty;
  env.clock = &clock;
  JobStore store = JobStore::create_or_attach(
      dir, mini_job(/*shard_tasks=*/3, /*lease_ttl_seconds=*/30), env);
  const JobRuntime runtime(store);
  const int total_tasks = store.total_tasks();

  StoreEnv thief_env;  // plain fs, same clock: a healthy peer machine
  thief_env.clock = &clock;
  WorkerReport thief_report;
  std::ostringstream thief_log;
  std::atomic<int> hook_runs{0};
  faulty.set_on_stall([&] {
    hook_runs.fetch_add(1);
    JobStore thief_store = JobStore::open(dir, thief_env);
    const JobRuntime thief_runtime(thief_store);
    WorkerOptions thief_options;
    thief_options.owner = "thief";
    thief_options.log = &thief_log;
    thief_report = run_worker(thief_store, thief_runtime, thief_options);
  });
  InjectedFault stall;
  stall.kind = InjectedFault::Kind::delay;
  stall.at = 0;  // the first record fsync: the record itself is durable
  stall.op = "fsync";
  stall.path_substr = "shards/";
  stall.delay_ticks = 60;  // 2x the lease TTL
  stall.delay_ms = 100;    // real window so the 20ms heartbeat poll runs
                           // (and is skipped by the gate) while hung
  faulty.inject(stall);

  WorkerOptions holder_options;
  holder_options.owner = "holder";
  std::ostringstream holder_log;
  holder_options.log = &holder_log;
  const WorkerReport holder_report =
      run_worker(store, runtime, holder_options);

  EXPECT_EQ(hook_runs.load(), 1);
  EXPECT_EQ(faulty.stalls(), 1);
  // The thief observed an expired lease mid-hold and stole it.
  EXPECT_EQ(thief_report.leases_stolen, 1);
  EXPECT_NE(thief_log.str().find("stole expired lease"), std::string::npos);
  // The holder woke to a lapsed lease on a finished shard and fenced.
  EXPECT_EQ(holder_report.shards_fenced, 1);
  EXPECT_GE(holder_report.heartbeats_skipped, 1);
  EXPECT_NE(holder_log.str().find("fenced off shard"), std::string::npos);
  // No double execution: the holder's one durable task plus the thief's
  // work account for exactly the job — the thief *resumed* from the
  // holder's watermark rather than recomputing it.
  EXPECT_EQ(holder_report.tasks_executed, 1);
  EXPECT_EQ(holder_report.tasks_executed + thief_report.tasks_executed,
            total_tasks);
  EXPECT_EQ(thief_report.tasks_skipped, 1);
  // And the merge is the single-process bytes, stall and steal included.
  JobRuntime merge_runtime(store);
  EXPECT_EQ(merge_job(store, merge_runtime, nullptr), reference_rows());
}

TEST(FailSlow, OpDeadlineTurnsHungOpIntoTimeoutAndResumeIsByteIdentical) {
  // A worker behind a DeadlineFs: a hung fsync (FakeClock jump past the
  // per-op budget) surfaces as transient ETIMEDOUT, the exhausted budget
  // stops the retry loop, and the worker unwinds like a kill. A clean
  // worker then resumes from the durable watermark — no lost or doubled
  // work.
  const std::string dir = fresh_dir("deadline");
  FakeClock clock(2000);
  FaultyFs faulty(util::real_fs());
  faulty.set_tick_clock(&clock);
  DeadlineFs deadline_fs(faulty);
  StoreEnv env;
  env.fs = &deadline_fs;
  env.clock = &clock;
  JobStore store = JobStore::create_or_attach(
      dir, mini_job(/*shard_tasks=*/3, /*lease_ttl_seconds=*/0), env);
  const JobRuntime runtime(store);

  InjectedFault stall;
  stall.kind = InjectedFault::Kind::delay;
  stall.at = 0;
  stall.op = "fsync";
  stall.path_substr = "shards/";
  stall.delay_ticks = 10;  // 2x the op deadline
  faulty.inject(stall);

  WorkerOptions options;
  options.owner = "hung";
  options.op_deadline_seconds = 5;
  options.deadline_fs = &deadline_fs;
  options.io_retries = 3;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 2;
  try {
    run_worker(store, runtime, options);
    FAIL() << "expected the hung op to time out";
  } catch (const util::IoError& error) {
    EXPECT_EQ(error.code(), ETIMEDOUT);
    EXPECT_TRUE(error.transient());
  }

  StoreEnv clean_env;
  clean_env.clock = &clock;
  JobStore resumed = JobStore::open(dir, clean_env);
  const JobRuntime resumed_runtime(resumed);
  WorkerOptions recover;
  recover.owner = "recoverer";
  const WorkerReport report = run_worker(resumed, resumed_runtime, recover);
  // The timed-out op had in fact completed on disk ("maybe done"): its
  // record is found, not recomputed.
  EXPECT_GE(report.tasks_skipped, 1);
  JobRuntime merge_runtime(resumed);
  EXPECT_EQ(merge_job(resumed, merge_runtime, nullptr), reference_rows());
}

TEST(FailSlowDeathTest, HeartbeatNeverSwallowsInjectedCrash) {
  // The heartbeat catches *only* IoError; an InjectedCrash scheduled on
  // the renewal write must escape the thread and terminate the process —
  // a crash is a crash, even on the background path. The delay schedule
  // walks the clock so a renewal becomes due (and passes the progress
  // gate) while the worker is mid-stall, then the crash fault fires on
  // the renewal's lease rename (match 1; the claim's rename is match 0).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        const std::string dir = fresh_dir("hb_crash");
        FakeClock clock(5000);
        FaultyFs faulty(util::real_fs());
        faulty.set_tick_clock(&clock);
        StoreEnv env;
        env.fs = &faulty;
        env.clock = &clock;
        JobStore store = JobStore::create_or_attach(
            dir, mini_job(/*shard_tasks=*/16, /*lease_ttl_seconds=*/30),
            env);
        const JobRuntime runtime(store);
        InjectedFault stall;
        stall.kind = InjectedFault::Kind::delay;
        stall.at = 0;
        stall.op = "fsync";
        stall.path_substr = "shards/";
        stall.delay_ticks = 9;   // < interval: progress stays "fresh"
        stall.delay_ms = 300;    // real window for the 20ms-cadence poll
        stall.sticky = true;
        faulty.inject(stall);
        InjectedFault crash;
        crash.kind = InjectedFault::Kind::crash;
        crash.at = 1;
        crash.op = "rename";
        crash.path_substr = "leases/";
        faulty.inject(crash);
        WorkerOptions options;
        options.owner = "doomed";
        run_worker(store, runtime, options);
      },
      ".*");
}

/// Writes a decimal free-bytes value atomically (temp + rename), so the
/// daemon's per-cycle re-read never sees a torn number.
void write_free_bytes(const std::string& path, std::int64_t value) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::trunc);
  out << value << "\n";
  out.close();
  fs::rename(tmp, path);
}

/// Polls a file until it contains `needle` (or fails the test after 30s).
void wait_for_file_contains(const std::string& path,
                            const std::string& needle) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    std::string text;
    util::real_fs().read_file(path, text);
    if (text.find(needle) != std::string::npos) return;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "timed out waiting for \"" << needle << "\" in " << path;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// Polls `dir` until it holds an entry named `*<suffix>` (or fails the
/// test after 60s).
void wait_for_entry_ending(const std::string& dir, const std::string& suffix) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (;;) {
    std::error_code error;
    for (const auto& entry : fs::directory_iterator(dir, error)) {
      if (entry.path().filename().string().ends_with(suffix)) return;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "timed out waiting for a *" << suffix << " entry in " << dir;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

TEST(FailSlow, DaemonWalksPressureLadderDownAndBackUp) {
  // A live daemon against the free-bytes-file hook: the "disk" starts
  // full (the member record must publish parked), then is restored (back
  // to ok), and the dropped job still completes with byte-identical rows
  // — the ladder degrades and recovers without corrupting the store.
  // Parked from its first cycle, the daemon can claim and merge nothing
  // before the squeeze. The stop waits for the merge's result-cache
  // entry: once merge_job has written it, the daemon counts the job
  // whatever the stop flag says, so the stop cannot land between the
  // last shard and the merge.
  const std::string jobs_dir = fresh_dir("ladder_jobs");
  const std::string scratch = fresh_dir("ladder_scratch");
  const std::string free_file = scratch + "/free_bytes";
  const std::string cache_dir = scratch + "/cache";
  const std::string job_dir = jobs_dir + "/job1";
  JobStore::create_or_attach(
      job_dir, mini_job(/*shard_tasks=*/3, /*lease_ttl_seconds=*/60));
  write_free_bytes(free_file, 0);

  std::atomic<bool> stop{false};
  std::ostringstream log;
  DaemonOptions options;
  options.jobs_dir = jobs_dir;
  options.cache_dir = cache_dir;
  options.owner = "ladder-d";
  options.poll_initial_ms = 1;
  options.poll_max_ms = 5;
  options.min_free_bytes = 1000;
  options.free_bytes_file = free_file;
  options.stop = &stop;
  options.log = &log;
  DaemonReport report;
  std::thread daemon([&] { report = run_daemon(options); });

  const std::string member_file = jobs_dir + "/fleet/ladder-d";
  wait_for_file_contains(member_file, "pressure parked");
  write_free_bytes(free_file, 8000);
  wait_for_file_contains(member_file, "pressure ok");
  // Back at ok, the daemon must finish the drain and merge into the cache.
  wait_for_entry_ending(cache_dir, ".rows");
  stop.store(true);
  daemon.join();

  EXPECT_GE(report.pressure_transitions, 2);  // down to parked, back up
  EXPECT_EQ(report.pressure, "ok");
  EXPECT_EQ(report.jobs_completed, 1);
  EXPECT_NE(log.str().find("disk pressure"), std::string::npos);
  JobStore store = JobStore::open(job_dir);
  JobRuntime merge_runtime(store);
  EXPECT_EQ(merge_job(store, merge_runtime, nullptr), reference_rows());
}

TEST(FailSlow, StatusSurfacesProgressAgeAndPressureDeterministically) {
  // The observability satellite: a lease whose last-progress age lags its
  // own age (the fail-slow signature) and a member publishing a degraded
  // pressure state are both rendered — text and JSON — and the output is
  // byte-identical across calls under a frozen clock.
  const std::string jobs_dir = fresh_dir("status_jobs");
  FakeClock clock(10000);
  StoreEnv env;
  env.clock = &clock;
  JobStore store = JobStore::create_or_attach(
      jobs_dir + "/job1", mini_job(/*shard_tasks=*/3, /*lease_ttl=*/60),
      env);
  ASSERT_TRUE(store.try_lease(0, "slowpoke"));
  clock.advance(7);
  store.renew_lease(0, "slowpoke");  // progress stamped at 10007
  clock.advance(5);                  // now 10012: age 12s, progress 5s ago

  FleetRegistry registry(jobs_dir, env);
  MemberRecord member;
  member.id = "presser";
  member.pid = 42;
  member.host = "box-p";
  member.ttl_seconds = 60;
  member.started = 10000;
  member.pressure = "cache-shed";
  member.free_bytes = 3072;
  registry.publish(member);

  std::ostringstream first, second;
  print_fleet_status(jobs_dir, env, first);
  print_fleet_status(jobs_dir, env, second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_NE(first.str().find("pressure cache-shed"), std::string::npos);
  EXPECT_NE(first.str().find("(free 3072B)"), std::string::npos);
  EXPECT_NE(first.str().find(
                "lease shard 0: owner slowpoke, age 12s, progress 5s ago"),
            std::string::npos);

  const std::string json = fleet_status_json(jobs_dir, env);
  EXPECT_EQ(json, fleet_status_json(jobs_dir, env));
  EXPECT_NE(json.find("\"pressure\":\"cache-shed\""), std::string::npos);
  EXPECT_NE(json.find("\"free_bytes\":3072"), std::string::npos);
  EXPECT_NE(json.find("\"progress_age_seconds\":5"), std::string::npos);
  EXPECT_NE(json.find("\"owner\":\"slowpoke\""), std::string::npos);

  // The single-job view carries the same signal.
  std::ostringstream job_view;
  print_job_status(store, job_view);
  EXPECT_NE(job_view.str().find("progress 5s ago"), std::string::npos);
}

}  // namespace
}  // namespace dualcast::service
