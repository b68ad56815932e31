// Daemon mode: a job directory dropped into the watched dir is picked up,
// worked to completion, merged into the result cache (so a later serve is
// zero-recompute), and left with no held leases; the cooperative stop
// flag exits cleanly mid-run; an unopenable (read-only) cache degrades to
// compute-without-cache with a single warning; a finished shard whose log
// rotted is repaired and recomputed before the merge. Plus the CLI contract:
// merge/status against a broken job dir exit nonzero, serve rejects the
// run-option thread flags in favour of --workers, and daemon rejects a
// disk-pressure watermark too large for the ladder's arithmetic.

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "analysis/trials.hpp"
#include "service/daemon.hpp"
#include "service/service.hpp"
#include "service/service_cli.hpp"

namespace dualcast::service {
namespace {

namespace fs = std::filesystem;
using scenario::ScenarioSpec;

const ScenarioSpec& mini_scenario() {
  static const std::string name = "svc-test/daemon-mini";
  if (!scenario::scenarios().contains(name)) {
    ScenarioSpec spec;
    spec.name = name;
    spec.title = "service daemon mini";
    spec.topology = "dual_clique({x})";
    spec.problem = "global(1)";
    spec.sweep = {8, 12};
    spec.trials = 3;
    spec.base_seed = 55;
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
      fs::path(::testing::TempDir()) / ("dualcast_daemon_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Drops a job for the mini scenario into `jobs_dir`/job1.
std::string drop_job(const std::string& jobs_dir) {
  const JobSpec job =
      make_job_spec({&mini_scenario()}, scenario::RunOptions{},
                    /*shard_tasks=*/3, /*lease_ttl_seconds=*/60);
  const std::string dir = jobs_dir + "/job1";
  JobStore::create_or_attach(dir, job);
  return dir;
}

std::vector<std::string> reference_rows() {
  std::vector<std::string> rows;
  for (const scenario::ScenarioResult& result :
       scenario::run_scenarios({&mini_scenario()}, {})) {
    scenario::append_json_rows(result, rows);
  }
  return rows;
}

void expect_no_leases(const std::string& job_dir) {
  const JobStore store = JobStore::open(job_dir);
  for (const ShardState& shard : store.scan()) {
    EXPECT_FALSE(shard.leased)
        << "shard " << shard.index << " still leased by "
        << shard.lease_owner;
  }
}

TEST(ServiceDaemon, DrainsDroppedJobIntoCacheThenServeIsZeroRecompute) {
  const std::string jobs_dir = fresh_dir("drain_jobs");
  const std::string cache_dir = fresh_dir("drain_cache");
  const std::string job_dir = drop_job(jobs_dir);

  std::ostringstream log;
  DaemonOptions options;
  options.jobs_dir = jobs_dir;
  options.cache_dir = cache_dir;
  options.owner = "daemon-test";
  options.max_cycles = 3;
  options.poll_initial_ms = 1;
  options.poll_max_ms = 2;
  options.log = &log;
  const DaemonReport report = run_daemon(options);
  EXPECT_EQ(report.jobs_seen, 1);
  EXPECT_EQ(report.jobs_completed, 1);
  EXPECT_EQ(report.tasks_executed, 12);
  EXPECT_FALSE(report.stopped);
  expect_no_leases(job_dir);
  EXPECT_NE(log.str().find("picked up job"), std::string::npos);
  EXPECT_NE(log.str().find("completed job"), std::string::npos);

  // The daemon populated the cache: a serve of the same scenario must be
  // pure cache — zero trials executed.
  const std::uint64_t trials_before = trials_executed();
  ServeOptions serve_options;
  serve_options.cache_dir = cache_dir;
  serve_options.job_dir = fresh_dir("drain_serve_job");
  const ServeSummary summary =
      serve({&mini_scenario()}, {}, serve_options);
  EXPECT_EQ(summary.from_cache, 1);
  EXPECT_EQ(summary.computed, 0);
  EXPECT_EQ(summary.trials_run, 0u);
  EXPECT_EQ(trials_executed(), trials_before);
}

TEST(ServiceDaemon, StopFlagExitsCleanlyWithLeasesReleased) {
  const std::string jobs_dir = fresh_dir("stop_jobs");
  const std::string job_dir = drop_job(jobs_dir);

  std::atomic<bool> stop{false};
  DaemonOptions options;
  options.jobs_dir = jobs_dir;
  options.cache_dir.clear();
  options.owner = "daemon-stop";
  options.poll_initial_ms = 1;
  options.poll_max_ms = 5;
  options.stop = &stop;
  DaemonReport report;
  std::thread daemon([&] { report = run_daemon(options); });
  // Let it get into the job, then pull the plug. (If the job finishes
  // before the flag lands, the assertions below still hold — the daemon
  // idles until stopped and leaves the job complete and lease-free.)
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  daemon.join();
  EXPECT_TRUE(report.stopped);
  expect_no_leases(job_dir);

  // Whatever the daemon recorded before stopping is durable; a plain
  // worker finishes the remainder and the job merges clean.
  JobStore store = JobStore::open(job_dir);
  const JobRuntime runtime(store);
  WorkerOptions finish;
  finish.owner = "finisher";
  run_worker(store, runtime, finish);
  JobRuntime merge_runtime(store);
  EXPECT_EQ(merge_job(store, merge_runtime, nullptr).size(), 4u);
}

TEST(ServiceDaemon, ReadOnlyCacheDegradesToComputeWithoutCache) {
  const std::string jobs_dir = fresh_dir("rocache_jobs");
  const std::string job_dir = drop_job(jobs_dir);

  // Every op touching the cache directory fails EROFS, persistently —
  // a read-only mount. Job-store ops pass through untouched.
  util::FaultyFs faulty(util::real_fs());
  util::InjectedFault fault;
  fault.kind = util::InjectedFault::Kind::error;
  fault.err = EROFS;
  fault.path_substr = "rocache_cachedir";
  fault.sticky = true;
  faulty.inject(fault);
  StoreEnv env;
  env.fs = &faulty;

  std::ostringstream log;
  DaemonOptions options;
  options.jobs_dir = jobs_dir;
  options.cache_dir = fresh_dir("rocache_cachedir");
  options.owner = "daemon-ro";
  options.max_cycles = 3;
  options.poll_initial_ms = 1;
  options.poll_max_ms = 2;
  options.log = &log;
  const DaemonReport report = run_daemon(options, env);
  EXPECT_EQ(report.jobs_completed, 1);
  EXPECT_EQ(report.tasks_executed, 12);
  expect_no_leases(job_dir);

  // Exactly one warning about the cache; the job still completed.
  const std::string text = log.str();
  const std::size_t first = text.find("cannot open result cache");
  ASSERT_NE(first, std::string::npos) << text;
  EXPECT_EQ(text.find("cannot open result cache", first + 1),
            std::string::npos)
      << "cache warning repeated: " << text;
  JobStore store = JobStore::open(job_dir);
  JobRuntime merge_runtime(store);
  EXPECT_EQ(merge_job(store, merge_runtime, nullptr).size(), 4u);
}

TEST(ServiceDaemon, RepairsARottedFinishedShardAndMergesIdentical) {
  const std::string jobs_dir = fresh_dir("rot_jobs");
  const std::string job_dir = drop_job(jobs_dir);
  {
    JobStore store = JobStore::open(job_dir);
    const JobRuntime runtime(store);
    WorkerOptions finish;
    finish.owner = "original";
    run_worker(store, runtime, finish);
  }
  // Flip one byte in the second record of shard 2's log. The shard keeps
  // its done marker, so no claim would ever revisit it.
  const fs::path shard_log = fs::path(job_dir) / "shards" / "shard_2.log";
  std::string text;
  {
    std::ifstream in(shard_log, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const std::size_t flip = text.find(' ', text.find('\n') + 4) + 1;
  text[flip] = text[flip] == '7' ? '8' : '7';
  std::ofstream(shard_log, std::ios::binary) << text;

  std::ostringstream log;
  DaemonOptions options;
  options.jobs_dir = jobs_dir;
  options.cache_dir.clear();
  options.owner = "daemon-rot";
  options.max_cycles = 3;
  options.poll_initial_ms = 1;
  options.poll_max_ms = 2;
  options.log = &log;
  const DaemonReport report = run_daemon(options);
  EXPECT_EQ(report.shards_repaired, 1);
  EXPECT_EQ(report.tasks_executed, 2);
  EXPECT_EQ(report.jobs_completed, 1);
  EXPECT_NE(log.str().find("repaired shard 2 record log corrupt at line 2"),
            std::string::npos)
      << log.str();
  expect_no_leases(job_dir);
  JobStore store = JobStore::open(job_dir);
  JobRuntime merge_runtime(store);
  EXPECT_EQ(merge_job(store, merge_runtime, nullptr), reference_rows());
}

TEST(ServiceCliContract, MergeAndStatusExitNonzeroOnBrokenJobDirs) {
  // status against nothing: nonzero with a diagnostic (not a crash).
  {
    const std::string dir = fresh_dir("cli_absent") + "/nope";
    std::string arg_status = "status";
    std::string arg_flag = "--job-dir";
    char* argv[] = {const_cast<char*>("bench"), arg_status.data(),
                    arg_flag.data(), const_cast<char*>(dir.c_str())};
    EXPECT_EQ(service_main(4, argv), 1);
  }
  // merge against a job with a mangled meta field: nonzero.
  {
    const std::string dir = fresh_dir("cli_badmeta");
    std::ofstream(fs::path(dir) / "job.meta")
        << "dualcast-job v1\nkey 0000000000000001\n"
           "catalog 0000000000000002\nshard_tasks banana\n"
           "scenario svc-test/daemon-mini\nend\n";
    std::string arg_merge = "merge";
    std::string arg_flag = "--job-dir";
    char* argv[] = {const_cast<char*>("bench"), arg_merge.data(),
                    arg_flag.data(), const_cast<char*>(dir.c_str())};
    EXPECT_EQ(service_main(4, argv), 1);
  }
  // merge of an incomplete (but valid) job: nonzero, not rows.
  {
    const std::string jobs_dir = fresh_dir("cli_incomplete");
    const std::string job_dir = drop_job(jobs_dir);
    std::string arg_merge = "merge";
    std::string arg_flag = "--job-dir";
    std::string arg_nocache = "--no-cache";
    char* argv[] = {const_cast<char*>("bench"), arg_merge.data(),
                    arg_flag.data(), const_cast<char*>(job_dir.c_str()),
                    arg_nocache.data()};
    EXPECT_EQ(service_main(5, argv), 1);
  }
}

TEST(ServiceCliContract, ServeRejectsThreadFlagsAndNamesWorkers) {
  // serve's parallelism is --workers N; a thread flag would otherwise be
  // accepted and silently run one worker. The flag is rejected while
  // parsing, before any trial runs.
  for (std::string flag : {"--sweep-threads", "--threads"}) {
    for (const bool equals_form : {false, true}) {
      std::string arg_serve = "serve";
      std::string arg_name = mini_scenario().name;
      std::string arg_smoke = "--smoke";
      std::string arg_flag = equals_form ? flag + "=4" : flag;
      std::string arg_value = "4";
      char* argv[] = {const_cast<char*>("bench"), arg_serve.data(),
                      arg_name.data(), arg_smoke.data(), arg_flag.data(),
                      arg_value.data()};
      const std::uint64_t trials_before = trials_executed();
      ::testing::internal::CaptureStderr();
      EXPECT_EQ(service_main(equals_form ? 5 : 6, argv), 1) << arg_flag;
      const std::string err = ::testing::internal::GetCapturedStderr();
      EXPECT_NE(err.find(flag), std::string::npos) << err;
      EXPECT_NE(err.find("--workers"), std::string::npos) << err;
      EXPECT_EQ(trials_executed(), trials_before) << arg_flag;
    }
  }
}

TEST(ServiceCliContract, DaemonRejectsAMinFreeBytesWatermarkThatWouldWrap) {
  // The ladder compares free space with 4x the watermark (soak writes
  // 10x), so a watermark past INT64_MAX / 10 is rejected while parsing;
  // read as a u64 and cast, 2^63 and up would wrap to <= 0 and silently
  // turn the ladder off.
  const std::string jobs_dir = fresh_dir("cli_min_free");
  const auto run_daemon_cli = [&](std::string value) {
    std::string arg_daemon = "daemon";
    std::string arg_jobs = "--jobs-dir";
    std::string arg_dir = jobs_dir;
    std::string arg_nocache = "--no-cache";
    std::string arg_cycles = "--max-cycles";
    std::string arg_one = "1";
    std::string arg_flag = "--min-free-bytes";
    char* argv[] = {const_cast<char*>("bench"), arg_daemon.data(),
                    arg_jobs.data(),           arg_dir.data(),
                    arg_nocache.data(),        arg_cycles.data(),
                    arg_one.data(),            arg_flag.data(),
                    value.data()};
    return service_main(9, argv);
  };
  for (const std::string value :
       {"9223372036854775808", "18446744073709551615"}) {
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(run_daemon_cli(value), 1) << value;
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("--min-free-bytes"), std::string::npos) << err;
  }
  EXPECT_EQ(run_daemon_cli("922337203685477580"), 0);  // INT64_MAX / 10
}

}  // namespace
}  // namespace dualcast::service
