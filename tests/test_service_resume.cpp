// Crash-safe resume: a worker killed mid-shard (lease still held) loses no
// acknowledged record; a restarted worker steals the stale lease, skips
// everything recorded, measures only the remainder, and the merged JSON is
// byte-identical to an uninterrupted single-process run. The "kill" is an
// injected filesystem fault: FaultyFs throws InjectedCrash at a scheduled
// append, which no retry loop may catch — exactly a kill -9 at that
// syscall.

#include <gtest/gtest.h>

#include "analysis/trials.hpp"
#include "service/service.hpp"
#include "service_support.hpp"

namespace dualcast::service {
namespace {

using scenario::ScenarioError;

const dualcast::testing::MiniService mini{"svc-test/resume-mini", 21,
                                         "dualcast_"};

/// Kills a fresh worker at the `crash_at_append`-th shard-log append (a
/// crash mid-run with the lease left held); returns after the crash.
void run_crashing_worker(const std::string& dir, int crash_at_append) {
  util::FaultyFs faulty(util::real_fs());
  util::InjectedFault fault;
  fault.kind = util::InjectedFault::Kind::crash;
  fault.at = crash_at_append;
  fault.op = "append";
  fault.path_substr = "shards/";
  faulty.inject(fault);
  StoreEnv env;
  env.fs = &faulty;
  JobStore store = JobStore::open(dir, env);
  const JobRuntime runtime(store);
  WorkerOptions options;
  options.owner = "victim";
  try {
    run_worker(store, runtime, options);
    FAIL() << "worker survived its injected crash";
  } catch (const util::InjectedCrash&) {
    // The expected death. The store object is gone with the "process";
    // its fsync'd records and held lease remain on disk.
  }
  EXPECT_EQ(faulty.faults_fired(), 1);
}

TEST(ServiceResume, KilledWorkerResumesByteIdentical) {
  const std::vector<std::string> reference = mini.reference_rows();
  ASSERT_EQ(reference.size(), 4u);  // 2 points x 2 columns

  // lease_ttl 0 so the killed worker's abandoned lease is instantly
  // stealable; shard_tasks 3 cuts the 12 tasks into 4 shards.
  const JobSpec job = mini.job(/*shard_tasks=*/3, /*lease_ttl_seconds=*/0);
  const std::string dir = mini.fresh_dir("resume_job");
  JobStore store = JobStore::create_or_attach(dir, job);
  ASSERT_EQ(store.total_tasks(), 12);
  ASSERT_EQ(store.shard_count(), 4);

  // Worker 1 dies at its 5th record append: shard 0 (3 tasks) completed,
  // one record of shard 1 durable, the 5th append never lands — and the
  // shard 1 lease is still held by the corpse.
  run_crashing_worker(dir, /*crash_at_append=*/4);
  EXPECT_EQ(store.scan_shard_log(0).records.size(), 3u);
  EXPECT_TRUE(store.shard_done(0));
  EXPECT_EQ(store.scan_shard_log(1).records.size(), 1u);
  EXPECT_FALSE(store.shard_done(1));

  // Merging an incomplete job must refuse, not fabricate rows.
  {
    JobRuntime merge_runtime(store);
    EXPECT_THROW(merge_job(store, merge_runtime, nullptr), ScenarioError);
  }

  // Worker 2 restarts cold: the done shard is never leased again, the
  // stale lease on the partial shard is stolen, its 1 recorded task is
  // skipped, and exactly the 8 missing tasks are measured.
  const std::uint64_t trials_before = trials_executed();
  const JobRuntime runtime(store);
  WorkerOptions retry;
  retry.owner = "recoverer";
  const WorkerReport second = run_worker(store, runtime, retry);
  EXPECT_EQ(second.tasks_skipped, 1);
  EXPECT_EQ(second.tasks_executed, 8);
  EXPECT_EQ(trials_executed() - trials_before, 8u);

  JobRuntime merge_runtime(store);
  EXPECT_EQ(merge_job(store, merge_runtime, nullptr), reference);
}

TEST(ServiceResume, TwoWorkersShardedRunIsByteIdentical) {
  const std::vector<std::string> reference = mini.reference_rows();
  ServeOptions options;
  options.job_dir = mini.fresh_dir("resume_two_workers");
  options.cache_dir.clear();  // isolate from the cache tests
  options.workers = 2;
  options.shard_tasks = 3;
  const ServeSummary summary =
      serve({&mini.scenario()}, {}, options);
  EXPECT_EQ(summary.computed, 1);
  EXPECT_EQ(summary.trials_run, 12u);
  EXPECT_EQ(summary.rows, reference);
}

TEST(ServiceResume, ResumeAcrossSeparateServeCalls) {
  // serve() itself resumes: crash a lone worker against the job dir, then
  // point serve at the same directory — it attaches, finishes the
  // remainder, and emits the reference rows.
  const std::vector<std::string> reference = mini.reference_rows();
  const std::string dir = mini.fresh_dir("resume_serve");
  JobStore::create_or_attach(dir, mini.job(3, 0));
  run_crashing_worker(dir, /*crash_at_append=*/5);  // 5 records durable
  ServeOptions options;
  options.job_dir = dir;
  options.cache_dir.clear();
  options.shard_tasks = 3;
  options.lease_ttl_seconds = 0;
  const std::uint64_t trials_before = trials_executed();
  const ServeSummary summary = serve({&mini.scenario()}, {}, options);
  EXPECT_EQ(summary.rows, reference);
  EXPECT_EQ(summary.trials_run, trials_executed() - trials_before);
  EXPECT_EQ(summary.trials_run, 7u);  // 12 total - 5 already recorded
}

}  // namespace
}  // namespace dualcast::service
