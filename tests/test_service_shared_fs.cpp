// Shared-filesystem semantics hardening: the service's lease/recovery
// contracts exercised behind SharedFsSim NFS-client views. Each test
// gives one or more stores their own view of a single backing directory
// and checks the dispositions the hardening pass installed:
//   * two views drain one job without duplicate work, merge
//     byte-identical;
//   * a steal attempt re-verifies through a fresh read, so a renewal
//     the stale view had not seen yet is honored (no live-lease theft);
//   * release/renew refuse to clobber a thief's live lease when the
//     old owner's view still shows its own stale lease;
//   * recover_all peeks the server fresh, so damage invisible to a
//     pinned stale view is still found (and healed under a lease);
//   * a whole daemon behind a skewed view completes its job and the
//     merge reproduces the single-process reference bytes, per seed.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "service/daemon.hpp"
#include "service/service.hpp"
#include "service_support.hpp"
#include "util/fs_sim.hpp"

namespace dualcast::service {
namespace {

namespace fs = std::filesystem;
using util::FakeClock;
using util::SharedFsSim;
using util::SharedFsSimConfig;

const dualcast::testing::MiniService mini{"svc-test/sharedfs-mini", 91,
                                         "dualcast_sharedfs_"};

/// A view with aggressive staleness: every cached entry lives the full
/// window, so cross-view visibility is reliably delayed.
SharedFsSimConfig skewed(std::uint64_t seed, int stale_ops = 6) {
  SharedFsSimConfig config;
  config.seed = seed;
  config.attr_stale_ops = stale_ops;
  config.dir_stale_ops = stale_ops;
  return config;
}

TEST(SharedFsService, TwoViewsDrainOneJobAndMergeByteIdentical) {
  const std::string jobs_dir = mini.fresh_dir("twoviews");
  const std::string job_dir = mini.drop_job(jobs_dir, "job", /*trials=*/6);

  SharedFsSim view_a(util::real_fs(), skewed(101));
  SharedFsSim view_b(util::real_fs(), skewed(202));
  StoreEnv env_a;
  env_a.fs = &view_a;
  StoreEnv env_b;
  env_b.fs = &view_b;
  JobStore store_a = JobStore::open(job_dir, env_a);
  JobStore store_b = JobStore::open(job_dir, env_b);
  JobRuntime runtime_a(store_a);
  JobRuntime runtime_b(store_b);

  // Alternate single-shard claims between the two views until neither
  // can claim: leases partition the shards even though each side's
  // directory listings and lease reads may be stale between claims.
  int total_shards = 0;
  for (int round = 0; round < 2 * store_a.shard_count() + 4; ++round) {
    WorkerOptions options;
    options.owner = round % 2 == 0 ? "view-a" : "view-b";
    options.max_shards = 1;
    const WorkerReport report =
        round % 2 == 0 ? run_worker(store_a, runtime_a, options)
                       : run_worker(store_b, runtime_b, options);
    total_shards += report.shards_completed;
    EXPECT_EQ(report.leases_stolen, 0)
        << "no lease ever expired, so nothing may be stolen";
    if (total_shards == store_a.shard_count()) break;
  }
  EXPECT_EQ(total_shards, store_a.shard_count());

  // Both views saw the shared directory through a cache at least once.
  EXPECT_GT(view_a.ops() + view_b.ops(), 0);

  // Merge through a *fresh* store (server truth): byte-identical, and
  // record counts are exact — no duplicate execution slipped through.
  JobStore store = JobStore::open(job_dir);
  for (const ShardState& shard : store.scan()) {
    EXPECT_TRUE(shard.done);
    EXPECT_EQ(static_cast<int>(store.read_shard_records(shard.index).size()),
              shard.end - shard.begin);
  }
  mini.expect_reference_merge(job_dir);
}

TEST(SharedFsService, StealReverifyHonorsRenewalTheStaleViewMissed) {
  const std::string jobs_dir = mini.fresh_dir("stealverify");
  const std::string job_dir = mini.drop_job(jobs_dir, "job", /*trials=*/3,
                                            /*shard_tasks=*/4,
                                            /*lease_ttl_seconds=*/30);
  FakeClock clock(1000);
  SharedFsSim view_a(util::real_fs(), skewed(7, /*stale_ops=*/50));
  SharedFsSim view_b(util::real_fs(), skewed(8, /*stale_ops=*/50));
  StoreEnv env_a;
  env_a.fs = &view_a;
  env_a.clock = &clock;
  StoreEnv env_b;
  env_b.fs = &view_b;
  env_b.clock = &clock;
  JobStore store_a = JobStore::open(job_dir, env_a);
  JobStore store_b = JobStore::open(job_dir, env_b);

  // A leases shard 0 (expiry 1030). B observes the lease — and its view
  // caches that observation; hold() pins it so the later re-read is
  // guaranteed to come from the stale cache, not a lucky revalidation.
  ASSERT_TRUE(store_a.try_lease(0, "alpha"));
  ASSERT_FALSE(store_b.try_lease(0, "beta"));
  view_b.hold(".lease", 1000);

  // A renews at t=1025 (expiry becomes 1055). At t=1035 B's *cached*
  // copy says the lease expired at 1030 — a naive steal would evict a
  // live lease. The steal path's fresh re-verify must see 1055 and
  // refuse.
  clock.advance(25);
  store_a.renew_lease(0, "alpha");
  clock.advance(10);
  const int stale_before = view_b.stale_serves();
  bool stole = false;
  EXPECT_FALSE(store_b.try_lease(0, "beta", &stole));
  EXPECT_FALSE(stole);
  EXPECT_GT(view_b.stale_serves(), stale_before)
      << "the hazard must be real: B's first read served the stale copy";

  // Server truth: alpha still owns the shard with the renewed expiry.
  const std::vector<LeaseState> leases = JobStore::open(job_dir, [&] {
                                           StoreEnv env;
                                           env.clock = &clock;
                                           return env;
                                         }()).scan_leases();
  ASSERT_EQ(leases.size(), 1u);
  EXPECT_EQ(leases[0].owner, "alpha");
  EXPECT_EQ(leases[0].expiry, 1055);
  EXPECT_FALSE(leases[0].expired);
}

TEST(SharedFsService, ReleaseAndRenewRefuseToClobberThiefsLiveLease) {
  const std::string jobs_dir = mini.fresh_dir("clobber");
  const std::string job_dir = mini.drop_job(jobs_dir, "job", /*trials=*/3,
                                            /*shard_tasks=*/4,
                                            /*lease_ttl_seconds=*/5);
  FakeClock clock(2000);
  SharedFsSim view_a(util::real_fs(), skewed(5, /*stale_ops=*/50));
  StoreEnv env_a;
  env_a.fs = &view_a;
  env_a.clock = &clock;
  StoreEnv env_b;  // the thief reads the server directly
  env_b.clock = &clock;
  JobStore store_a = JobStore::open(job_dir, env_a);
  JobStore store_b = JobStore::open(job_dir, env_b);

  // A's lease (expiry 2005) expires; B legitimately steals at t=2010.
  // A's view still holds A's own write cached — pin it to make sure.
  ASSERT_TRUE(store_a.try_lease(0, "alpha"));
  view_a.hold(".lease", 1000);
  clock.advance(10);
  bool stole = false;
  ASSERT_TRUE(store_b.try_lease(0, "beta", &stole));
  ASSERT_TRUE(stole);

  // The old owner comes back. Off its stale view it still "owns" shard
  // 0 — but both release and renew re-read fresh and must leave beta's
  // live lease untouched.
  store_a.release_lease(0, "alpha");
  store_a.renew_lease(0, "alpha");
  const std::vector<LeaseState> leases = store_b.scan_leases();
  ASSERT_EQ(leases.size(), 1u);
  EXPECT_EQ(leases[0].owner, "beta");
  EXPECT_EQ(leases[0].expiry, 2015);
  EXPECT_FALSE(leases[0].expired);
}

TEST(SharedFsService, RecoverAllPeeksFreshThroughStaleView) {
  const std::string jobs_dir = mini.fresh_dir("recover");
  const std::string job_dir = mini.drop_job(jobs_dir, "job", /*trials=*/3);

  // Complete the job at the server, then open a view and warm its cache
  // with the healthy shard 0 log; pin the cache.
  {
    JobStore store = JobStore::open(job_dir);
    JobRuntime runtime(store);
    WorkerOptions options;
    options.owner = "filler";
    run_worker(store, runtime, options);
  }
  SharedFsSim view(util::real_fs(), skewed(9, /*stale_ops=*/50));
  StoreEnv env;
  env.fs = &view;
  JobStore store = JobStore::open(job_dir, env);
  ASSERT_FALSE(store.fresh_scan_shard_log(0).corrupt);
  view.hold("shard_0.log", 1000);

  // Another machine's crash corrupts the log at the server. The view's
  // pinned cache still serves the healthy bytes — but recover_all must
  // invalidate and peek fresh, find the damage, and repair it under a
  // lease.
  std::ofstream(fs::path(job_dir) / "shards" / "shard_0.log",
                std::ios::app)
      << "zz not a record\n";
  const std::vector<ShardScan> rotten = store.recover_all("fixer");
  ASSERT_EQ(rotten.size(), 1u);
  EXPECT_EQ(rotten[0].shard, 0);
  EXPECT_FALSE(store.shard_done(0)) << "done marker cleared for recompute";
  EXPECT_TRUE(store.scan_leases().empty())
      << "the recovery lease is released afterwards";

  // The shard recomputes and the merge still matches the reference.
  JobRuntime runtime(store);
  WorkerOptions options;
  options.owner = "fixer";
  run_worker(store, runtime, options);
  mini.expect_reference_merge(job_dir);
}

TEST(SharedFsService, DaemonBehindSkewedViewCompletesAndMergesIdentical) {
  for (const std::uint64_t seed : {31ull, 47ull}) {
    const std::string jobs_dir =
        mini.fresh_dir("daemon_seed" + std::to_string(seed));
    const std::string job_dir = mini.drop_job(jobs_dir, "job", /*trials=*/4);

    SharedFsSim view(util::real_fs(), skewed(seed));
    StoreEnv env;
    env.fs = &view;
    std::ostringstream log;
    DaemonOptions options;
    options.jobs_dir = jobs_dir;
    options.cache_dir.clear();
    options.owner = "skewed-daemon";
    options.max_cycles = 20;
    options.poll_initial_ms = 1;
    options.poll_max_ms = 2;
    options.log = &log;
    const DaemonReport report = run_daemon(options, env);
    EXPECT_EQ(report.jobs_completed, 1) << "seed " << seed << "\n"
                                        << log.str();
    EXPECT_GT(view.ops(), 0);

    mini.expect_reference_merge(job_dir);
  }
}

}  // namespace
}  // namespace dualcast::service
