// JobStore mechanics: meta roundtrip (with field-level corruption
// diagnostics), shard geometry, fsync'd CRC-checksummed completion records
// (exact double bit patterns, torn-line tolerance, mid-file corruption
// -> in-place repair), done markers, and lease
// acquire/conflict/renew/release/steal semantics — including a two-thread
// steal race under skewed fake clocks.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include "analysis/trials.hpp"
#include "service/job_store.hpp"
#include "service/service.hpp"

namespace dualcast::service {
namespace {

namespace fs = std::filesystem;
using scenario::ScenarioError;
using scenario::ScenarioSpec;

const ScenarioSpec& mini_scenario() {
  static const std::string name = "svc-test/mini";
  if (!scenario::scenarios().contains(name)) {
    ScenarioSpec spec;
    spec.name = name;
    spec.title = "service store mini";
    spec.topology = "dual_clique({x})";
    spec.problem = "global(1)";
    spec.sweep = {8, 12};
    spec.trials = 3;
    spec.base_seed = 5;
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
  const fs::path dir = fs::path(::testing::TempDir()) / ("dualcast_" + tag);
  fs::remove_all(dir);
  return dir.string();
}

JobSpec mini_job(int shard_tasks, int lease_ttl_seconds) {
  return make_job_spec({&mini_scenario()}, scenario::RunOptions{},
                       shard_tasks, lease_ttl_seconds);
}

TEST(JobStore, MetaRoundtripAndShardGeometry) {
  const std::string dir = fresh_dir("store_meta");
  const JobSpec job = mini_job(/*shard_tasks=*/5, /*lease_ttl_seconds=*/60);
  JobStore created = JobStore::create_or_attach(dir, job);
  // 2 points x 2 columns x 3 trials = 12 flat tasks, ceil(12/5) = 3 shards.
  EXPECT_EQ(created.total_tasks(), 12);
  EXPECT_EQ(created.shard_count(), 3);
  EXPECT_EQ(created.shard_range(0), (std::pair<int, int>{0, 5}));
  EXPECT_EQ(created.shard_range(2), (std::pair<int, int>{10, 12}));

  const JobStore reopened = JobStore::open(dir);
  EXPECT_EQ(reopened.spec().key, job.key);
  EXPECT_EQ(reopened.spec().catalog, job.catalog);
  EXPECT_EQ(reopened.spec().scenario_names, job.scenario_names);
  EXPECT_EQ(reopened.spec().shard_tasks, 5);
  EXPECT_EQ(reopened.spec().lease_ttl_seconds, 60);
  EXPECT_EQ(reopened.total_tasks(), 12);

  // Attaching with different execution parameters (a different job key)
  // must refuse rather than mix experiments in one directory.
  scenario::RunOptions other;
  other.trials_override = 2;
  const JobSpec different =
      make_job_spec({&mini_scenario()}, other, 5, 60);
  ASSERT_NE(different.key, job.key);
  EXPECT_THROW(JobStore::create_or_attach(dir, different), ScenarioError);
}

TEST(JobStore, RecordsRoundTripExactlyAndIgnoreTornTail) {
  const std::string dir = fresh_dir("store_records");
  JobStore store = JobStore::create_or_attach(dir, mini_job(6, 60));
  // Values chosen so decimal round-tripping would lose bits.
  const double awkward = 0.1 + 0.2;
  store.append_record(0, {0, awkward});
  store.append_record(0, {3, -1.0});
  store.append_record(0, {5, 12345678.875});

  // Simulate a crash mid-append: a torn trailing line with no newline.
  {
    std::ofstream log(fs::path(dir) / "shards" / "shard_0.log",
                      std::ios::app | std::ios::binary);
    log << "4 deadbe";
  }

  const std::vector<TaskRecord> records = store.read_shard_records(0);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].task, 0);
  EXPECT_EQ(records[0].value, awkward);  // bit-exact, not approximate
  EXPECT_EQ(records[1].task, 3);
  EXPECT_EQ(records[1].value, -1.0);
  EXPECT_EQ(records[2].task, 5);
  EXPECT_EQ(records[2].value, 12345678.875);

  EXPECT_FALSE(store.shard_done(0));
  store.mark_shard_done(0);
  EXPECT_TRUE(store.shard_done(0));
  EXPECT_TRUE(JobStore::open(dir).shard_done(0));
}

TEST(JobStore, LeaseAcquireConflictRenewRelease) {
  const std::string dir = fresh_dir("store_lease");
  JobStore store = JobStore::create_or_attach(dir, mini_job(4, 60));
  EXPECT_TRUE(store.try_lease(0, "alice"));
  EXPECT_FALSE(store.try_lease(0, "bob"));   // validly held
  EXPECT_TRUE(store.try_lease(0, "alice"));  // re-entrant renew
  EXPECT_TRUE(store.try_lease(1, "bob"));    // other shards independent
  store.renew_lease(0, "alice");
  store.release_lease(0, "alice");
  EXPECT_TRUE(store.try_lease(0, "bob"));
  // Releasing a lease someone else holds is a no-op, not a steal.
  store.release_lease(0, "alice");
  EXPECT_FALSE(store.try_lease(0, "carol"));
}

TEST(JobStore, ExpiredLeaseIsStolen) {
  const std::string dir = fresh_dir("store_steal");
  // TTL 0: every lease is expired the moment it is written — the
  // crashed-worker recovery path, compressed to zero wait.
  JobStore store = JobStore::create_or_attach(dir, mini_job(4, 0));
  EXPECT_TRUE(store.try_lease(0, "crashed"));
  EXPECT_TRUE(store.try_lease(0, "recoverer"));
}

TEST(JobStore, ScanReportsWatermarksAndLeases) {
  const std::string dir = fresh_dir("store_scan");
  JobStore store = JobStore::create_or_attach(dir, mini_job(6, 60));
  store.append_record(0, {0, 1.0});
  store.append_record(0, {1, 2.0});
  store.append_record(0, {1, 2.0});  // idempotent duplicate: one distinct
  store.append_record(1, {6, 3.0});
  store.mark_shard_done(1);
  ASSERT_TRUE(store.try_lease(0, "alice"));

  const std::vector<ShardState> shards = store.scan();
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0].completed, 2);
  EXPECT_FALSE(shards[0].done);
  EXPECT_TRUE(shards[0].leased);
  EXPECT_EQ(shards[0].lease_owner, "alice");
  EXPECT_EQ(shards[1].completed, 1);
  EXPECT_TRUE(shards[1].done);
  EXPECT_FALSE(shards[1].leased);
}

TEST(JobStore, OpenRejectsMissingOrCorruptMeta) {
  EXPECT_THROW(JobStore::open(fresh_dir("store_absent")), ScenarioError);
  const std::string dir = fresh_dir("store_corrupt");
  fs::create_directories(dir);
  std::ofstream(fs::path(dir) / "job.meta") << "not a job meta\n";
  EXPECT_THROW(JobStore::open(dir), ScenarioError);
}

/// Expects `body` to throw ScenarioError whose message contains `needle`
/// — corrupt job directories must produce *named* diagnostics, not a
/// generic integer-parse throw.
template <typename Body>
void expect_error_mentioning(const std::string& needle, Body body) {
  try {
    body();
    FAIL() << "expected a ScenarioError mentioning \"" << needle << "\"";
  } catch (const ScenarioError& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << "diagnostic was: " << error.what();
  }
}

TEST(JobStore, MetaDiagnosticsNameTheProblem) {
  // A malformed integer field names the field, not just "stoi".
  {
    const std::string dir = fresh_dir("store_meta_badint");
    fs::create_directories(dir);
    std::ofstream(fs::path(dir) / "job.meta")
        << "dualcast-job v1\nkey 0000000000000001\n"
           "catalog 0000000000000002\nshard_tasks banana\n"
           "scenario svc-test/mini\nend\n";
    expect_error_mentioning("shard_tasks", [&] { JobStore::open(dir); });
  }
  // A missing required field is reported as such.
  {
    const std::string dir = fresh_dir("store_meta_nokey");
    fs::create_directories(dir);
    std::ofstream(fs::path(dir) / "job.meta")
        << "dualcast-job v1\ncatalog 0000000000000002\n"
           "scenario svc-test/mini\nend\n";
    expect_error_mentioning("key", [&] { JobStore::open(dir); });
  }
  // A truncated file (no "end") is distinguished from an empty job.
  {
    const std::string dir = fresh_dir("store_meta_trunc");
    fs::create_directories(dir);
    std::ofstream(fs::path(dir) / "job.meta")
        << "dualcast-job v1\nkey 0000000000000001\n"
           "catalog 0000000000000002\n";
    expect_error_mentioning("truncated", [&] { JobStore::open(dir); });
  }
}

TEST(JobStore, OlderMetaWithEngineAndHistoryLinesOpens) {
  // Older releases also wrote "engine" and "history" lines. They are
  // skipped like any unknown field, and the stored key still matches the
  // job's spec, so their job directories keep resuming.
  const JobSpec job = mini_job(/*shard_tasks=*/5, /*lease_ttl_seconds=*/60);
  const std::string dir = fresh_dir("store_meta_older");
  fs::create_directories(dir);
  std::ofstream(fs::path(dir) / "job.meta")
      << "dualcast-job v1\nkey " << scenario::hash_hex(job.key)
      << "\ncatalog " << scenario::hash_hex(job.catalog)
      << "\nengine kernel\nrng per-node\nhistory lean\ntrials_override 0\n"
         "smoke 0\nshard_tasks 5\nlease_ttl 60\nscenario svc-test/mini\n"
         "end\n";
  const JobStore opened = JobStore::open(dir);
  EXPECT_EQ(opened.spec().key, job.key);
  EXPECT_EQ(opened.total_tasks(), 12);
}

TEST(JobStore, MidFileCorruptionIsDetectedAndRepairedInPlace) {
  const std::string dir = fresh_dir("store_repair");
  JobStore store = JobStore::create_or_attach(dir, mini_job(6, 60));
  store.append_record(0, {0, 1.5});
  store.append_record(0, {1, 2.5});
  store.append_record(0, {2, 3.5});
  store.mark_shard_done(0);

  // Flip one byte in the middle record — bit rot the checksum must catch.
  const fs::path log = fs::path(dir) / "shards" / "shard_0.log";
  std::string text;
  {
    std::ifstream in(log, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const std::size_t second_line = text.find('\n') + 1;
  const std::size_t flip = text.find(' ', second_line + 3) + 1;
  text[flip] = text[flip] == '0' ? '1' : '0';
  std::ofstream(log, std::ios::binary) << text;

  // Detection: the scan truncates at the watermark; the strict reader
  // (the merger's path) refuses outright.
  const ShardScan scan = store.scan_shard_log(0);
  EXPECT_TRUE(scan.corrupt);
  EXPECT_EQ(scan.bad_line, 2);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].value, 1.5);
  expect_error_mentioning("corrupt", [&] { store.read_shard_records(0); });
  EXPECT_TRUE(store.scan()[0].corrupt);

  // Recovery: the good prefix is written over the log and the done marker
  // cleared so the shard is recomputed from the watermark. Nothing but the
  // log is left beside the shard.
  const ShardScan repaired = store.recover_shard(0);
  EXPECT_TRUE(repaired.corrupt);
  EXPECT_NE(repaired.damage().find("shard 0 record log corrupt at line 2: "),
            std::string::npos)
      << repaired.damage();
  EXPECT_FALSE(store.shard_done(0));
  std::vector<std::string> left;
  for (const auto& entry : fs::directory_iterator(fs::path(dir) / "shards")) {
    left.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(left, std::vector<std::string>{"shard_0.log"});
  const std::vector<TaskRecord> recovered = store.read_shard_records(0);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].task, 0);
  EXPECT_EQ(recovered[0].value, 1.5);
  EXPECT_FALSE(store.scan()[0].corrupt);
  // Recovery is idempotent: a healthy log is left alone.
  EXPECT_FALSE(store.recover_shard(0).corrupt);
  EXPECT_TRUE(store.recover_all("fixer").empty());
}

TEST(JobStore, StealRaceUnderClockSkewHasOneWinner) {
  const std::string dir = fresh_dir("store_skew_race");
  const JobSpec job = mini_job(/*shard_tasks=*/4, /*lease_ttl_seconds=*/60);
  // Plant a lease from a dead worker at t=100 (expires 160).
  util::FakeClock dead_clock(100);
  StoreEnv dead_env;
  dead_env.clock = &dead_clock;
  JobStore dead = JobStore::create_or_attach(dir, job, dead_env);
  ASSERT_TRUE(dead.try_lease(0, "dead"));

  // Two racers with skewed clocks (skew 26s < TTL 60s): the lease is
  // expired for "ahead" (161 >= 160) but still valid for "behind" (135).
  // A fresh lease taken by either racer is always valid for the other —
  // skew below the TTL is exactly the regime the lease protocol promises
  // one winner in.
  util::FakeClock ahead_clock(161);
  util::FakeClock behind_clock(135);
  StoreEnv ahead_env;
  ahead_env.clock = &ahead_clock;
  StoreEnv behind_env;
  behind_env.clock = &behind_clock;
  JobStore ahead = JobStore::open(dir, ahead_env);
  JobStore behind = JobStore::open(dir, behind_env);

  std::atomic<int> ahead_wins{0};
  std::atomic<int> behind_wins{0};
  for (int round = 0; round < 50; ++round) {
    std::atomic<bool> a_won{false};
    std::atomic<bool> b_won{false};
    std::thread a([&] { a_won = ahead.try_lease(0, "ahead"); });
    std::thread b([&] { b_won = behind.try_lease(0, "behind"); });
    a.join();
    b.join();
    // The protocol's promise under skew < TTL: EXACTLY one winner. (Which
    // one is racy in round 0 — stealing the dead lease opens an absence
    // window between unlink and link-publish, and either racer may take
    // it; that is legitimate. Two winners never are.)
    EXPECT_NE(a_won.load(), b_won.load()) << "round " << round;
    if (a_won) ahead_wins.fetch_add(1);
    if (b_won) behind_wins.fetch_add(1);
  }
  // Ownership is sticky: round 0's winner renews its own lease every
  // round after, and its lease is never expired for the other racer.
  EXPECT_EQ(ahead_wins.load() + behind_wins.load(), 50);
  EXPECT_TRUE(ahead_wins.load() == 50 || behind_wins.load() == 50)
      << "ownership flapped: ahead " << ahead_wins.load() << ", behind "
      << behind_wins.load();

  // No double-execution either: run both skewed workers concurrently over
  // the whole job; every task is measured exactly once (leases held by
  // one are valid to the other, so nobody steals live work).
  if (ahead_wins.load() == 50) {
    ahead.release_lease(0, "ahead");
  } else {
    behind.release_lease(0, "behind");
  }
  const JobRuntime runtime(ahead);
  const std::uint64_t trials_before = trials_executed();
  std::thread wa([&] {
    WorkerOptions options;
    options.owner = "ahead";
    run_worker(ahead, runtime, options);
  });
  std::thread wb([&] {
    WorkerOptions options;
    options.owner = "behind";
    run_worker(behind, runtime, options);
  });
  wa.join();
  wb.join();
  EXPECT_EQ(trials_executed() - trials_before,
            static_cast<std::uint64_t>(ahead.total_tasks()));
  JobRuntime merge_runtime(ahead);
  EXPECT_EQ(merge_job(ahead, merge_runtime, nullptr).size(), 4u);
}

TEST(JobStore, TryLeaseReportsStealsDistinctly) {
  const std::string dir = fresh_dir("store_steal_flag");
  // TTL 0: foreign leases are instantly expired, so every takeover of a
  // foreign lease is observable as a steal.
  JobStore store = JobStore::create_or_attach(dir, mini_job(4, 0));
  bool stole = true;
  EXPECT_TRUE(store.try_lease(0, "alice", &stole));
  EXPECT_FALSE(stole) << "fresh acquisition is not a steal";
  EXPECT_TRUE(store.try_lease(0, "alice", &stole));
  EXPECT_FALSE(stole) << "re-entrant renewal is not a steal";
  EXPECT_TRUE(store.try_lease(0, "bob", &stole));
  EXPECT_TRUE(stole) << "evicting an expired foreign lease is THE steal";
  store.release_lease(0, "bob");
  stole = true;
  EXPECT_TRUE(store.try_lease(0, "carol", &stole));
  EXPECT_FALSE(stole) << "acquiring after a clean release is not a steal";
}

TEST(JobStore, ScanClassifiesLeaseAgeAndStalenessAgainstStoreClock) {
  const std::string dir = fresh_dir("store_scan_age");
  util::FakeClock clock(200);
  StoreEnv env;
  env.clock = &clock;
  JobStore store = JobStore::create_or_attach(dir, mini_job(4, 30), env);
  ASSERT_TRUE(store.try_lease(0, "ager"));

  std::vector<ShardState> shards = store.scan();
  EXPECT_EQ(shards[0].lease_age, 0);
  EXPECT_FALSE(shards[0].lease_stale);
  EXPECT_EQ(shards[1].lease_age, -1) << "unleased shards have no age";
  EXPECT_FALSE(shards[1].lease_stale);

  clock.advance(10);
  shards = store.scan();
  EXPECT_EQ(shards[0].lease_age, 10);
  EXPECT_FALSE(shards[0].lease_stale);

  clock.advance(25);  // t=235 >= expiry 230: stale, age keeps counting
  shards = store.scan();
  EXPECT_EQ(shards[0].lease_age, 35);
  EXPECT_TRUE(shards[0].lease_stale);
}

TEST(JobStore, GcExpiredLeasesNeverTouchesLiveOrUnattributedWork) {
  const std::string dir = fresh_dir("store_gc_leases");
  util::FakeClock clock(300);
  StoreEnv env;
  env.clock = &clock;
  JobStore store = JobStore::create_or_attach(dir, mini_job(4, 30), env);
  ASSERT_TRUE(store.try_lease(0, "dead-daemon"));
  ASSERT_TRUE(store.try_lease(1, "quiet-worker"));

  // Unexpired leases survive gc even when their owner is known-stale:
  // expiry is the sole safety mechanism, membership only a hint.
  EXPECT_EQ(store.gc_expired_leases({"dead-daemon"}), 0);
  ASSERT_EQ(store.scan_leases().size(), 2u);

  clock.advance(40);  // both leases expired
  // Expired + unattributed + shard not done: left for claim-time stealing
  // (a plain worker with no membership may be mid-recovery on it).
  EXPECT_EQ(store.gc_expired_leases({}), 0);
  ASSERT_EQ(store.scan_leases().size(), 2u);
  // Expired + stale owner: reclaimed. The quiet worker's lease stays.
  EXPECT_EQ(store.gc_expired_leases({"dead-daemon"}), 1);
  const std::vector<LeaseState> left = store.scan_leases();
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0].owner, "quiet-worker");
  EXPECT_TRUE(left[0].expired);
}

}  // namespace
}  // namespace dualcast::service
