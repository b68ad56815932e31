// Fleet coordination: membership publish/scan/stale/reap (deterministic
// under a FakeClock), the gc sweep's orphan lifecycle (stale members'
// lease debris, superseded quarantines), the fleet status view, placement
// policies (fair finishes a small job before a concurrent big one; fifo
// does not), and the two-daemon contract: concurrent daemons on one jobs
// directory drain disjoint shard sets with no duplicate trial execution.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "analysis/trials.hpp"
#include "service/daemon.hpp"
#include "service/fleet.hpp"
#include "service/service.hpp"

namespace dualcast::service {
namespace {

namespace fs = std::filesystem;
using scenario::ScenarioSpec;
using util::FakeClock;

const ScenarioSpec& mini_scenario() {
  static const std::string name = "svc-test/fleet-mini";
  if (!scenario::scenarios().contains(name)) {
    ScenarioSpec spec;
    spec.name = name;
    spec.title = "service fleet mini";
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
      fs::path(::testing::TempDir()) / ("dualcast_fleet_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Drops a job for the mini scenario with `trials` (the job-identity
/// knob) into `jobs_dir`/`name`.
std::string drop_job(const std::string& jobs_dir, const std::string& name,
                     int trials, int shard_tasks = 4,
                     int lease_ttl_seconds = 60) {
  scenario::RunOptions run_options;
  run_options.trials_override = trials;
  const JobSpec job = make_job_spec({&mini_scenario()}, run_options,
                                    shard_tasks, lease_ttl_seconds);
  const std::string dir = jobs_dir + "/" + name;
  JobStore::create_or_attach(dir, job);
  return dir;
}

TEST(FleetRegistry, PublishScanStaleReapUnderFakeClock) {
  const std::string jobs_dir = fresh_dir("registry");
  FakeClock clock(1000);
  StoreEnv env;
  env.clock = &clock;
  FleetRegistry fleet(jobs_dir, env);

  MemberRecord a;
  a.id = "alpha";
  a.pid = 11;
  a.placement = "fair";
  a.ttl_seconds = 10;
  MemberRecord b;
  b.id = "beta";
  b.pid = 22;
  b.ttl_seconds = 10;
  fleet.publish(a);
  fleet.publish(b);

  std::vector<MemberState> members = fleet.scan();
  ASSERT_EQ(members.size(), 2u);
  for (const MemberState& member : members) {
    EXPECT_FALSE(member.stale);
    EXPECT_EQ(member.age, 0);
    EXPECT_EQ(member.record.heartbeat, 1000);
  }

  // alpha renews at t=1006; at t=1011 beta (heartbeat 1000, ttl 10) is
  // exactly stale (1000 + 10 <= 1011) while alpha is 5s fresh. Pure
  // FakeClock arithmetic — no sleeping, no wall-clock flake.
  clock.advance(6);
  fleet.publish(a);
  clock.advance(5);
  members = fleet.scan();
  ASSERT_EQ(members.size(), 2u);
  for (const MemberState& member : members) {
    if (member.record.id == "alpha") {
      EXPECT_FALSE(member.stale);
      EXPECT_EQ(member.age, 5);
      EXPECT_EQ(member.record.placement, "fair");
    } else {
      EXPECT_TRUE(member.stale);
      EXPECT_EQ(member.age, 11);
    }
  }

  const std::vector<std::string> reaped = fleet.reap_stale();
  ASSERT_EQ(reaped.size(), 1u);
  EXPECT_EQ(reaped[0], "beta");
  EXPECT_EQ(fleet.scan().size(), 1u);

  // Clean deregistration removes the file; a second remove is a no-op.
  fleet.remove("alpha");
  fleet.remove("alpha");
  EXPECT_TRUE(fleet.scan().empty());
}

TEST(FleetGc, SweepReclaimsStaleOwnerLeasesAndVerifiedQuarantines) {
  const std::string jobs_dir = fresh_dir("gc");
  FakeClock clock(5000);
  StoreEnv env;
  env.clock = &clock;
  const std::string job_dir =
      drop_job(jobs_dir, "job1", /*trials=*/3, /*shard_tasks=*/4,
               /*lease_ttl_seconds=*/30);

  // A daemon "ghost" leases shard 0, heartbeats its membership once, and
  // vanishes. Its lease expires at 5030, its membership at 5010.
  JobStore store = JobStore::open(job_dir, env);
  ASSERT_TRUE(store.try_lease(0, "ghost"));
  FleetRegistry fleet(jobs_dir, env);
  MemberRecord ghost;
  ghost.id = "ghost";
  ghost.ttl_seconds = 10;
  fleet.publish(ghost);

  // Before anything expires the sweep must touch nothing: the lease is
  // live (expiry is the sole safety mechanism) and the member is fresh.
  GcReport untouched = gc_sweep(jobs_dir, env);
  EXPECT_EQ(untouched.jobs_swept, 1);
  EXPECT_EQ(untouched.members_reaped, 0);
  EXPECT_EQ(untouched.leases_reclaimed, 0);
  ASSERT_EQ(store.scan_leases().size(), 1u);

  // One sweep after both went stale: the member is reaped AND its expired
  // lease reclaimed in the same pass — the reaped ids feed straight into
  // per-job lease reclamation, which is why daemons sweep at heartbeat
  // cadence (membership outlives the lease TTL it vouches for).
  clock.advance(35);  // member stale at 5010, lease expired at 5030
  GcReport reaped = gc_sweep(jobs_dir, env);
  EXPECT_EQ(reaped.members_reaped, 1);
  EXPECT_EQ(reaped.leases_reclaimed, 1);
  EXPECT_TRUE(store.scan_leases().empty());

  // Done-shard debris needs no membership hint: complete the job, park an
  // expired lease of an unknown owner on a done shard, and the sweep
  // removes it (the shard's records are final; the lease guards nothing).
  const JobRuntime runtime(store);
  WorkerOptions finish;
  finish.owner = "live";
  run_worker(store, runtime, finish);
  ASSERT_TRUE(store.try_lease(1, "straggler"));
  clock.advance(40);
  GcReport cleaned = gc_sweep(jobs_dir, env);
  EXPECT_EQ(cleaned.leases_reclaimed, 1);
  EXPECT_TRUE(store.scan_leases().empty());

  // Quarantine GC: a quarantine file beside a shard whose live log
  // verifies is superseded evidence — the sweep deletes it.
  const fs::path quarantine =
      fs::path(job_dir) / "shards" / "shard_0.quarantine";
  std::ofstream(quarantine) << "old rotten log\n";
  GcReport swept = gc_sweep(jobs_dir, env);
  EXPECT_EQ(swept.quarantines_removed, 1);
  EXPECT_FALSE(fs::exists(quarantine));
}

TEST(FleetStatus, RendersMembersAndJobsDeterministicallyUnderFakeClock) {
  const std::string jobs_dir = fresh_dir("status");
  FakeClock clock(9000);
  StoreEnv env;
  env.clock = &clock;
  const std::string job_dir = drop_job(jobs_dir, "job1", /*trials=*/3);

  JobStore store = JobStore::open(job_dir, env);
  ASSERT_TRUE(store.try_lease(0, "live-d"));

  FleetRegistry fleet(jobs_dir, env);
  MemberRecord live;
  live.id = "live-d";
  live.placement = "fair";
  live.ttl_seconds = 15;
  fleet.publish(live);
  MemberRecord dead;
  dead.id = "dead-d";
  dead.ttl_seconds = 15;
  fleet.publish(dead);
  clock.advance(20);
  fleet.publish(live);  // renews; dead-d's heartbeat is now 20s old

  std::ostringstream out;
  print_fleet_status(jobs_dir, env, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("daemon live-d [live]"), std::string::npos) << text;
  EXPECT_NE(text.find("daemon dead-d [STALE]"), std::string::npos) << text;
  EXPECT_NE(text.find("heartbeat 20s ago"), std::string::npos) << text;
  EXPECT_NE(text.find("placement fair"), std::string::npos) << text;
  EXPECT_NE(text.find("1 lease(s) held"), std::string::npos) << text;
  EXPECT_NE(text.find("0/12 tasks"), std::string::npos) << text;

  // Deterministic: the same fake instant renders the same bytes.
  std::ostringstream again;
  print_fleet_status(jobs_dir, env, again);
  EXPECT_EQ(text, again.str());
}

TEST(FleetStatus, JobStatusStaleLabelIsClockDeterministic) {
  // Satellite of the fleet view: single-job `status` derives lease age
  // and STALE from the *store's* clock at scan time, so a FakeClock pins
  // the rendered bytes.
  const std::string jobs_dir = fresh_dir("jobstatus");
  FakeClock clock(100);
  StoreEnv env;
  env.clock = &clock;
  const std::string job_dir =
      drop_job(jobs_dir, "job1", /*trials=*/3, /*shard_tasks=*/4,
               /*lease_ttl_seconds=*/30);
  JobStore store = JobStore::open(job_dir, env);
  ASSERT_TRUE(store.try_lease(0, "ager"));

  clock.advance(7);
  std::ostringstream young;
  print_job_status(store, young);
  EXPECT_NE(young.str().find("leased by ager (age 7s"), std::string::npos)
      << young.str();
  EXPECT_EQ(young.str().find("STALE"), std::string::npos) << young.str();

  clock.advance(25);  // age 32 > ttl 30: expired, rendered STALE
  std::ostringstream stale;
  print_job_status(store, stale);
  EXPECT_NE(stale.str().find("leased by ager (age 32s"), std::string::npos)
      << stale.str();
  EXPECT_NE(stale.str().find("STALE"), std::string::npos) << stale.str();
}

TEST(FleetPlacement, FairFinishesSmallJobBeforeBigAndFifoDoesNot) {
  // a_big sorts (and is discovered) before b_small. Under fifo the daemon
  // full-drains a_big first; under fair the one-shard b_small interleaves
  // and completes while a_big is still being worked.
  const auto run_once = [&](Placement placement, const std::string& tag) {
    const std::string jobs_dir = fresh_dir("placement_" + tag);
    const std::string big_dir =
        drop_job(jobs_dir, "a_big", /*trials=*/9, /*shard_tasks=*/4);
    const std::string small_dir =
        drop_job(jobs_dir, "b_small", /*trials=*/1, /*shard_tasks=*/4);
    std::ostringstream log;
    DaemonOptions options;
    options.jobs_dir = jobs_dir;
    options.cache_dir.clear();
    options.owner = "placement-" + tag;
    options.placement = placement;
    options.max_cycles = 10;
    options.poll_initial_ms = 1;
    options.poll_max_ms = 2;
    options.log = &log;
    const DaemonReport report = run_daemon(options);
    EXPECT_EQ(report.jobs_completed, 2) << log.str();
    const std::string text = log.str();
    const std::size_t big_done = text.find("completed job in " + big_dir);
    const std::size_t small_done =
        text.find("completed job in " + small_dir);
    EXPECT_NE(big_done, std::string::npos) << text;
    EXPECT_NE(small_done, std::string::npos) << text;
    return std::make_pair(big_done, small_done);
  };

  const auto [fifo_big, fifo_small] = run_once(Placement::fifo, "fifo");
  EXPECT_LT(fifo_big, fifo_small)
      << "fifo must drain the first-discovered (big) job first";
  const auto [fair_big, fair_small] = run_once(Placement::fair, "fair");
  EXPECT_LT(fair_small, fair_big)
      << "fair must complete the small job before the big drain finishes";
}

TEST(FleetPlacement, FairClaimBudgetScalesWithHeadroom) {
  // budget = max(1, cores - floor(load)): an idle box takes its core
  // count, load eats into it one whole core at a time, and the floor is
  // always 1 (a saturated or unknown box still makes progress).
  EXPECT_EQ(fair_claim_budget(0, 0), 1) << "unknown cores";
  EXPECT_EQ(fair_claim_budget(-1, 50), 1);
  EXPECT_EQ(fair_claim_budget(1, 0), 1);
  EXPECT_EQ(fair_claim_budget(4, 0), 4);
  EXPECT_EQ(fair_claim_budget(4, 99), 4) << "load rounds down";
  EXPECT_EQ(fair_claim_budget(4, 100), 3);
  EXPECT_EQ(fair_claim_budget(4, 350), 1);
  EXPECT_EQ(fair_claim_budget(4, 900), 1) << "overload clamps to 1";
  EXPECT_EQ(fair_claim_budget(8, 250), 6);
}

TEST(FleetRegistry, MemberRecordRoundTripsHostResources) {
  const std::string jobs_dir = fresh_dir("resources");
  FakeClock clock(3000);
  StoreEnv env;
  env.clock = &clock;
  FleetRegistry fleet(jobs_dir, env);

  MemberRecord rich;
  rich.id = "rich";
  rich.pid = 7;
  rich.placement = "fair";
  rich.ttl_seconds = 10;
  rich.host = "box-a";
  rich.cores = 16;
  rich.load100 = 275;
  MemberRecord bare;  // a pre-resources record: fields stay at defaults
  bare.id = "bare";
  bare.ttl_seconds = 10;
  fleet.publish(rich);
  fleet.publish(bare);

  for (const MemberState& member : fleet.scan()) {
    if (member.record.id == "rich") {
      EXPECT_EQ(member.record.host, "box-a");
      EXPECT_EQ(member.record.cores, 16);
      EXPECT_EQ(member.record.load100, 275);
    } else {
      EXPECT_TRUE(member.record.host.empty());
      EXPECT_EQ(member.record.cores, 0);
      EXPECT_EQ(member.record.load100, 0);
    }
  }
}

TEST(FleetPlacement, FairClaimRoundsFollowTheInjectedBudget) {
  // One 6-shard job, one daemon. With cores=3/load=1.00 the budget is 2,
  // so the fair drain takes ceil(6/2) = 3 claim rounds; with cores=1 the
  // budget floor of 1 takes 6. claim_rounds is the observable — wall
  // clock and worker interleaving never enter the count.
  const auto rounds_with = [&](int cores, int load100,
                               const std::string& tag) {
    const std::string jobs_dir = fresh_dir("budget_" + tag);
    drop_job(jobs_dir, "job", /*trials=*/6, /*shard_tasks=*/4);
    DaemonOptions options;
    options.jobs_dir = jobs_dir;
    options.cache_dir.clear();
    options.owner = "budget-" + tag;
    options.placement = Placement::fair;
    options.resources = {"testbox", cores, load100};
    options.max_cycles = 5;
    options.poll_initial_ms = 1;
    options.poll_max_ms = 2;
    const DaemonReport report = run_daemon(options);
    EXPECT_EQ(report.jobs_completed, 1) << tag;
    return report.claim_rounds;
  };
  EXPECT_EQ(rounds_with(3, 100, "headroom2"), 3);
  EXPECT_EQ(rounds_with(1, 0, "floor"), 6);
}

TEST(FleetStatus, JsonIsByteDeterministicUnderFakeClock) {
  const std::string jobs_dir = fresh_dir("json");
  FakeClock clock(9000);
  StoreEnv env;
  env.clock = &clock;
  const std::string job_dir = drop_job(jobs_dir, "job1", /*trials=*/3);
  JobStore store = JobStore::open(job_dir, env);
  ASSERT_TRUE(store.try_lease(0, "live-d"));

  FleetRegistry fleet(jobs_dir, env);
  MemberRecord live;
  live.id = "live-d";
  live.pid = 42;
  live.placement = "fair";
  live.ttl_seconds = 15;
  live.host = "box-a";
  live.cores = 4;
  live.load100 = 150;
  fleet.publish(live);
  clock.advance(5);

  const std::string json = fleet_status_json(jobs_dir, env);
  EXPECT_EQ(json, fleet_status_json(jobs_dir, env))
      << "same fake instant, same bytes";
  EXPECT_NE(json.find("\"id\":\"live-d\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"host\":\"box-a\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"cores\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"load100\":150"), std::string::npos) << json;
  EXPECT_NE(json.find("\"claim_budget\":3"), std::string::npos)
      << "cores 4, load 1.50 -> budget 3: " << json;
  EXPECT_NE(json.find("\"heartbeat_age_seconds\":5"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"leases_held\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tasks_total\":12"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shards_done\":0"), std::string::npos) << json;
  EXPECT_EQ(json.back(), '\n');
}

/// One FakeClock fleet with every row kind the fleet view renders: a live
/// member with host, cores and a ladder state; a stale member; a
/// non-member lease owner; a live and an expired lease; and a job
/// directory whose meta cannot be read. Returns the two readable jobs'
/// key hashes.
std::pair<std::string, std::string> build_status_fleet(
    const std::string& jobs_dir, FakeClock& clock, const StoreEnv& env) {
  const std::string job1 = drop_job(jobs_dir, "job1", /*trials=*/3);
  const std::string job2 =
      drop_job(jobs_dir, "job2", /*trials=*/4, /*shard_tasks=*/4,
               /*lease_ttl_seconds=*/10);
  fs::create_directories(jobs_dir + "/job3");
  std::ofstream(jobs_dir + "/job3/job.meta") << "not a job meta\n";

  JobStore store1 = JobStore::open(job1, env);
  JobStore store2 = JobStore::open(job2, env);
  EXPECT_TRUE(store1.try_lease(0, "live-d"));
  EXPECT_TRUE(store1.try_lease(1, "worker-x"));
  EXPECT_TRUE(store2.try_lease(0, "dead-d"));

  FleetRegistry fleet(jobs_dir, env);
  MemberRecord live;
  live.id = "live-d";
  live.pid = 42;
  live.placement = "fair";
  live.host = "box-a";
  live.cores = 4;
  live.load100 = 150;
  live.started = clock.now_seconds();
  live.ttl_seconds = 15;
  live.cycles = 7;
  live.tasks = 40;
  live.shards = 10;
  live.steals = 1;
  live.pressure = "cache-shed";
  live.free_bytes = 123456;
  fleet.publish(live);
  MemberRecord dead;
  dead.id = "dead-d";
  dead.pid = 43;
  dead.ttl_seconds = 15;
  fleet.publish(dead);
  clock.advance(20);
  fleet.publish(live);  // renews; dead-d's heartbeat is now 20s old
  store1.renew_lease(0, "live-d");
  return {scenario::hash_hex(store1.spec().key),
          scenario::hash_hex(store2.spec().key)};
}

TEST(FleetStatus, TextPinsEveryRowKindUnderFakeClock) {
  const std::string jobs_dir = fresh_dir("status_bytes");
  FakeClock clock(9000);
  StoreEnv env;
  env.clock = &clock;
  const auto [key1, key2] = build_status_fleet(jobs_dir, clock, env);

  std::ostringstream out;
  print_fleet_status(jobs_dir, env, out);
  const std::string& d = jobs_dir;
  const std::string expected =
      "fleet of " + d + ": 2 member(s), 3 job(s)\n"
      "  daemon dead-d [STALE]: pid 43, up 20s, heartbeat 20s ago (ttl 15s), "
      "0 tasks, 0 shards (0/s), 0 steal(s), pressure ok, 1 lease(s) held\n"
      "  daemon live-d [live]: pid 42, placement fair, host box-a, 4 cores "
      "(load 1.5, budget 3), up 20s, heartbeat 0s ago (ttl 15s), 40 tasks, "
      "10 shards (0.5/s), 1 steal(s), pressure cache-shed (free 123456B), "
      "1 lease(s) held\n"
      "  non-member owner worker-x: 1 lease(s) held\n"
      "  job " + key1 + ": 0/12 tasks, 0/3 shards done, 2 leased  (" + d +
      "/job1)\n"
      "    lease shard 0: owner live-d, age 20s, progress 0s ago\n"
      "    lease shard 1: owner worker-x, age 20s, progress 20s ago\n"
      "  job " + key2 + ": 0/16 tasks, 0/4 shards done, 0 leased (+1 stale)  "
      "(" + d + "/job2)\n"
      "    lease shard 0: owner dead-d, age 20s, progress 20s ago "
      "[EXPIRED]\n"
      "  unreadable (" + d + "/job3/job.meta: not a dualcast job meta file)  "
      "(" + d + "/job3)\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(FleetStatus, JsonPinsEveryRowKindUnderFakeClock) {
  const std::string jobs_dir = fresh_dir("json_bytes");
  FakeClock clock(9000);
  StoreEnv env;
  env.clock = &clock;
  const auto [key1, key2] = build_status_fleet(jobs_dir, clock, env);

  const std::string& d = jobs_dir;
  const std::string expected =
      "{\"jobs_dir\":\"" + d + "\",\"now\":9020,\"members\":["
      "{\"id\":\"dead-d\",\"live\":false,\"pid\":43,\"placement\":\"\","
      "\"host\":\"\",\"cores\":0,\"load100\":0,\"claim_budget\":1,"
      "\"uptime_seconds\":20,\"heartbeat_age_seconds\":20,"
      "\"ttl_seconds\":15,\"cycles\":0,\"tasks\":0,\"shards\":0,"
      "\"shards_per_second\":0.000,\"steals\":0,\"pressure\":\"ok\","
      "\"free_bytes\":-1,\"leases_held\":1},"
      "{\"id\":\"live-d\",\"live\":true,\"pid\":42,\"placement\":\"fair\","
      "\"host\":\"box-a\",\"cores\":4,\"load100\":150,\"claim_budget\":3,"
      "\"uptime_seconds\":20,\"heartbeat_age_seconds\":0,"
      "\"ttl_seconds\":15,\"cycles\":7,\"tasks\":40,\"shards\":10,"
      "\"shards_per_second\":0.500,\"steals\":1,"
      "\"pressure\":\"cache-shed\",\"free_bytes\":123456,"
      "\"leases_held\":1}],"
      "\"non_member_owners\":[{\"owner\":\"worker-x\",\"leases_held\":1}],"
      "\"jobs\":["
      "{\"dir\":\"" + d + "/job1\",\"key\":\"" + key1 + "\","
      "\"tasks_total\":12,\"tasks_completed\":0,\"shards_total\":3,"
      "\"shards_done\":0,\"leases_live\":2,\"leases_stale\":0,"
      "\"shards_corrupt\":0,\"shards_quarantined\":0,\"leases\":["
      "{\"shard\":0,\"owner\":\"live-d\",\"age_seconds\":20,"
      "\"progress_age_seconds\":0,\"expired\":false},"
      "{\"shard\":1,\"owner\":\"worker-x\",\"age_seconds\":20,"
      "\"progress_age_seconds\":20,\"expired\":false}]},"
      "{\"dir\":\"" + d + "/job2\",\"key\":\"" + key2 + "\","
      "\"tasks_total\":16,\"tasks_completed\":0,\"shards_total\":4,"
      "\"shards_done\":0,\"leases_live\":0,\"leases_stale\":1,"
      "\"shards_corrupt\":0,\"shards_quarantined\":0,\"leases\":["
      "{\"shard\":0,\"owner\":\"dead-d\",\"age_seconds\":20,"
      "\"progress_age_seconds\":20,\"expired\":true}]},"
      "{\"dir\":\"" + d + "/job3\",\"error\":\"" + d +
      "/job3/job.meta: not a dualcast job meta file\"}]}\n";
  EXPECT_EQ(fleet_status_json(jobs_dir, env), expected);
}

TEST(FleetGc, DryRunReportsEverythingAndMutatesNothing) {
  const std::string jobs_dir = fresh_dir("dryrun");
  FakeClock clock(5000);
  StoreEnv env;
  env.clock = &clock;
  const std::string job_dir =
      drop_job(jobs_dir, "job1", /*trials=*/3, /*shard_tasks=*/4,
               /*lease_ttl_seconds=*/30);

  // The full debris menagerie: a stale member, its expired lease, and a
  // superseded quarantine beside a verified-complete shard.
  JobStore store = JobStore::open(job_dir, env);
  ASSERT_TRUE(store.try_lease(0, "ghost"));
  FleetRegistry fleet(jobs_dir, env);
  MemberRecord ghost;
  ghost.id = "ghost";
  ghost.ttl_seconds = 10;
  fleet.publish(ghost);
  const JobRuntime runtime(store);
  WorkerOptions finish;
  finish.owner = "live";
  run_worker(store, runtime, finish);
  const fs::path quarantine =
      fs::path(job_dir) / "shards" / "shard_1.quarantine";
  std::ofstream(quarantine) << "old rotten log\n";
  clock.advance(35);  // member stale at 5010, ghost lease expired at 5030

  std::ostringstream log;
  const GcReport dry = gc_sweep(jobs_dir, env, &log, /*dry_run=*/true);
  EXPECT_TRUE(dry.dry_run);
  EXPECT_EQ(dry.members_reaped, 1);
  EXPECT_EQ(dry.leases_reclaimed, 1);
  EXPECT_EQ(dry.quarantines_removed, 1);
  EXPECT_NE(log.str().find("would"), std::string::npos) << log.str();

  // Nothing moved: the member file, the lease, and the quarantine are
  // all still on disk, and a second dry run reports the same counts.
  EXPECT_EQ(fleet.scan().size(), 1u);
  EXPECT_EQ(store.scan_leases().size(), 1u);
  EXPECT_TRUE(fs::exists(quarantine));
  const GcReport again = gc_sweep(jobs_dir, env, nullptr, /*dry_run=*/true);
  EXPECT_EQ(again.members_reaped, 1);
  EXPECT_EQ(again.leases_reclaimed, 1);
  EXPECT_EQ(again.quarantines_removed, 1);

  // The real sweep then reclaims exactly what the dry run promised.
  const GcReport wet = gc_sweep(jobs_dir, env);
  EXPECT_FALSE(wet.dry_run);
  EXPECT_EQ(wet.members_reaped, dry.members_reaped);
  EXPECT_EQ(wet.leases_reclaimed, dry.leases_reclaimed);
  EXPECT_EQ(wet.quarantines_removed, dry.quarantines_removed);
  EXPECT_TRUE(fleet.scan().empty());
  EXPECT_TRUE(store.scan_leases().empty());
  EXPECT_FALSE(fs::exists(quarantine));
}

TEST(FleetDaemons, TwoDaemonsDrainDisjointShardSetsWithNoDuplicateWork) {
  const std::string jobs_dir = fresh_dir("twodaemons");
  const std::string dir_a =
      drop_job(jobs_dir, "job_a", /*trials=*/6, /*shard_tasks=*/3);
  const std::string dir_b =
      drop_job(jobs_dir, "job_b", /*trials=*/5, /*shard_tasks=*/3);
  const std::uint64_t trials_before = trials_executed();

  const auto daemon_body = [&](const std::string& owner,
                               DaemonReport* report,
                               std::ostringstream* log) {
    DaemonOptions options;
    options.jobs_dir = jobs_dir;
    options.cache_dir.clear();
    options.owner = owner;
    options.placement = Placement::fair;
    options.max_cycles = 40;
    options.poll_initial_ms = 1;
    options.poll_max_ms = 5;
    options.log = log;
    *report = run_daemon(options);
  };
  DaemonReport a;
  DaemonReport b;
  std::ostringstream log_a;
  std::ostringstream log_b;
  std::thread thread_a(daemon_body, "fleet-a", &a, &log_a);
  std::thread thread_b(daemon_body, "fleet-b", &b, &log_b);
  thread_a.join();
  thread_b.join();

  // Leases partition the shards: every task ran exactly once across the
  // two daemons — the global trial counter moved by exactly the task
  // total, and the daemons' executed-task counts sum to it.
  const int total_tasks = JobStore::open(dir_a).total_tasks() +
                          JobStore::open(dir_b).total_tasks();
  EXPECT_EQ(trials_executed() - trials_before,
            static_cast<std::uint64_t>(total_tasks))
      << log_a.str() << log_b.str();
  EXPECT_EQ(a.tasks_executed + b.tasks_executed, total_tasks);
  EXPECT_EQ(a.leases_stolen + b.leases_stolen, 0)
      << "live daemons' leases must never be stolen";

  // Per-shard record counts are exact — no shard holds duplicate records.
  for (const std::string& dir : {dir_a, dir_b}) {
    const JobStore store = JobStore::open(dir);
    for (const ShardState& shard : store.scan()) {
      EXPECT_TRUE(shard.done);
      EXPECT_EQ(static_cast<int>(store.read_shard_records(shard.index)
                                     .size()),
                shard.end - shard.begin)
          << dir << " shard " << shard.index;
    }
  }

  // And the merges reproduce the single-process bytes.
  for (const std::string& dir : {dir_a, dir_b}) {
    JobStore store = JobStore::open(dir);
    JobRuntime runtime(store);
    std::vector<std::string> reference;
    for (const scenario::ScenarioResult& result : scenario::run_scenarios(
             {&mini_scenario()}, store.spec().run_options())) {
      scenario::append_json_rows(result, reference);
    }
    EXPECT_EQ(merge_job(store, runtime, nullptr), reference) << dir;
  }
}

}  // namespace
}  // namespace dualcast::service
