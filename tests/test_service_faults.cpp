// The fault matrix: derive injection points from a fault-free run's op
// trace, then for each point kill/corrupt/fail a worker at exactly that
// filesystem operation, resume with a clean worker, and require the
// merged JSON byte-identical to the uninterrupted reference. Also the
// end-to-end corruption drill: a bit-rotted shard log is detected (merge
// refuses), repaired in place, recomputed from the watermark, and the
// final merge is again byte-identical — also when the repairing worker
// dies at any of the repair's store operations.

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "analysis/trials.hpp"
#include "service/service.hpp"

namespace dualcast::service {
namespace {

namespace fs = std::filesystem;
using scenario::ScenarioError;
using scenario::ScenarioSpec;
using util::FakeClock;
using util::FaultyFs;
using util::InjectedFault;

const ScenarioSpec& mini_scenario() {
  static const std::string name = "svc-test/fault-mini";
  if (!scenario::scenarios().contains(name)) {
    ScenarioSpec spec;
    spec.name = name;
    spec.title = "service fault mini";
    spec.topology = "dual_clique({x})";
    spec.problem = "global(1)";
    spec.sweep = {8, 12};
    spec.trials = 3;
    spec.base_seed = 44;
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
      fs::path(::testing::TempDir()) / ("dualcast_fault_" + tag);
  fs::remove_all(dir);
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

JobSpec mini_job() {
  // lease_ttl 0: a dead worker's lease is instantly stealable, so the
  // resume phase never has to wait out (or fake) a TTL.
  return make_job_spec({&mini_scenario()}, scenario::RunOptions{},
                       /*shard_tasks=*/3, /*lease_ttl_seconds=*/0);
}

/// One full create+work pass through a FaultyFs under a frozen clock.
/// Returns what stopped the worker: "" = ran to completion, otherwise the
/// fault's description. The frozen FakeClock keeps the lease heartbeat
/// quiescent, so the op sequence is single-threaded and identical across
/// replays — the property that makes a global op index a *coordinate*.
std::string faulted_pass(const std::string& dir, FaultyFs& faulty) {
  FakeClock clock(1000);
  StoreEnv env;
  env.fs = &faulty;
  env.clock = &clock;
  JobStore store = JobStore::create_or_attach(dir, mini_job(), env);
  const JobRuntime runtime(store);
  WorkerOptions options;
  options.owner = "victim";
  options.io_retries = 2;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 2;
  try {
    run_worker(store, runtime, options);
    return "";
  } catch (const util::InjectedCrash& crash) {
    return crash.what();
  } catch (const util::IoError& error) {
    return error.what();
  }
}

/// Clean resume + merge: a fresh worker (real fs, real clock) steals the
/// stale leases, repairs anything corrupt, completes the job, and the
/// merge must reproduce the reference bytes.
void resume_and_check(const std::string& dir, const std::string& context) {
  JobStore store = JobStore::open(dir);
  const JobRuntime runtime(store);
  WorkerOptions options;
  options.owner = "recoverer";
  run_worker(store, runtime, options);
  JobRuntime merge_runtime(store);
  try {
    EXPECT_EQ(merge_job(store, merge_runtime, nullptr), reference_rows())
        << "divergent merge after " << context;
  } catch (const ScenarioError& error) {
    ADD_FAILURE() << "merge failed after " << context << ": "
                  << error.what();
  }
}

/// Completes the mini job in `dir`, then flips one byte in the second
/// record of shard 1's log: a finished shard whose log rotted.
void complete_and_rot(const std::string& dir) {
  {
    JobStore store = JobStore::create_or_attach(dir, mini_job());
    const JobRuntime runtime(store);
    WorkerOptions options;
    options.owner = "original";
    run_worker(store, runtime, options);
  }
  const fs::path log = fs::path(dir) / "shards" / "shard_1.log";
  std::string text;
  {
    std::ifstream in(log, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const std::size_t second_line = text.find('\n') + 1;
  const std::size_t flip = text.find(' ', second_line + 3) + 1;
  text[flip] = text[flip] == '7' ? '8' : '7';
  std::ofstream(log, std::ios::binary) << text;
}

TEST(ServiceFaultMatrix, EveryInjectionPointResumesByteIdentical) {
  ASSERT_EQ(reference_rows().size(), 4u);

  // Dry run: no faults, record the op trace and where job creation ends.
  const std::string dry = fresh_dir("dry");
  FaultyFs tracer(util::real_fs());
  int creation_ops = 0;
  {
    FakeClock clock(1000);
    StoreEnv env;
    env.fs = &tracer;
    env.clock = &clock;
    JobStore store = JobStore::create_or_attach(dry, mini_job(), env);
    creation_ops = tracer.ops();
    const JobRuntime runtime(store);
    WorkerOptions options;
    options.owner = "victim";
    run_worker(store, runtime, options);
  }
  resume_and_check(dry, "the fault-free dry run");
  const auto trace = tracer.trace();

  // Choose injection points: for each op kind that appears on the
  // worker's shard/lease paths, take the first, middle, and last
  // occurrence — spread across the run's lifetime without hand-picked
  // magic indices that would rot when the op sequence evolves.
  std::map<std::string, std::vector<int>> by_op;
  for (int i = creation_ops; i < static_cast<int>(trace.size()); ++i) {
    const auto& [op, path] = trace[i];
    if (path.find("shards/") == std::string::npos &&
        path.find("leases/") == std::string::npos) {
      continue;
    }
    by_op[op].push_back(i);
  }
  std::vector<int> points;
  for (const auto& [op, indices] : by_op) {
    std::set<int> chosen{indices.front(),
                         indices[indices.size() / 2],
                         indices.back()};
    points.insert(points.end(), chosen.begin(), chosen.end());
  }
  // The acceptance floor: a real matrix, not a token sample. Expect the
  // append/fsync/write/link/unlink/rename families all present.
  ASSERT_GE(points.size(), 10u) << "op trace too small for a fault matrix";
  ASSERT_GE(by_op.size(), 5u);
  ASSERT_TRUE(by_op.count("append") == 1);
  ASSERT_TRUE(by_op.count("fsync") == 1);
  ASSERT_TRUE(by_op.count("link") == 1);
  ASSERT_TRUE(by_op.count("rename") == 1);

  int variant = 0;
  for (const int at : points) {
    const auto& [op, path] = trace[at];
    // Rotate fault kinds so the matrix covers kills, torn appends, and
    // error paths (one-shot EIO is absorbed by the retry loop — the run
    // then completes; sticky ENOSPC exhausts it — the run dies).
    InjectedFault fault;
    fault.at = at;
    const int flavor = variant++ % 3;
    std::string label;
    if (flavor == 1 && op == "append") {
      fault.kind = InjectedFault::Kind::torn;
      fault.keep_bytes = 5;  // mid-record: a torn tail, not corruption
      label = "torn";
    } else if (flavor == 2) {
      fault.kind = InjectedFault::Kind::error;
      fault.err = variant % 2 == 0 ? EIO : ENOSPC;
      fault.sticky = variant % 4 == 0;
      label = fault.sticky ? "sticky-error" : "error";
    } else {
      fault.kind = InjectedFault::Kind::crash;
      label = "crash";
    }

    const std::string context =
        label + " at op " + std::to_string(at) + " (" + op + " " + path +
        ")";
    SCOPED_TRACE(context);
    const std::string dir =
        fresh_dir("pt" + std::to_string(at) + "_" + label);
    FaultyFs faulty(util::real_fs());
    faulty.inject(fault);
    const std::string died = faulted_pass(dir, faulty);
    EXPECT_EQ(faulty.faults_fired() > 0, true);
    if (fault.kind != InjectedFault::Kind::error || fault.sticky) {
      EXPECT_FALSE(died.empty()) << "fault did not stop the worker";
    }
    resume_and_check(dir, context);
  }
}

TEST(ServiceFaultMatrix, CorruptShardIsNeverMergedAndRecomputesIdentical) {
  // Complete a job cleanly, then rot one byte in the middle of a middle
  // shard's log.
  const std::string dir = fresh_dir("bitrot");
  complete_and_rot(dir);
  JobStore store = JobStore::open(dir);
  const JobRuntime runtime(store);

  // The merger must refuse the damaged shard, with a diagnostic that
  // names it — silent inclusion of rotten records is the one unforgivable
  // outcome.
  {
    JobRuntime merge_runtime(store);
    try {
      merge_job(store, merge_runtime, nullptr);
      FAIL() << "merge consumed a corrupt shard log";
    } catch (const ScenarioError& error) {
      EXPECT_NE(std::string(error.what()).find("shard 1"),
                std::string::npos)
          << error.what();
      EXPECT_NE(std::string(error.what()).find("corrupt"),
                std::string::npos)
          << error.what();
    }
  }

  // A worker repairs the log in place, recomputes from the watermark, and
  // the merge is byte-identical again. Its log line is the evidence of
  // the damage: the shard, the first bad line and what failed there.
  const std::uint64_t trials_before = trials_executed();
  std::ostringstream log;
  WorkerOptions recover;
  recover.owner = "recoverer";
  recover.log = &log;
  const WorkerReport report = run_worker(store, runtime, recover);
  EXPECT_EQ(report.shards_repaired, 1);
  EXPECT_EQ(report.tasks_executed, 2);
  EXPECT_GT(trials_executed() - trials_before, 0u);
  EXPECT_NE(log.str().find("repaired shard 1 record log corrupt at line 2: "
                           "checksum mismatch"),
            std::string::npos)
      << log.str();
  for (const auto& entry : fs::directory_iterator(fs::path(dir) / "shards")) {
    const std::string ext = entry.path().extension().string();
    EXPECT_TRUE(ext == ".log" || ext == ".done") << entry.path();
  }
  JobRuntime merge_runtime(store);
  EXPECT_EQ(merge_job(store, merge_runtime, nullptr), reference_rows());
}

TEST(ServiceFaultMatrix, CrashAnywhereInARepairResumesByteIdentical) {
  // One rotted finished job, copied fresh for every injection point.
  const std::string rotted = fresh_dir("repair_rotted");
  complete_and_rot(rotted);
  const auto faulted_repair = [&](const std::string& dir, FaultyFs& faulty) {
    fs::copy(rotted, dir, fs::copy_options::recursive);
    FakeClock clock(1000);
    StoreEnv env;
    env.fs = &faulty;
    env.clock = &clock;
    JobStore store = JobStore::open(dir, env);
    const JobRuntime runtime(store);
    WorkerOptions options;
    options.owner = "victim";
    try {
      run_worker(store, runtime, options);
    } catch (const util::InjectedCrash&) {
    }
  };

  // Trace a fault-free repair: every operation from the first to the last
  // on shard 1's log, done marker or lease is an injection point.
  FaultyFs tracer(util::real_fs());
  const std::string traced = fresh_dir("repair_trace");
  faulted_repair(traced, tracer);
  resume_and_check(traced, "the fault-free repair");
  const auto trace = tracer.trace();
  int first = -1;
  int last = -1;
  for (int i = 0; i < static_cast<int>(trace.size()); ++i) {
    if (trace[i].second.find("shard_1.") == std::string::npos) continue;
    if (first < 0) first = i;
    last = i;
  }
  ASSERT_GE(last - first, 10) << "op trace too small for a fault matrix";

  for (int at = first; at <= last; ++at) {
    const std::string context = "crash at op " + std::to_string(at) + " (" +
                                trace[at].first + " " + trace[at].second +
                                ")";
    SCOPED_TRACE(context);
    InjectedFault fault;
    fault.kind = InjectedFault::Kind::crash;
    fault.at = at;
    FaultyFs faulty(util::real_fs());
    faulty.inject(fault);
    const std::string dir = fresh_dir("repair_pt" + std::to_string(at));
    faulted_repair(dir, faulty);
    EXPECT_EQ(faulty.faults_fired(), 1);
    resume_and_check(dir, context);
  }
}

}  // namespace
}  // namespace dualcast::service
