// The filesystem/fault-injection seam itself: CRC32C vectors, RealFs
// roundtrips, atomic whole-file writes, FaultyFs crash/torn/error/delay
// schedules (one-shot and sticky, with op/path filters and trace; a sticky
// delay on every op is the slow-mount hook), every op through the
// decorators, free-space probing, the fake clock, and jittered backoff
// bounds and determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <functional>

#include "util/clock.hpp"
#include "util/io.hpp"

namespace dualcast::util {
namespace {

namespace stdfs = std::filesystem;

std::string fresh_dir(const std::string& tag) {
  const stdfs::path dir =
      stdfs::path(::testing::TempDir()) / ("dualcast_io_" + tag);
  stdfs::remove_all(dir);
  stdfs::create_directories(dir);
  return dir.string();
}

TEST(Crc32c, KnownVectors) {
  // The canonical CRC32C check value distinguishes Castagnoli from the
  // zlib polynomial.
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(""), 0x00000000u);
  EXPECT_NE(crc32c("123456789"), crc32c("123456780"));
  EXPECT_NE(crc32c("a"), crc32c("b"));
}

TEST(RealFs, RoundTripAppendListUnlink) {
  const std::string dir = fresh_dir("roundtrip");
  Fs& fs = real_fs();
  const std::string path = dir + "/file.txt";
  EXPECT_FALSE(fs.exists(path));
  std::string content;
  EXPECT_FALSE(fs.read_file(path, content));
  fs.write_file(path, "alpha\n");
  fs.append(path, "beta\n");
  fs.fsync_file(path);
  ASSERT_TRUE(fs.read_file(path, content));
  EXPECT_EQ(content, "alpha\nbeta\n");
  EXPECT_EQ(fs.file_size(path), 11);
  EXPECT_EQ(fs.file_size(dir + "/absent"), -1);
  EXPECT_EQ(fs.list(dir), std::vector<std::string>{"file.txt"});
  EXPECT_TRUE(fs.list(dir + "/no_such_dir").empty());
  EXPECT_TRUE(fs.unlink(path));
  EXPECT_FALSE(fs.unlink(path));  // second unlink: already gone
}

TEST(RealFs, LinkIsCreateIfAbsent) {
  const std::string dir = fresh_dir("link");
  Fs& fs = real_fs();
  fs.write_file(dir + "/a", "A");
  fs.write_file(dir + "/b", "B");
  EXPECT_TRUE(fs.link(dir + "/a", dir + "/lock"));
  // Second publisher loses: the path exists, content stays the winner's.
  EXPECT_FALSE(fs.link(dir + "/b", dir + "/lock"));
  std::string content;
  ASSERT_TRUE(fs.read_file(dir + "/lock", content));
  EXPECT_EQ(content, "A");
}

TEST(RealFs, WriteFileAtomicReplacesAndLeavesNoTemp) {
  const std::string dir = fresh_dir("atomic");
  Fs& fs = real_fs();
  const std::string path = dir + "/target";
  fs.write_file_atomic(path, "one");
  fs.write_file_atomic(path, "two");
  std::string content;
  ASSERT_TRUE(fs.read_file(path, content));
  EXPECT_EQ(content, "two");
  EXPECT_EQ(fs.list(dir).size(), 1u);  // no .tmp.* debris
}

/// Decorator that deletes a directory tree immediately before a chosen
/// operation reaches the base Fs — the "target directory vanished
/// mid-write" race (concurrent cleanup, unmounted share) made
/// deterministic.
class VanishingDirFs final : public ForwardingFs {
 public:
  VanishingDirFs(Fs& base, std::string dir, std::string vanish_before)
      : ForwardingFs(base),
        dir_(std::move(dir)),
        vanish_before_(std::move(vanish_before)) {}

 private:
  void before(const char* op, const std::string& /*path*/) override {
    if (op == vanish_before_) stdfs::remove_all(dir_);
  }

  std::string dir_;
  std::string vanish_before_;
};

TEST(RealFs, WriteFileAtomicSurvivesTargetDirVanishingMidWrite) {
  // Whichever step the directory disappears under — the temp write, the
  // temp fsync, or the rename — the contract is a clean IoError (never a
  // crash or a silent no-op) and no orphaned .tmp.* file once the
  // directory exists again.
  for (const std::string step : {"write", "fsync", "rename"}) {
    const std::string dir = fresh_dir("vanish_" + step);
    VanishingDirFs fs(real_fs(), dir, step);
    EXPECT_THROW(fs.write_file_atomic(dir + "/target", "payload"), IoError)
        << "vanish before " << step;
    stdfs::create_directories(dir);
    EXPECT_TRUE(real_fs().list(dir).empty())
        << "orphan left when dir vanished before " << step;
  }
}

TEST(FaultyFs, CrashAtScheduledOpWithFilters) {
  const std::string dir = fresh_dir("faulty_crash");
  FaultyFs fs(real_fs());
  InjectedFault fault;
  fault.kind = InjectedFault::Kind::crash;
  fault.at = 1;  // the *second* matching op
  fault.op = "write";
  fault.path_substr = "victim";
  fs.inject(fault);

  fs.write_file(dir + "/bystander", "x");  // op filter: not a "victim"
  fs.write_file(dir + "/victim1", "x");    // match 0: passes
  EXPECT_THROW(fs.write_file(dir + "/victim2", "x"), InjectedCrash);
  // One-shot: after firing the schedule is spent.
  fs.write_file(dir + "/victim3", "x");
  EXPECT_EQ(fs.faults_fired(), 1);

  const auto trace = fs.trace();
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[0].first, "write");
  EXPECT_EQ(trace[2].second, dir + "/victim2");
  EXPECT_EQ(fs.ops(), 4);
}

TEST(FaultyFs, TornAppendPersistsPrefixThenCrashes) {
  const std::string dir = fresh_dir("faulty_torn");
  FaultyFs fs(real_fs());
  const std::string path = dir + "/log";
  fs.append(path, "first\n");
  InjectedFault fault;
  fault.kind = InjectedFault::Kind::torn;
  fault.at = 0;  // `at` counts *matching* ops from injection onward
  fault.op = "append";
  fault.keep_bytes = 3;
  fs.inject(fault);
  EXPECT_THROW(fs.append(path, "second\n"), InjectedCrash);
  std::string content;
  ASSERT_TRUE(real_fs().read_file(path, content));
  EXPECT_EQ(content, "first\nsec");  // the torn prefix survived
}

TEST(FaultyFs, ErrorFaultsAreTypedAndStickyFaultsRepeat) {
  const std::string dir = fresh_dir("faulty_err");
  FaultyFs fs(real_fs());
  InjectedFault eio;
  eio.kind = InjectedFault::Kind::error;
  eio.at = 0;
  eio.op = "fsync";
  eio.err = EIO;
  eio.sticky = true;
  fs.inject(eio);
  fs.write_file(dir + "/f", "x");
  for (int i = 0; i < 2; ++i) {
    try {
      fs.fsync_file(dir + "/f");
      FAIL() << "expected injected EIO";
    } catch (const IoError& error) {
      EXPECT_EQ(error.code(), EIO);
      EXPECT_TRUE(error.transient());
    }
  }
  EXPECT_EQ(fs.faults_fired(), 2);  // sticky: fires every matching op
  // Unrelated ops still pass through.
  std::string content;
  EXPECT_TRUE(fs.read_file(dir + "/f", content));
}

TEST(FaultyFs, DelayFaultStallsAdvancesTickClockAndRunsHook) {
  const std::string dir = fresh_dir("faulty_delay");
  FakeClock ticks(1000);
  FaultyFs fs(real_fs());
  fs.set_tick_clock(&ticks);
  int hook_runs = 0;
  std::string seen_during_stall;
  fs.set_on_stall([&] {
    ++hook_runs;
    // The hook runs outside the FaultyFs lock, so it can do IO through
    // *another* Fs — the stall-then-steal tests' whole mechanism.
    real_fs().write_file(dir + "/from_hook", "peer was here");
    real_fs().read_file(dir + "/from_hook", seen_during_stall);
  });
  InjectedFault fault;
  fault.kind = InjectedFault::Kind::delay;
  fault.at = 1;  // second matching append
  fault.op = "append";
  fault.path_substr = "log";
  fault.delay_ticks = 30;
  fs.inject(fault);

  const std::string path = dir + "/log";
  fs.append(path, "one\n");  // match 0: passes untouched
  EXPECT_EQ(ticks.now_seconds(), 1000);
  fs.append(path, "two\n");  // match 1: stalls, then completes
  EXPECT_EQ(ticks.now_seconds(), 1030);  // the stall *was* time passing
  EXPECT_EQ(hook_runs, 1);
  EXPECT_EQ(seen_during_stall, "peer was here");
  EXPECT_EQ(fs.stalls(), 1);
  EXPECT_EQ(fs.faults_fired(), 1);
  // The stalled op itself succeeded — a hang is not a failure.
  std::string content;
  ASSERT_TRUE(real_fs().read_file(path, content));
  EXPECT_EQ(content, "one\ntwo\n");
  fs.append(path, "three\n");  // one-shot: schedule spent
  EXPECT_EQ(fs.stalls(), 1);
}

TEST(FaultyFs, DelayComposesWithErrorSchedule) {
  // A delay and an error scheduled on the same op: the op stalls *and*
  // then fails — a hung-then-dead mount, the nastiest gray failure.
  const std::string dir = fresh_dir("faulty_delay_err");
  FakeClock ticks(0);
  FaultyFs fs(real_fs());
  fs.set_tick_clock(&ticks);
  InjectedFault delay;
  delay.kind = InjectedFault::Kind::delay;
  delay.at = 0;
  delay.op = "fsync";
  delay.delay_ticks = 7;
  fs.inject(delay);
  InjectedFault err;
  err.kind = InjectedFault::Kind::error;
  err.at = 0;
  err.op = "fsync";
  err.err = EIO;
  fs.inject(err);
  fs.write_file(dir + "/f", "x");
  EXPECT_THROW(fs.fsync_file(dir + "/f"), IoError);
  EXPECT_EQ(ticks.now_seconds(), 7);  // stalled first, then threw
  EXPECT_EQ(fs.stalls(), 1);
  EXPECT_EQ(fs.faults_fired(), 2);
}

TEST(FaultyFs, StickyDelayTaxesEveryOpOnTheTickClock) {
  // One sticky delay at op 0 with no filters taxes every op alike: every
  // op stalls, and each stall is counted.
  const std::string dir = fresh_dir("faulty_slow");
  FakeClock ticks(0);
  FaultyFs fs(real_fs());
  fs.set_tick_clock(&ticks);
  InjectedFault slow;
  slow.kind = InjectedFault::Kind::delay;
  slow.sticky = true;
  slow.delay_ticks = 2;
  fs.inject(slow);
  fs.write_file(dir + "/f", "x");
  std::string content;
  ASSERT_TRUE(fs.read_file(dir + "/f", content));
  EXPECT_EQ(content, "x");
  fs.append(dir + "/f", "y");
  EXPECT_EQ(ticks.now_seconds(), 6);  // three ops, 2 ticks each
  EXPECT_EQ(fs.stalls(), 3);
  EXPECT_EQ(fs.file_size(dir + "/f"), 2);
  EXPECT_EQ(ticks.now_seconds(), 8);
  EXPECT_EQ(fs.stalls(), 4);
  EXPECT_EQ(fs.faults_fired(), 4);
}

/// One Fs operation run against a fixture directory holding files "a"
/// ("A") and "b" ("B"): its FaultyFs op name, the path FaultyFs traces for
/// it, and a body returning its result as text.
struct OpCase {
  const char* name;
  const char* traced;  ///< path relative to the fixture directory
  std::function<std::string(Fs&, const std::string& dir)> run;
};

std::vector<OpCase> every_op() {
  return {
      {"exists", "a",
       [](Fs& fs, const std::string& dir) {
         return std::to_string(fs.exists(dir + "/a"));
       }},
      {"read", "a",
       [](Fs& fs, const std::string& dir) {
         std::string out;
         const bool found = fs.read_file(dir + "/a", out);
         return std::to_string(found) + ":" + out;
       }},
      {"write", "w",
       [](Fs& fs, const std::string& dir) {
         fs.write_file(dir + "/w", "W");
         return std::string();
       }},
      {"append", "a",
       [](Fs& fs, const std::string& dir) {
         fs.append(dir + "/a", "+");
         return std::string();
       }},
      {"fsync", "a",
       [](Fs& fs, const std::string& dir) {
         fs.fsync_file(dir + "/a");
         return std::string();
       }},
      {"link", "l",
       [](Fs& fs, const std::string& dir) {
         return std::to_string(fs.link(dir + "/a", dir + "/l"));
       }},
      {"rename", "r",
       [](Fs& fs, const std::string& dir) {
         fs.rename(dir + "/a", dir + "/r");
         return std::string();
       }},
      {"unlink", "b",
       [](Fs& fs, const std::string& dir) {
         return std::to_string(fs.unlink(dir + "/b"));
       }},
      {"list", "",
       [](Fs& fs, const std::string& dir) {
         std::string names;
         for (const std::string& name : fs.list(dir)) names += name + ",";
         return names;
       }},
      {"mkdir", "m/n",
       [](Fs& fs, const std::string& dir) {
         fs.create_dirs(dir + "/m/n");
         return std::string();
       }},
      {"syncdir", "",
       [](Fs& fs, const std::string& dir) {
         fs.sync_dir(dir);
         return std::string();
       }},
      {"size", "a",
       [](Fs& fs, const std::string& dir) {
         return std::to_string(fs.file_size(dir + "/a"));
       }},
      {"statvfs", "",
       [](Fs& fs, const std::string& dir) {
         // Free space is live, so compare its sign: the base Fs's default
         // (-1, "unknown") is what a missing forward would return.
         const std::int64_t free = fs.free_bytes(dir);
         return free > 0 ? std::string("positive") : std::to_string(free);
       }},
      {"invalidate", "a",
       [](Fs& fs, const std::string& dir) {
         fs.invalidate(dir + "/a");
         return std::string();
       }},
  };
}

std::string fixture_dir(const std::string& tag) {
  const std::string dir = fresh_dir(tag);
  real_fs().write_file(dir + "/a", "A");
  real_fs().write_file(dir + "/b", "B");
  return dir;
}

/// Every entry under `dir` with its content, sorted: what an op left on
/// disk, comparable across fixture directories.
std::string dir_state(const std::string& dir) {
  std::vector<std::string> entries;
  for (const auto& entry : stdfs::recursive_directory_iterator(dir)) {
    std::string line = stdfs::relative(entry.path(), dir).string();
    if (entry.is_directory()) {
      line += "/";
    } else {
      std::string content;
      real_fs().read_file(entry.path().string(), content);
      line += "=" + content;
    }
    entries.push_back(line);
  }
  std::sort(entries.begin(), entries.end());
  std::string state;
  for (const std::string& line : entries) state += line + "\n";
  return state;
}

std::string traced_path(const std::string& dir, const OpCase& op) {
  return std::string(op.traced).empty() ? dir : dir + "/" + op.traced;
}

TEST(FsDecorators, EveryOpReachesTheBaseWithItsArguments) {
  // Each of the 14 Fs ops, through FaultyFs with a sticky delay armed: the
  // op reaches the base Fs with its arguments (same result, same effect on
  // disk as real_fs()), FaultyFs traces its name and path, and the delay
  // taxes the tick clock once.
  const std::vector<OpCase> ops = every_op();
  ASSERT_EQ(ops.size(), 14u);
  for (const OpCase& op : ops) {
    SCOPED_TRACE(op.name);
    const std::string name = op.name;
    const std::string real_dir = fixture_dir("everyop_real_" + name);
    const std::string expected = op.run(real_fs(), real_dir);
    const std::string expected_state = dir_state(real_dir);

    const std::string faulty_dir = fixture_dir("everyop_faulty_" + name);
    FakeClock ticks(0);
    FaultyFs faulty(real_fs());
    faulty.set_tick_clock(&ticks);
    InjectedFault slow;
    slow.kind = InjectedFault::Kind::delay;
    slow.sticky = true;
    slow.delay_ticks = 1;
    faulty.inject(slow);
    EXPECT_EQ(op.run(faulty, faulty_dir), expected);
    EXPECT_EQ(dir_state(faulty_dir), expected_state);
    const std::vector<std::pair<std::string, std::string>> want{
        {name, traced_path(faulty_dir, op)}};
    EXPECT_EQ(faulty.trace(), want);
    EXPECT_EQ(ticks.now_seconds(), 1);
  }
}

TEST(RealFs, FreeBytesProbesTheFilesystem) {
  const std::string dir = fresh_dir("statvfs");
  EXPECT_GT(real_fs().free_bytes(dir), 0);
  EXPECT_EQ(real_fs().free_bytes(dir + "/no/such/path"), -1);
}

TEST(IoErrorClass, TransientCodes) {
  EXPECT_TRUE(IoError("x", EIO).transient());
  EXPECT_TRUE(IoError("x", ENOSPC).transient());
  EXPECT_TRUE(IoError("x", EAGAIN).transient());
  EXPECT_TRUE(IoError("x", ETIMEDOUT).transient());
  EXPECT_FALSE(IoError("x", EROFS).transient());
  EXPECT_FALSE(IoError("x", ENOENT).transient());
}

TEST(FakeClockTest, SetAndAdvance) {
  FakeClock clock(100);
  EXPECT_EQ(clock.now_seconds(), 100);
  clock.advance(60);
  EXPECT_EQ(clock.now_seconds(), 160);
  clock.set(5);
  EXPECT_EQ(clock.now_seconds(), 5);
}

TEST(BackoffTest, JitteredDoublingWithinBoundsAndDeterministic) {
  Backoff a(10, 1000, /*seed=*/7);
  Backoff b(10, 1000, /*seed=*/7);
  int base = 10;
  for (int i = 0; i < 12; ++i) {
    const int next_a = a.next_ms();
    EXPECT_EQ(next_a, b.next_ms());  // same seed, same schedule
    EXPECT_GE(next_a, base / 2);
    EXPECT_LE(next_a, base);
    base = base >= 1000 ? 1000 : base * 2;
    if (base > 1000) base = 1000;
  }
  a.reset();
  const int restarted = a.next_ms();
  EXPECT_GE(restarted, 5);
  EXPECT_LE(restarted, 10);
}

}  // namespace
}  // namespace dualcast::util
