#pragma once

// Injectable filesystem seam + deterministic fault injection.
//
// All service-layer IO (job store, result cache, worker, daemon) goes
// through the `Fs` interface below: one virtual call per filesystem
// operation, with `real_fs()` as the production implementation. That seam
// is what makes the service's durability claims *testable* — `FaultyFs`
// wraps any Fs and injects, at a scheduled operation index:
//
//   * crashes (an `InjectedCrash` is thrown before the syscall runs —
//     the in-process equivalent of `kill -9` at that exact instant),
//   * torn writes (an append persists only a prefix, then "crashes"),
//   * IO errors (EIO, ENOSPC, ... as a thrown `IoError`),
//   * delays (the op stalls for scheduled fake-clock ticks and/or real
//     milliseconds, then proceeds — the gray-failure injection the
//     fail-slow tests storm with; a sticky delay stalls every matching op).
//
// Because workers, the store, and the merger are deterministic given a
// frozen clock, an op index fully identifies an injection point: the fault
// matrix test replays the same run once per point and proves the resumed
// output byte-identical to the uninterrupted one.
//
// Layering: this header is pure util — it knows nothing about scenarios
// or the service. Callers translate `IoError` into their own error types
// where appropriate.

#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/clock.hpp"

namespace dualcast::util {

/// A filesystem operation failed. Carries the errno-style code so callers
/// can distinguish transient faults (worth a backoff + retry) from
/// structural ones (missing directory, read-only filesystem).
class IoError : public std::runtime_error {
 public:
  IoError(const std::string& what, int code)
      : std::runtime_error(what), code_(code) {}

  int code() const { return code_; }
  /// Transient = a retry after a short backoff may succeed (EIO, EAGAIN,
  /// EINTR, ENOSPC — an operator can free space while workers back off —
  /// ESTALE: a reopen rebinds a handle that went stale under an NFS
  /// client's cache — and ETIMEDOUT: a soft NFS mount gave up on a server
  /// that may come back).
  bool transient() const;

 private:
  int code_;
};

/// Thrown by FaultyFs to simulate the process dying at a syscall: not an
/// IoError on purpose — no retry loop may catch it, it must unwind the
/// whole worker exactly like a kill would (leases left held, partial
/// files left behind).
class InjectedCrash : public std::exception {
 public:
  explicit InjectedCrash(std::string what) : what_(std::move(what)) {}
  const char* what() const noexcept override { return what_.c_str(); }

 private:
  std::string what_;
};

/// Thin filesystem interface: one virtual call == one injectable (and
/// traceable) operation. Paths are plain strings; implementations must be
/// safe to call from multiple threads.
class Fs {
 public:
  virtual ~Fs() = default;

  virtual bool exists(const std::string& path) = 0;
  /// Reads the whole file. Returns false when absent; throws on IO error.
  virtual bool read_file(const std::string& path, std::string& out) = 0;
  /// Creates/truncates and writes the whole file (no fsync).
  virtual void write_file(const std::string& path, std::string_view data) = 0;
  /// Appends in a single write() (O_APPEND | O_CREAT; no fsync).
  virtual void append(const std::string& path, std::string_view data) = 0;
  /// fsyncs the file's current contents.
  virtual void fsync_file(const std::string& path) = 0;
  /// Hard-links `existing` to `link_path`. Returns false when `link_path`
  /// already exists — the portable atomic create-if-absent primitive that
  /// publishes a fully-written file (unlike O_EXCL create + write, which
  /// exposes an empty-file window to concurrent readers; link() is also
  /// the classic NFS-safe lockfile technique).
  virtual bool link(const std::string& existing,
                    const std::string& link_path) = 0;
  virtual void rename(const std::string& from, const std::string& to) = 0;
  /// Returns false when the path was already absent.
  virtual bool unlink(const std::string& path) = 0;
  /// Entry names (not paths) in `dir`, sorted. Empty when `dir` is absent.
  virtual std::vector<std::string> list(const std::string& dir) = 0;
  virtual void create_dirs(const std::string& dir) = 0;
  /// fsyncs a directory so renames/creates inside it are durable.
  virtual void sync_dir(const std::string& dir) = 0;
  /// Size in bytes, or -1 when absent.
  virtual std::int64_t file_size(const std::string& path) = 0;
  /// Free bytes on the filesystem holding `path` (statvfs), or -1 when
  /// unknown. The daemon's disk-pressure ladder probes through this seam
  /// so tests can shrink a disk without filling one.
  virtual std::int64_t free_bytes(const std::string& path) {
    (void)path;
    return -1;
  }
  /// Drops any client-side caching for `path`, so the next read observes
  /// the shared (server) state — the re-verify hook the lease/steal and
  /// recovery paths call before acting on a read that must be current.
  /// Local filesystems are always current (default no-op); RealFs
  /// open+closes the file so an NFS close-to-open mount revalidates;
  /// SharedFsSim drops its simulated view cache.
  virtual void invalidate(const std::string& path) { (void)path; }

  // --- composed helpers (non-virtual: every step goes through the
  //     virtuals above, so faults hit each constituent op) --------------

  /// Durable atomic whole-file write: tmp in the same directory, fsync,
  /// rename over the target, fsync the directory. Readers never observe a
  /// partial file; a crash leaves either the old or the new content.
  void write_file_atomic(const std::string& path, std::string_view data);
};

/// The process-wide real filesystem (what a null `Fs*` resolves to).
Fs& real_fs();

/// read_file with a single retry on ESTALE. The first attempt's failure
/// already dropped the stale binding (SharedFsSim erases the cache entry;
/// a real NFS client rebinds on reopen), so one retry resolves to the
/// current file or a clean miss. Other IoErrors propagate untouched.
bool read_file_retry_estale(Fs& fs, const std::string& path,
                            std::string& out);

/// CRC32C (Castagnoli) of `data`, software table implementation.
/// crc32c("123456789") == 0xE3069283.
std::uint32_t crc32c(std::string_view data);

/// Decorator base: forwards every operation to `base`, calling
/// `before(op, path)` first. `op` is the operation's one name — FaultyFs's
/// trace and fault filters match on it: exists, read, write, append, fsync,
/// link (`path` = the new name), rename (the target), unlink, list, mkdir,
/// syncdir, size, statvfs, invalidate. A decorator overrides the hook and
/// only the ops it changes.
class ForwardingFs : public Fs {
 public:
  explicit ForwardingFs(Fs& base) : base_(base) {}

  bool exists(const std::string& path) override;
  bool read_file(const std::string& path, std::string& out) override;
  void write_file(const std::string& path, std::string_view data) override;
  void append(const std::string& path, std::string_view data) override;
  void fsync_file(const std::string& path) override;
  bool link(const std::string& existing,
            const std::string& link_path) override;
  void rename(const std::string& from, const std::string& to) override;
  bool unlink(const std::string& path) override;
  std::vector<std::string> list(const std::string& dir) override;
  void create_dirs(const std::string& dir) override;
  void sync_dir(const std::string& dir) override;
  std::int64_t file_size(const std::string& path) override;
  std::int64_t free_bytes(const std::string& path) override;
  void invalidate(const std::string& path) override;

 protected:
  virtual void before(const char* /*op*/, const std::string& /*path*/) {}
  Fs& base() { return base_; }

 private:
  /// before, then run: the one body every op forwards through.
  template <typename Run>
  auto forward(const char* op, const std::string& path, Run run);

  Fs& base_;
};

/// One scheduled fault. `at` counts *matching* operations (0-based):
/// with empty filters it is the global op index; with `op`/`path_substr`
/// set it is the N-th append / N-th op touching a lease file / etc., which
/// keeps test schedules stable against unrelated op-sequence changes.
struct InjectedFault {
  enum class Kind { crash, torn, error, delay };

  Kind kind = Kind::crash;
  int at = 0;
  std::string op;           ///< "" = any op name ("append", "fsync", ...)
  std::string path_substr;  ///< "" = any path
  int err = 0;              ///< errno for Kind::error (e.g. EIO, ENOSPC)
  std::size_t keep_bytes = 0;  ///< prefix persisted by a torn append
  bool sticky = false;  ///< fire on every matching op from `at` on
                        ///< (models a persistently failing device /
                        ///< read-only mount instead of a one-shot glitch)
  int delay_ms = 0;     ///< Kind::delay: real milliseconds to stall
  std::int64_t delay_ticks = 0;  ///< Kind::delay: FakeClock seconds to
                                 ///< advance on the tick clock (if set)
};

/// Fault-injecting Fs decorator (see file comment). Deterministic: ops are
/// counted in call order, so a single-threaded caller under a frozen
/// FakeClock replays the same op sequence every run.
class FaultyFs final : public ForwardingFs {
 public:
  explicit FaultyFs(Fs& base) : ForwardingFs(base) {}

  void inject(InjectedFault fault);

  /// Kind::delay support: the clock a firing delay advances by
  /// `delay_ticks` (a stalled op *is* time passing — lease expiries move
  /// under a frozen-clock test without any real sleeping), and a hook run
  /// while the op is stalled (outside the FaultyFs lock, so it may do IO
  /// through another Fs — this is how a test makes a peer steal the
  /// stalled worker's lease mid-hang).
  void set_tick_clock(FakeClock* clock);
  void set_on_stall(std::function<void()> hook);

  /// Total operations observed so far.
  int ops() const;
  /// Faults that have fired so far.
  int faults_fired() const;
  /// Delay faults that have completed their stall so far.
  int stalls() const;
  /// (op, path) per operation, in order — the fault matrix derives its
  /// injection points from a fault-free run's trace.
  std::vector<std::pair<std::string, std::string>> trace() const;

  /// Torn faults land here: a due one persists a prefix, then crashes.
  void append(const std::string& path, std::string_view data) override;

 private:
  struct Armed {
    InjectedFault fault;
    int seen = 0;     ///< matching ops observed so far
    bool fired = false;
  };

  /// Records the op, then fires any due fault: crash/error throw; a due
  /// torn fault returns the byte count to keep, for `append` to execute
  /// (prefix then crash). Only `append` can receive a torn fault; other
  /// ops treat a due torn fault as a crash. A due delay fault stalls
  /// *before* the op runs — tick clock advanced, real sleep, on_stall hook
  /// — all outside the lock, then the op proceeds normally.
  std::optional<std::size_t> check(const char* op, const std::string& path);
  void before(const char* op, const std::string& path) override {
    check(op, path);
  }

  mutable std::mutex mutex_;
  int ops_ = 0;
  int fired_ = 0;
  int stalls_ = 0;
  std::vector<Armed> faults_;
  std::vector<std::pair<std::string, std::string>> trace_;
  FakeClock* tick_clock_ = nullptr;
  std::function<void()> on_stall_;
};

/// Jittered exponential backoff with a deterministic (seeded) jitter
/// stream: delay grows initial, 2*initial, ... capped at `max_ms`, each
/// drawn uniformly from [base/2, base] so contending fleet members desync
/// instead of retrying in lockstep.
class Backoff {
 public:
  Backoff(int initial_ms, int max_ms, std::uint64_t seed);

  /// Next delay in milliseconds (advances the schedule).
  int next_ms();
  /// Back to the initial delay (call after progress).
  void reset();

 private:
  int initial_ms_;
  int max_ms_;
  int base_ms_;
  std::uint64_t state_;
};

}  // namespace dualcast::util
