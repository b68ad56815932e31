#include "util/io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/statvfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>

#include "util/rng.hpp"

namespace dualcast::util {
namespace {

namespace stdfs = std::filesystem;

[[noreturn]] void throw_errno(const std::string& what, int err) {
  throw IoError(what + ": " + std::strerror(err), err);
}

/// Full write() loop on an open fd; throws (with errno) on failure.
void write_all(int fd, const std::string& path, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t wrote = ::write(fd, data.data() + off, data.size() - off);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      throw_errno("write " + path, errno);
    }
    off += static_cast<std::size_t>(wrote);
  }
}

class RealFs final : public Fs {
 public:
  bool exists(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  bool read_file(const std::string& path, std::string& out) override {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      if (errno == ENOENT) return false;
      throw_errno("open " + path, errno);
    }
    out.clear();
    char buf[1 << 16];
    for (;;) {
      const ssize_t got = ::read(fd, buf, sizeof(buf));
      if (got < 0) {
        if (errno == EINTR) continue;
        const int err = errno;
        ::close(fd);
        throw_errno("read " + path, err);
      }
      if (got == 0) break;
      out.append(buf, static_cast<std::size_t>(got));
    }
    ::close(fd);
    return true;
  }

  void write_file(const std::string& path, std::string_view data) override {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) throw_errno("create " + path, errno);
    try {
      write_all(fd, path, data);
    } catch (...) {
      ::close(fd);
      throw;
    }
    ::close(fd);
  }

  void append(const std::string& path, std::string_view data) override {
    const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (fd < 0) throw_errno("open " + path + " for append", errno);
    // One write() call: appends of record size are atomic on local
    // filesystems, so concurrent appenders never interleave mid-line.
    struct stat st;
    const std::int64_t before =
        ::fstat(fd, &st) == 0 ? static_cast<std::int64_t>(st.st_size) : -1;
    const ssize_t wrote = ::write(fd, data.data(), data.size());
    const int err = errno;
    if (wrote >= 0 && wrote != static_cast<ssize_t>(data.size())) {
      // Short write: the prefix is already on disk as a torn line. Undo it
      // before reporting the (transient) failure — otherwise the caller's
      // backoff-retry appends the full record *after* the torn bytes and
      // the log carries a permanently garbled line.
      if (before >= 0) ::ftruncate(fd, static_cast<off_t>(before));
      ::close(fd);
      throw IoError("short append to " + path, ENOSPC);
    }
    ::close(fd);
    if (wrote < 0) throw_errno("append " + path, err);
  }

  void fsync_file(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw_errno("open " + path + " for fsync", errno);
    if (::fsync(fd) != 0) {
      const int err = errno;
      ::close(fd);
      throw_errno("fsync " + path, err);
    }
    ::close(fd);
  }

  bool link(const std::string& existing,
            const std::string& link_path) override {
    if (::link(existing.c_str(), link_path.c_str()) == 0) return true;
    if (errno == EEXIST) return false;
    throw_errno("link " + existing + " -> " + link_path, errno);
  }

  void rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      throw_errno("rename " + from + " -> " + to, errno);
    }
  }

  bool unlink(const std::string& path) override {
    if (::unlink(path.c_str()) == 0) return true;
    if (errno == ENOENT) return false;
    throw_errno("unlink " + path, errno);
  }

  std::vector<std::string> list(const std::string& dir) override {
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto& entry : stdfs::directory_iterator(dir, ec)) {
      names.push_back(entry.path().filename().string());
    }
    if (ec && ec != std::errc::no_such_file_or_directory) {
      throw IoError("list " + dir + ": " + ec.message(), ec.value());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  void create_dirs(const std::string& dir) override {
    std::error_code ec;
    stdfs::create_directories(dir, ec);
    if (ec) {
      throw IoError("mkdir " + dir + ": " + ec.message(), ec.value());
    }
  }

  void sync_dir(const std::string& dir) override {
    // Lenient on open failure: some filesystems refuse directory fds; the
    // durability loss is theirs, not a program error.
    const int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd < 0) return;
    ::fsync(fd);
    ::close(fd);
  }

  std::int64_t file_size(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      if (errno == ENOENT) return -1;
      throw_errno("stat " + path, errno);
    }
    return static_cast<std::int64_t>(st.st_size);
  }

  std::int64_t free_bytes(const std::string& path) override {
    struct statvfs vfs;
    if (::statvfs(path.c_str(), &vfs) != 0) return -1;
    return static_cast<std::int64_t>(vfs.f_bavail) *
           static_cast<std::int64_t>(vfs.f_frsize);
  }

  void invalidate(const std::string& path) override {
    // On a close-to-open NFS mount an open()+close() cycle revalidates
    // the client's cached attributes against the server; on a local
    // filesystem it is a harmless no-op. Absent files need nothing.
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

bool IoError::transient() const {
  return code_ == EIO || code_ == EAGAIN || code_ == EINTR ||
         code_ == ENOSPC || code_ == ESTALE || code_ == ETIMEDOUT;
}

bool read_file_retry_estale(Fs& fs, const std::string& path,
                            std::string& out) {
  try {
    return fs.read_file(path, out);
  } catch (const IoError& error) {
    if (error.code() != ESTALE) throw;
    return fs.read_file(path, out);
  }
}

void Fs::write_file_atomic(const std::string& path, std::string_view data) {
  static std::atomic<unsigned> seq{0};
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<long>(::getpid())) +
                          "." + std::to_string(seq.fetch_add(1));
  try {
    write_file(tmp, data);
    fsync_file(tmp);
    rename(tmp, path);
  } catch (...) {
    try {
      unlink(tmp);
    } catch (...) {
      // Best-effort cleanup; the original failure is what matters.
    }
    throw;
  }
  const std::size_t slash = path.find_last_of('/');
  sync_dir(slash == std::string::npos ? std::string(".")
                                      : path.substr(0, slash));
}

Fs& real_fs() {
  static RealFs fs;
  return fs;
}

std::uint32_t crc32c(std::string_view data) {
  // CRC32C (Castagnoli), reflected polynomial 0x82F63B78 — the checksum
  // used by iSCSI/ext4; distinct from zlib's CRC32 so accidental reuse of
  // the wrong implementation shows up immediately in tests.
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char c : data) {
    crc = (crc >> 8) ^ table[(crc ^ static_cast<unsigned char>(c)) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

void FaultyFs::inject(InjectedFault fault) {
  const std::lock_guard<std::mutex> lock(mutex_);
  faults_.push_back(Armed{std::move(fault), 0, false});
}

int FaultyFs::ops() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ops_;
}

int FaultyFs::faults_fired() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return fired_;
}

int FaultyFs::stalls() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stalls_;
}

void FaultyFs::set_tick_clock(FakeClock* clock) {
  const std::lock_guard<std::mutex> lock(mutex_);
  tick_clock_ = clock;
}

void FaultyFs::set_on_stall(std::function<void()> hook) {
  const std::lock_guard<std::mutex> lock(mutex_);
  on_stall_ = std::move(hook);
}

std::vector<std::pair<std::string, std::string>> FaultyFs::trace() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return trace_;
}

std::optional<std::size_t> FaultyFs::check(const char* op,
                                           const std::string& path) {
  // Phase 1 (locked): record the op, decide what fires. Delay faults only
  // accumulate here; the stall itself runs after the lock is dropped so
  // the on_stall hook may do filesystem work (a peer stealing the stalled
  // worker's lease) without deadlocking against this FaultyFs.
  int delay_ms = 0;
  std::int64_t delay_ticks = 0;
  std::optional<std::size_t> torn;
  enum class Throw { none, error, crash } pending = Throw::none;
  int error_code = 0;
  std::string where;
  FakeClock* tick_clock = nullptr;
  std::function<void()> on_stall;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const int index = ops_++;
    trace_.emplace_back(op, path);
    for (Armed& armed : faults_) {
      if (armed.fired && !armed.fault.sticky) continue;
      if (!armed.fault.op.empty() && armed.fault.op != op) continue;
      if (!armed.fault.path_substr.empty() &&
          path.find(armed.fault.path_substr) == std::string::npos) {
        continue;
      }
      const int match = armed.seen++;
      if (match < armed.fault.at) continue;
      armed.fired = true;
      ++fired_;
      where = std::string(op) + " " + path + " (op " + std::to_string(index) +
              ")";
      if (armed.fault.kind == InjectedFault::Kind::delay) {
        delay_ms += armed.fault.delay_ms;
        delay_ticks += armed.fault.delay_ticks;
        continue;  // composable: a later crash/error may also be due
      }
      switch (armed.fault.kind) {
        case InjectedFault::Kind::error:
          pending = Throw::error;
          error_code = armed.fault.err;
          break;
        case InjectedFault::Kind::torn:
          if (std::string_view(op) == "append") {
            torn = armed.fault.keep_bytes;
            break;
          }
          [[fallthrough]];
        case InjectedFault::Kind::crash:
        case InjectedFault::Kind::delay:  // unreachable; silences -Wswitch
          pending = Throw::crash;
          break;
      }
      break;  // first throwing/torn fault wins, as before
    }
    tick_clock = tick_clock_;
    on_stall = on_stall_;
  }
  // Phase 2 (unlocked): execute the stall, then any scheduled failure.
  if (delay_ms > 0 || delay_ticks > 0) {
    if (tick_clock != nullptr && delay_ticks > 0) {
      tick_clock->advance(delay_ticks);
    }
    if (delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    if (on_stall) on_stall();
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stalls_;
  }
  if (pending == Throw::error) {
    throw IoError("injected fault at " + where, error_code);
  }
  if (pending == Throw::crash) {
    throw InjectedCrash("injected crash at " + where);
  }
  return torn;
}

template <typename Run>
auto ForwardingFs::forward(const char* op, const std::string& path, Run run) {
  before(op, path);
  return run();
}

bool ForwardingFs::exists(const std::string& path) {
  return forward("exists", path, [&] { return base_.exists(path); });
}

bool ForwardingFs::read_file(const std::string& path, std::string& out) {
  return forward("read", path, [&] { return base_.read_file(path, out); });
}

void ForwardingFs::write_file(const std::string& path, std::string_view data) {
  forward("write", path, [&] { base_.write_file(path, data); });
}

void ForwardingFs::append(const std::string& path, std::string_view data) {
  forward("append", path, [&] { base_.append(path, data); });
}

void ForwardingFs::fsync_file(const std::string& path) {
  forward("fsync", path, [&] { base_.fsync_file(path); });
}

bool ForwardingFs::link(const std::string& existing,
                        const std::string& link_path) {
  return forward("link", link_path,
                 [&] { return base_.link(existing, link_path); });
}

void ForwardingFs::rename(const std::string& from, const std::string& to) {
  forward("rename", to, [&] { base_.rename(from, to); });
}

bool ForwardingFs::unlink(const std::string& path) {
  return forward("unlink", path, [&] { return base_.unlink(path); });
}

std::vector<std::string> ForwardingFs::list(const std::string& dir) {
  return forward("list", dir, [&] { return base_.list(dir); });
}

void ForwardingFs::create_dirs(const std::string& dir) {
  forward("mkdir", dir, [&] { base_.create_dirs(dir); });
}

void ForwardingFs::sync_dir(const std::string& dir) {
  forward("syncdir", dir, [&] { base_.sync_dir(dir); });
}

std::int64_t ForwardingFs::file_size(const std::string& path) {
  return forward("size", path, [&] { return base_.file_size(path); });
}

std::int64_t ForwardingFs::free_bytes(const std::string& path) {
  return forward("statvfs", path, [&] { return base_.free_bytes(path); });
}

void ForwardingFs::invalidate(const std::string& path) {
  forward("invalidate", path, [&] { base_.invalidate(path); });
}

void FaultyFs::append(const std::string& path, std::string_view data) {
  const std::optional<std::size_t> torn = check("append", path);
  if (torn.has_value()) {
    // Torn write: persist a prefix, then die — exactly what a crash in the
    // middle of a non-atomic append leaves on disk.
    base().append(path, data.substr(0, std::min(*torn, data.size())));
    throw InjectedCrash("injected torn append to " + path);
  }
  base().append(path, data);
}

Backoff::Backoff(int initial_ms, int max_ms, std::uint64_t seed)
    : initial_ms_(initial_ms < 1 ? 1 : initial_ms),
      max_ms_(max_ms < initial_ms_ ? initial_ms_ : max_ms),
      base_ms_(initial_ms_),
      state_(seed != 0 ? seed : 0x9E3779B97F4A7C15ull) {}

int Backoff::next_ms() {
  const int base = base_ms_;
  base_ms_ = base_ms_ > max_ms_ / 2 ? max_ms_ : base_ms_ * 2;
  const int half = base / 2;
  if (half == 0) return base;
  const std::uint64_t draw = splitmix64(state_);
  return base - half +
         static_cast<int>(draw % (static_cast<std::uint64_t>(half) + 1));
}

void Backoff::reset() { base_ms_ = initial_ms_; }

}  // namespace dualcast::util
