#pragma once

// Injectable wall-clock time.
//
// Every component that compares timestamps against the wall clock — lease
// expiry, heartbeat cadence, cache LRU ordering — reads time through a
// `Clock` so tests can replace it with a `FakeClock` and reproduce stale
// leases, clock skew between fleet members, and heartbeat renewal without
// sleeping. Production code resolves a null clock to `system_clock()`.
//
// Granularity is whole seconds on purpose: lease files carry unix-second
// expiries so two machines sharing an NFS directory only need their clocks
// to agree to the second, and fake time stays trivially printable.

#include <atomic>
#include <cstdint>
#include <ctime>

namespace dualcast::util {

class Clock {
 public:
  virtual ~Clock() = default;
  virtual std::int64_t now_seconds() = 0;
};

class SystemClock final : public Clock {
 public:
  std::int64_t now_seconds() override {
    return static_cast<std::int64_t>(::time(nullptr));
  }
};

/// The process-wide real clock (what a null `Clock*` resolves to).
inline Clock& system_clock() {
  static SystemClock clock;
  return clock;
}

/// A fixed-offset view of another clock: one fleet member's skewed wall
/// clock (`daemon --clock-skew`). The offset may be negative; whether
/// lease TTLs tolerate it is exactly what the multi-box drills probe.
class OffsetClock final : public Clock {
 public:
  OffsetClock(Clock& base, std::int64_t offset_seconds)
      : base_(base), offset_(offset_seconds) {}

  std::int64_t now_seconds() override {
    return base_.now_seconds() + offset_;
  }

 private:
  Clock& base_;
  std::int64_t offset_;
};

/// Test clock: time is an atomic counter that only moves when the test
/// moves it. Two FakeClocks started at different values model clock skew
/// between fleet members; a frozen FakeClock keeps background heartbeats
/// quiescent so fault-injection op counts stay deterministic.
class FakeClock final : public Clock {
 public:
  explicit FakeClock(std::int64_t start = 0) : now_(start) {}

  std::int64_t now_seconds() override { return now_.load(); }

  void set(std::int64_t now) { now_.store(now); }
  void advance(std::int64_t seconds) { now_.fetch_add(seconds); }

 private:
  std::atomic<std::int64_t> now_;
};

}  // namespace dualcast::util
