#include "service/worker.hpp"

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <ostream>
#include <thread>

#include "util/strfmt.hpp"

namespace dualcast::service {
namespace {

/// RAII lease heartbeat: a background thread renews `shard`'s lease for
/// `owner` whenever TTL/3 seconds (per the store's clock) have elapsed
/// since the last renewal attempt. With a frozen FakeClock the thread
/// stays quiescent — renewal never becomes due — which keeps
/// fault-injection op traces single-threaded and deterministic.
///
/// Renewals are *progress-gated*: a due renewal is skipped unless the
/// worker stamped `last_progress` within the last interval. A healthy
/// worker advances its record watermark and keeps its lease; a fail-slow
/// worker — hung in an IO op or wedged in compute — stops earning
/// renewals, its lease lapses within one TTL, and a peer can steal the
/// shard. The worker's fence check (below) closes the loop on wake-up.
///
/// Renewal IoErrors are swallowed: a missed heartbeat only risks a (safe,
/// idempotent) steal. `InjectedCrash` is *not* caught — it is not an
/// IoError by design ("crashes are never swallowed"); letting it escape
/// the thread calls std::terminate, which is exactly what a fault
/// scheduled on a renew op means: the process dies there.
class LeaseHeartbeat {
 public:
  LeaseHeartbeat(JobStore& store, int shard, std::string owner,
                 const std::atomic<std::int64_t>* last_progress)
      : store_(store),
        shard_(shard),
        owner_(std::move(owner)),
        progress_(last_progress),
        interval_(store.spec().lease_ttl_seconds / 3 > 1
                      ? store.spec().lease_ttl_seconds / 3
                      : 1),
        last_(store.clock().now_seconds()),
        renewed_(last_),
        thread_([this] { run(); }) {}

  LeaseHeartbeat(const LeaseHeartbeat&) = delete;
  LeaseHeartbeat& operator=(const LeaseHeartbeat&) = delete;

  ~LeaseHeartbeat() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  /// Clock time of the last successful-looking renewal (or the claim, at
  /// construction). The worker's fence check compares this against the
  /// TTL: if a full TTL passed without a renewal, the lease may have
  /// lapsed and ownership must be re-verified before any further append.
  std::int64_t last_renewal() const { return renewed_.load(); }
  /// Worker-side stamp after it re-verified ownership itself (the fence
  /// check's try_lease doubles as a renewal).
  void note_renewal(std::int64_t now) { renewed_.store(now); }
  /// Due renewals skipped by the progress gate so far.
  int skipped() const { return skips_.load(); }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      // Short quanta so destruction (worker done, crashed, or stopping)
      // never waits a full heartbeat interval.
      cv_.wait_for(lock, std::chrono::milliseconds(20));
      if (stop_) break;
      const std::int64_t now = store_.clock().now_seconds();
      if (now - last_ < interval_) continue;
      last_ = now;
      // Progress gate: one decision per due interval (last_ advances
      // either way, so a frozen clock sees exactly one skip per jump).
      if (progress_ != nullptr && now - progress_->load() >= interval_) {
        skips_.fetch_add(1);
        continue;
      }
      lock.unlock();
      try {
        store_.renew_lease(shard_, owner_);
        renewed_.store(store_.clock().now_seconds());
      } catch (const util::IoError&) {
        // Best-effort (see class comment). Anything else — notably
        // InjectedCrash — escapes and terminates, as a crash must.
      }
      lock.lock();
    }
  }

  JobStore& store_;
  const int shard_;
  const std::string owner_;
  const std::atomic<std::int64_t>* progress_;
  const std::int64_t interval_;
  std::int64_t last_;
  std::atomic<std::int64_t> renewed_;
  std::atomic<int> skips_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

bool stop_requested(const WorkerOptions& options) {
  return options.stop != nullptr && options.stop->load();
}

}  // namespace

JobRuntime::JobRuntime(const JobStore& store) {
  options_ = store.spec().run_options();
  const std::vector<std::string>& names = store.spec().scenario_names;
  plans_.resize(names.size());
  offsets_.assign(1, 0);
  for (std::size_t s = 0; s < names.size(); ++s) {
    scenario::prepare_plan(
        plans_[s],
        scenario::apply_options(scenario::scenarios().get(names[s]),
                                options_),
        options_);
    offsets_.push_back(offsets_.back() + plans_[s].tasks());
  }
}

double JobRuntime::measure(int task) const {
  std::size_t s = 0;
  while (task >= offsets_[s + 1]) ++s;
  return scenario::measure_plan_task(plans_[s], task - offsets_[s],
                                     options_);
}

WorkerReport run_worker(JobStore& store, const JobRuntime& runtime,
                        const WorkerOptions& options) {
  WorkerReport report;
  const std::string owner =
      options.owner.empty() ? str("pid", static_cast<long>(::getpid()))
                            : options.owner;
  util::Backoff backoff(options.backoff_initial_ms, options.backoff_max_ms,
                        scenario::fnv1a64(owner));
  // Retry transient IO errors (EIO, ENOSPC, ...) with jittered backoff;
  // anything else — including InjectedCrash, which is not an IoError by
  // design — propagates and unwinds the worker like a kill.
  const auto with_retry = [&](const auto& io_op) {
    for (int attempt = 0;; ++attempt) {
      try {
        io_op();
        backoff.reset();
        return;
      } catch (const util::IoError& e) {
        if (!e.transient() || attempt >= options.io_retries) throw;
        if (options.log != nullptr) {
          *options.log << "worker " << owner << ": transient IO error ("
                       << e.what() << "), retrying\n";
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(backoff.next_ms()));
      }
    }
  };

  const auto note_repair = [&](const ShardScan& scan) {
    ++report.shards_repaired;
    if (options.log != nullptr) {
      *options.log << "worker " << owner << ": repaired " << scan.damage()
                   << "; recomputing from watermark\n";
    }
  };
  // Corrupt shard logs block both workers (bad watermark) and the merger,
  // and a done marker the log falls short of blocks the shard for good;
  // repair both up front so this run recomputes from the good prefix.
  // Repairs run under a per-shard lease so a stale view of a log another
  // machine is appending to can't be clobbered.
  if (options.recover) {
    for (const ShardScan& scan : store.recover_all(owner)) note_repair(scan);
  }

  const int shards = store.shard_count();
  for (;;) {
    if (stop_requested(options)) {
      report.stopped = true;
      break;
    }
    // Claim pass: first incomplete shard (in claim order) whose lease we
    // can take. A full sweep with no claim means every remaining shard is
    // done or validly leased to a live worker — this worker's job is over
    // (a later `worker` invocation picks up anything an expired lease
    // leaves behind).
    int claimed = -1;
    bool stole = false;
    const auto try_claim = [&](int s) {
      if (s < 0 || s >= shards || store.shard_done(s)) return;
      if (store.try_lease(s, owner, &stole)) claimed = s;
    };
    if (options.shard_order.empty()) {
      for (int s = 0; s < shards && claimed < 0; ++s) try_claim(s);
    } else {
      for (std::size_t i = 0;
           i < options.shard_order.size() && claimed < 0; ++i) {
        try_claim(options.shard_order[i]);
      }
    }
    if (claimed < 0) break;
    if (stole) {
      ++report.leases_stolen;
      if (options.log != nullptr) {
        *options.log << "worker " << owner
                     << ": stole expired lease on shard " << claimed << "\n";
      }
    }

    // Replay the claimed shard's log for the resume watermark. We hold the
    // lease, so recover_shard is race-free here: it reads fresh (a stale
    // cached view could miss a crashed worker's torn tail, and the next
    // append would concatenate onto the partial line), trims any torn
    // tail, and repairs a log that went corrupt since the entry sweep.
    const ShardScan scan = store.recover_shard(claimed);
    if (scan.corrupt) note_repair(scan);
    const auto [begin, end] = store.shard_range(claimed);
    std::vector<bool> recorded(static_cast<std::size_t>(end - begin), false);
    for (const TaskRecord& record : scan.records) {
      if (record.task >= begin && record.task < end) {
        recorded[static_cast<std::size_t>(record.task - begin)] = true;
      }
    }
    if (options.log != nullptr) {
      *options.log << "worker " << owner << ": leased shard " << claimed
                   << " [" << begin << "," << end << ")\n";
    }
    bool fenced_off = false;
    {
      // The progress watermark the heartbeat gates on: stamped at claim
      // and after every durable append. A worker hung in measure() or in
      // a stalled IO op stops stamping, the heartbeat stops renewing, and
      // the lease lapses within one TTL so a peer can steal.
      std::atomic<std::int64_t> last_progress{store.clock().now_seconds()};
      LeaseHeartbeat heartbeat(store, claimed, owner, &last_progress);
      const std::int64_t ttl = store.spec().lease_ttl_seconds;
      for (int task = begin; task < end; ++task) {
        if (recorded[static_cast<std::size_t>(task - begin)]) {
          ++report.tasks_skipped;
          continue;
        }
        if (stop_requested(options)) {
          // Clean abandon: records appended so far are fsync'd and stay;
          // releasing the lease hands the rest of the shard to the next
          // worker without waiting out the TTL.
          store.release_lease(claimed, owner);
          report.stopped = true;
          report.heartbeats_skipped += heartbeat.skipped();
          if (options.log != nullptr) {
            *options.log << "worker " << owner << ": stop requested; "
                         << "released shard " << claimed << " before task "
                         << task << "\n";
          }
          return report;
        }
        // Self-fencing: if a full TTL passed with no renewal (we were
        // stalled and the progress gate withheld heartbeats), the lease
        // may have lapsed and a peer may own — or have completed — this
        // shard. Re-verify before any further append. try_lease with our
        // own token renews when we still hold it, re-acquires when the
        // lapsed lease was cleared but never taken, and refuses when a
        // thief holds a live lease. This extends the no-double-execution
        // argument to wake-after-steal: a fenced worker abandons the
        // shard before executing another task, and any append that raced
        // the steal is an idempotent record the merger deduplicates.
        if (ttl > 0) {
          const std::int64_t now = store.clock().now_seconds();
          if (now - heartbeat.last_renewal() >= ttl) {
            const bool fenced = store.shard_done(claimed) ||
                                !store.try_lease(claimed, owner, nullptr);
            if (fenced) {
              ++report.shards_fenced;
              fenced_off = true;
              if (options.log != nullptr) {
                *options.log << "worker " << owner << ": fenced off shard "
                             << claimed
                             << " (lease lapsed while stalled)\n";
              }
              break;
            }
            heartbeat.note_renewal(store.clock().now_seconds());
          }
        }
        const TaskRecord record{task, runtime.measure(task)};
        with_retry([&] { store.append_record(claimed, record); });
        last_progress.store(store.clock().now_seconds());
        ++report.tasks_executed;
      }
      if (!fenced_off) {
        with_retry([&] { store.mark_shard_done(claimed); });
      }
      report.heartbeats_skipped += heartbeat.skipped();
    }
    if (fenced_off) {
      // The shard belongs to whoever took the lapsed lease: leave their
      // lease alone and move on.
      continue;
    }
    store.release_lease(claimed, owner);
    ++report.shards_completed;
    if (options.log != nullptr) {
      *options.log << "worker " << owner << ": completed shard " << claimed
                   << "\n";
    }
    if (options.max_shards >= 0 &&
        report.shards_completed >= options.max_shards) {
      break;
    }
  }
  return report;
}

}  // namespace dualcast::service
