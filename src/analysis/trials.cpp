#include "analysis/trials.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "util/assert.hpp"

namespace dualcast {
namespace {

std::atomic<std::uint64_t> g_trials_executed{0};

}  // namespace

std::uint64_t trials_executed() {
  return g_trials_executed.load(std::memory_order_relaxed);
}

void note_trial_executed() {
  g_trials_executed.fetch_add(1, std::memory_order_relaxed);
}

void run_tasks(int count, int threads, const std::function<void(int)>& fn) {
  DC_EXPECTS(count >= 0);
  DC_EXPECTS(fn != nullptr);
  if (count == 0) return;
  if (threads <= 1 || count == 1) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }
  // A task that throws must propagate to the caller exactly as in the
  // sequential path, not escape a thread entry point (std::terminate): the
  // first exception is captured, the remaining tasks drain, and it is
  // rethrown after the join.
  std::atomic<int> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto worker = [&] {
    for (int i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      if (failed.load()) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true);
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  const int workers = threads < count ? threads : count;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

CensoredTrials censor_trials(std::vector<double> values, double cap) {
  CensoredTrials out;
  out.values = std::move(values);
  for (double& value : out.values) {
    if (value < 0.0) {
      ++out.failures;
      value = cap;
    }
  }
  out.median = quantile(out.values, 0.5);
  out.p95 = quantile(out.values, 0.95);
  return out;
}

}  // namespace dualcast
