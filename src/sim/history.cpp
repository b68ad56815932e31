#include "sim/history.hpp"

#include <utility>

#include "util/assert.hpp"

namespace dualcast {
namespace {

std::size_t record_bytes(const RoundRecord& rec) {
  return rec.transmitters.capacity() * sizeof(int) +
         rec.sent.capacity() * sizeof(Message) +
         rec.deliveries.capacity() * sizeof(Delivery) +
         rec.runs.capacity() * sizeof(DeliveryRun) +
         rec.run_skips.capacity() * sizeof(int) +
         rec.activated_mask.capacity() * sizeof(std::uint64_t) +
         sizeof(RoundRecord);
}

}  // namespace

std::int64_t delivery_count(const RoundRecord& record) {
  std::int64_t count = static_cast<std::int64_t>(record.deliveries.size());
  for (const DeliveryRun& run : record.runs) count += run.count;
  return count;
}

const char* to_string(HistoryPolicy policy) {
  switch (policy) {
    case HistoryPolicy::full: return "full";
    case HistoryPolicy::lean: return "lean";
  }
  return "?";
}

void ExecutionHistory::reset(HistoryPolicy policy) {
  policy_ = policy;
  rounds_ = 0;
  total_transmissions_ = 0;
  total_deliveries_ = 0;
  records_.clear();
  last_ = RoundRecord{};
}

const RoundRecord& ExecutionHistory::round(int r) const {
  DC_EXPECTS_MSG(policy_ == HistoryPolicy::full,
                 "per-round history requires HistoryPolicy::full");
  DC_EXPECTS(r >= 0 && r < rounds());
  return records_[static_cast<std::size_t>(r)];
}

const std::vector<RoundRecord>& ExecutionHistory::records() const {
  DC_EXPECTS_MSG(policy_ == HistoryPolicy::full,
                 "per-round history requires HistoryPolicy::full");
  return records_;
}

const RoundRecord& ExecutionHistory::last() const {
  DC_EXPECTS(rounds_ >= 1);
  return policy_ == HistoryPolicy::full ? records_.back() : last_;
}

void ExecutionHistory::push(RoundRecord record) { push_reuse(record); }

void ExecutionHistory::push_reuse(RoundRecord& record) {
  ++rounds_;
  total_transmissions_ += static_cast<std::int64_t>(record.transmitters.size());
  total_deliveries_ += delivery_count(record);
  if (policy_ == HistoryPolicy::full) {
    records_.push_back(std::move(record));
  } else {
    // Keep only the latest record: swap hands the caller back the previous
    // round's buffers, capacity intact, so the trace never grows.
    std::swap(last_, record);
  }
  record.clear();
}

std::size_t ExecutionHistory::approx_bytes() const {
  std::size_t total = record_bytes(last_);
  total += records_.capacity() * sizeof(RoundRecord);
  for (const RoundRecord& rec : records_) total += record_bytes(rec);
  return total;
}

}  // namespace dualcast
