#include "serve/ingest_queue.h"

#include <chrono>
#include <utility>

namespace pulse {
namespace serve {

const char* BackpressurePolicyToString(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock:
      return "block";
    case BackpressurePolicy::kDropOldest:
      return "drop_oldest";
    case BackpressurePolicy::kShed:
      return "shed";
  }
  return "unknown";
}

uint64_t WorkSignal::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

void WorkSignal::Notify() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++epoch_;
  }
  cv_.notify_all();
}

uint64_t WorkSignal::Wait(uint64_t seen) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return epoch_ != seen; });
  return epoch_;
}

IngestQueue::IngestQueue(size_t capacity, WorkSignal* signal)
    : capacity_(capacity == 0 ? 1 : capacity), signal_(signal) {}

PushResult IngestQueue::TryPush(IngestItem* item, BackpressurePolicy policy,
                                uint64_t* dropped) {
  const size_t n = item->size();
  PushResult result = PushResult::kAccepted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return PushResult::kClosed;
    if (depth_ > 0 && depth_ + n > capacity_) {
      switch (policy) {
        case BackpressurePolicy::kBlock:
          return PushResult::kWouldBlock;
        case BackpressurePolicy::kShed:
          return PushResult::kShed;
        case BackpressurePolicy::kDropOldest: {
          // Evict the oldest tuples, just enough for the new frame (all
          // of them when the frame alone exceeds the capacity).
          uint64_t need = n >= capacity_ ? depth_ : depth_ + n - capacity_;
          const uint64_t evicted = need;
          while (need > 0) {
            IngestItem& head = items_.front();
            if (head.size() <= need) {
              need -= head.size();
              depth_ -= head.size();
              items_.pop_front();
            } else {
              head.tuples.erase(head.tuples.begin(),
                                head.tuples.begin() +
                                    static_cast<std::ptrdiff_t>(need));
              head.seq += need;
              depth_ -= need;
              need = 0;
            }
          }
          if (dropped != nullptr) *dropped = evicted;
          result = PushResult::kDroppedOldest;
          break;
        }
      }
    }
    depth_ += n;
    items_.push_back(std::move(*item));
  }
  if (signal_ != nullptr) signal_->Notify();
  return result;
}

bool IngestQueue::PushBlocking(IngestItem item, uint64_t* blocked_ns) {
  const auto start = std::chrono::steady_clock::now();
  const size_t n = item.size();
  {
    std::unique_lock<std::mutex> lock(mu_);
    space_cv_.wait(lock, [&] {
      return closed_ || depth_ == 0 || depth_ + n <= capacity_;
    });
    if (blocked_ns != nullptr) {
      *blocked_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    }
    if (closed_) return false;
    depth_ += n;
    items_.push_back(std::move(item));
  }
  if (signal_ != nullptr) signal_->Notify();
  return true;
}

bool IngestQueue::PeekSeq(uint64_t* seq, bool* is_segment,
                          uint8_t* tier) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (items_.empty()) return false;
  *seq = items_.front().seq;
  if (is_segment != nullptr) *is_segment = items_.front().is_segment;
  if (tier != nullptr) *tier = items_.front().tier;
  return true;
}

bool IngestQueue::Pop(IngestItem* out, uint64_t seq_limit) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty() || items_.front().seq >= seq_limit) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    depth_ -= out->size();
  }
  space_cv_.notify_one();
  return true;
}

size_t IngestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return depth_;
}

void IngestQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  space_cv_.notify_all();
  if (signal_ != nullptr) signal_->Notify();
}

bool IngestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

}  // namespace serve
}  // namespace pulse
