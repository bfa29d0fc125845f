#include "serve/batch_former.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace tvmec::serve {

BatchFormer::BatchFormer(const BatchPolicy& policy) : policy_(policy) {
  if (policy.queue_capacity == 0)
    throw std::invalid_argument("BatchFormer: queue_capacity must be >= 1");
  if (policy.max_batch_requests == 0)
    throw std::invalid_argument(
        "BatchFormer: max_batch_requests must be >= 1");
  if (policy.max_batch_bytes == 0)
    throw std::invalid_argument("BatchFormer: max_batch_bytes must be >= 1");
}

PushResult BatchFormer::push(PendingRequest request) {
  {
    std::lock_guard lock(mutex_);
    if (closed_) return PushResult::Closed;
    // Shedding before the capacity checks: a doomed request should not
    // even contend for a queue slot. now + wait ewma + service ewma is
    // the predicted moment this request would *complete*; if that is
    // already past its deadline, queueing it only manufactures an
    // Expired later (or worse, an Ok that arrives after the client
    // stopped caring). Predicting completion rather than
    // start-of-service matters under sustained overload: the queue
    // settles exactly at the admission margin, so a predictor without
    // the service term admits requests that then systematically finish
    // one batch-service time late.
    if (policy_.deadline_shedding &&
        request.req.deadline != Clock::time_point::max()) {
      const auto now = Clock::now();
      if (now > request.req.deadline) return PushResult::Shed;
      if (now + wait_ewma_ + service_ewma_ > request.req.deadline) {
        // Liveness probe: the wait EWMA only refreshes at pop time, so
        // if the estimates ever predict doom for everyone, nothing
        // queues, nothing pops, and a stale estimate sheds forever even
        // after the backlog is long gone. A not-yet-expired request
        // arriving at an *empty* queue is admitted as a probe (at most
        // one per service interval); its pop observes the true ~zero
        // wait and walks the estimate back down.
        if (total_ != 0 || now - last_probe_ < service_ewma_)
          return PushResult::Shed;
        last_probe_ = now;
      }
    }
    if (total_ >= policy_.queue_capacity) return PushResult::QueueFull;
    const BatchClass cls{request.req.kind, request.req.key};
    // Fairness cap: look the lane up before creating it so a rejected
    // push cannot leave an empty lane behind.
    if (policy_.lane_capacity > 0) {
      const auto it = lanes_.find(cls);
      if (it != lanes_.end() &&
          it->second.queue.size() >= policy_.lane_capacity)
        return PushResult::QueueFull;
    }
    request.seq = next_seq_++;
    Lane& lane = lanes_[cls];
    lane.bytes += request.payload_bytes;
    lane.queue.push_back(std::move(request));
    ++total_;
  }
  work_cv_.notify_one();
  return PushResult::Accepted;
}

BatchFormer::LaneMap::iterator BatchFormer::oldest_lane_locked() {
  // O(lanes) scan; a service typically serves a handful of codec shapes,
  // so lanes_ stays tiny. Every lane queue is FIFO, so the lane with the
  // smallest head seq holds the globally oldest request.
  auto oldest = lanes_.end();
  for (auto it = lanes_.begin(); it != lanes_.end(); ++it) {
    if (it->second.queue.empty()) continue;
    if (oldest == lanes_.end() ||
        it->second.queue.front().seq < oldest->second.queue.front().seq)
      oldest = it;
  }
  return oldest;
}

std::vector<PendingRequest> BatchFormer::pop_batch_locked(
    LaneMap::iterator it) {
  Lane& lane = it->second;
  std::vector<PendingRequest> batch;
  std::size_t bytes = 0;
  while (!lane.queue.empty() && batch.size() < policy_.max_batch_requests) {
    const std::size_t next_bytes = lane.queue.front().payload_bytes;
    // The head request is always taken — an oversized request bypasses
    // coalescing as a batch of one rather than being unservable.
    if (!batch.empty() && bytes + next_bytes > policy_.max_batch_bytes) break;
    bytes += next_bytes;
    lane.bytes -= next_bytes;
    batch.push_back(std::move(lane.queue.front()));
    lane.queue.pop_front();
  }
  total_ -= batch.size();
  if (lane.queue.empty()) lanes_.erase(it);
  // Feed the shedding signal: one clock read per batch, one EWMA step
  // per popped request (so a batch of n moves the estimate n steps, the
  // same weight n sequential pops would have).
  if (!batch.empty()) {
    const auto now = Clock::now();
    for (const PendingRequest& p : batch) {
      const std::chrono::nanoseconds wait = now - p.submitted;
      wait_ewma_ += (wait - wait_ewma_) / 8;
    }
  }
  return batch;
}

bool BatchFormer::wait_for_work(std::chrono::nanoseconds timeout) const {
  std::unique_lock lock(mutex_);
  work_cv_.wait_for(lock, timeout, [&] { return total_ > 0 || closed_; });
  return total_ > 0;
}

bool BatchFormer::try_next_batch(std::vector<PendingRequest>& out) {
  std::lock_guard lock(mutex_);
  if (total_ == 0) return false;
  out = pop_batch_locked(oldest_lane_locked());
  return true;
}

void BatchFormer::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  work_cv_.notify_all();
}

bool BatchFormer::closed() const {
  std::lock_guard lock(mutex_);
  return closed_;
}

std::vector<PendingRequest> BatchFormer::drain_all() {
  std::lock_guard lock(mutex_);
  std::vector<PendingRequest> out;
  out.reserve(total_);
  for (auto& [cls, lane] : lanes_) {
    for (PendingRequest& p : lane.queue) out.push_back(std::move(p));
  }
  lanes_.clear();
  total_ = 0;
  // Preserve admission order across lanes for deterministic accounting.
  std::sort(out.begin(), out.end(),
            [](const PendingRequest& a, const PendingRequest& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::size_t BatchFormer::pending() const {
  std::lock_guard lock(mutex_);
  return total_;
}

std::chrono::nanoseconds BatchFormer::queue_wait_ewma() const {
  std::lock_guard lock(mutex_);
  return wait_ewma_;
}

void BatchFormer::note_service_time(std::chrono::nanoseconds observed) {
  std::lock_guard lock(mutex_);
  service_ewma_ += (observed - service_ewma_) / 8;
}

std::chrono::nanoseconds BatchFormer::service_time_ewma() const {
  std::lock_guard lock(mutex_);
  return service_ewma_;
}

}  // namespace tvmec::serve
