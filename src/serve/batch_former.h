#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "serve/request.h"

/// Admission control + batch formation: the queue between submitters and
/// the threads that pump the service.
///
/// The structure is a bounded multi-producer multi-consumer queue that
/// is *class-aware*: requests land in per-(kind, codec-key) FIFO lanes,
/// and a consumer drains a contiguous run of the oldest lane — up to the
/// request/byte caps — as one batch. Compatible small requests therefore
/// leave as a single enlarged-N GEMM while order across lanes stays
/// admission-FIFO (the lane whose head request is oldest is always
/// served first, so no class can be starved).
///
/// Lock-light by design rather than lock-free: producers take the mutex
/// once per push (no waiting — a full queue rejects immediately, which
/// is the backpressure contract), and consumers take it once per *batch*
/// rather than once per request, so the lock is touched O(batches) not
/// O(requests) on the drain side.
namespace tvmec::serve {

struct BatchPolicy {
  /// Total queued requests across all lanes; pushes beyond this are
  /// rejected (admission control).
  std::size_t queue_capacity = 1024;
  /// Coalescing caps: a batch never exceeds this many requests...
  std::size_t max_batch_requests = 32;
  /// ...nor this many payload bytes — except that the head request is
  /// always taken, so a single oversized request bypasses coalescing and
  /// forms a batch of one.
  std::size_t max_batch_bytes = std::size_t{8} << 20;
  /// Per-lane queued-request cap (fairness): one hot (kind, key) class
  /// cannot occupy more than this many queue slots, so other classes
  /// always find room under sustained single-class overload.
  /// 0 = unlimited (only the global queue_capacity applies).
  std::size_t lane_capacity = 0;
  /// CoDel-style deadline shedding: when enabled, a request whose
  /// deadline is already unmeetable given the current estimates — now +
  /// queue-wait EWMA + service-time EWMA > deadline, i.e. the predicted
  /// *completion* moment, not just the predicted start of service — is
  /// rejected at admission (PushResult::Shed) instead of queueing, doing
  /// dead work, and expiring later. Under sustained overload this
  /// converts would-be-expired work into cheap early rejections, which
  /// is what keeps goodput up.
  bool deadline_shedding = false;
};

enum class PushResult {
  Accepted,   ///< queued
  QueueFull,  ///< rejected: capacity reached (complete as Overloaded)
  Closed,     ///< rejected: former closed (complete as Shutdown)
  Shed,       ///< rejected: predicted deadline miss (complete as Shed)
};

class BatchFormer {
 public:
  /// Throws std::invalid_argument on a zero capacity or zero caps.
  explicit BatchFormer(const BatchPolicy& policy);

  /// Admission: O(log lanes) under the mutex, never blocks.
  PushResult push(PendingRequest request);

  /// Forms one batch from the oldest lane into `out` without blocking;
  /// false when nothing is queued. All requests of a batch share (kind,
  /// key). Queued work stays poppable after close() (drain-on-shutdown).
  bool try_next_batch(std::vector<PendingRequest>& out);

  /// Blocks until at least one request is queued, the former closes, or
  /// `timeout` elapses; true when work is available, so false with the
  /// former closed means closed *and* drained. The sharded front's
  /// workers use this as their idle wait — bounded, so a worker whose
  /// own queue is empty still wakes up to scan neighbors for stealable
  /// load instead of parking forever.
  bool wait_for_work(std::chrono::nanoseconds timeout) const;

  /// Closes the queue: subsequent pushes fail with Closed, blocked
  /// consumers wake. Queued requests stay poppable (drain-on-shutdown).
  void close();
  bool closed() const;

  /// Removes and returns everything still queued (shutdown-without-drain
  /// completes these as Shutdown).
  std::vector<PendingRequest> drain_all();

  std::size_t pending() const;
  const BatchPolicy& policy() const noexcept { return policy_; }

  /// Current queue-wait estimate (EWMA over popped requests, alpha=1/8).
  /// This is half the signal deadline shedding compares against.
  std::chrono::nanoseconds queue_wait_ewma() const;

  /// Feed one observed batch-service time (formation to completion).
  /// The owner (EcService) reports each executed batch here; without it
  /// the shedder would admit requests predicted to *start* service just
  /// before their deadline and then systematically finish one
  /// batch-service time late.
  void note_service_time(std::chrono::nanoseconds observed);

  /// Current batch-service estimate (EWMA, alpha=1/8).
  std::chrono::nanoseconds service_time_ewma() const;

 private:
  /// One coalescing lane: requests of equal (kind, key).
  struct BatchClass {
    RequestKind kind;
    CodecKey key;
    friend auto operator<=>(const BatchClass&, const BatchClass&) = default;
  };
  struct Lane {
    std::deque<PendingRequest> queue;
    std::size_t bytes = 0;  ///< sum of queued payload_bytes
  };

  using LaneMap = std::map<BatchClass, Lane>;

  LaneMap::iterator oldest_lane_locked();
  std::vector<PendingRequest> pop_batch_locked(LaneMap::iterator it);

  const BatchPolicy policy_;
  mutable std::mutex mutex_;
  mutable std::condition_variable work_cv_;  ///< wait_for_work is const
  LaneMap lanes_;
  std::size_t total_ = 0;
  std::uint64_t next_seq_ = 0;
  bool closed_ = false;
  /// Queue-wait EWMA in integer nanoseconds, updated at pop time:
  /// ewma += (wait - ewma) / 8. Signed so the delta math stays exact.
  std::chrono::nanoseconds wait_ewma_{0};
  /// Batch-service EWMA, fed by the owner via note_service_time().
  std::chrono::nanoseconds service_ewma_{0};
  /// When the last empty-queue liveness probe was admitted past a
  /// shed-predicting estimate (see push()).
  Clock::time_point last_probe_{};
};

}  // namespace tvmec::serve
