#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ec/reed_solomon.h"
#include "tensor/cancel.h"

/// Request/result types of the serving layer.
///
/// A submission is asynchronous: submit() enqueues the request and
/// returns an EcFuture immediately; the batch-forming workers complete
/// it later (or the admission controller completes it on the spot with a
/// rejection). The caller owns every buffer a request references and
/// must keep them alive and untouched until the future is ready — the
/// standard async-I/O contract, chosen so the service can pack payloads
/// straight from caller memory into the batched GEMM without an extra
/// copy per request.
namespace tvmec::serve {

using Clock = std::chrono::steady_clock;

enum class RequestKind : std::uint8_t { Encode, Decode };

/// Identifies the tenant a request is billed to (QoS accounting and
/// weighted fair shares in the sharded front). Tenant 0 is the default
/// tenant every plain submission lands on; ids are opaque otherwise.
using TenantId = std::uint64_t;

enum class RequestStatus : std::uint8_t {
  Pending,     ///< not yet completed (only observable via EcFuture::ready)
  Ok,          ///< executed successfully
  Overloaded,  ///< rejected at admission: the bounded queue was full
  Expired,     ///< deadline passed before the request reached a batch
  Shutdown,    ///< service stopped before the request executed
  Failed,      ///< execution threw; see EcResult::error
  Cancelled,   ///< client cancelled via EcFuture::cancel before completion
  Shed,        ///< rejected at admission: queue-wait estimate implied a
               ///< deadline miss (BatchPolicy::deadline_shedding)
};

const char* to_string(RequestStatus s) noexcept;

/// Identifies the codec a request runs against. The service instantiates
/// (and caches) one Codec per distinct key; only requests with equal
/// keys and equal kinds coalesce into a batch.
struct CodecKey {
  std::size_t k = 4;
  std::size_t r = 2;
  unsigned w = 8;
  ec::RsFamily family = ec::RsFamily::CauchyGood;

  std::size_t n() const noexcept { return k + r; }
  friend auto operator<=>(const CodecKey&, const CodecKey&) = default;
};

/// Completion record of one request, including its latency breakdown.
struct EcResult {
  RequestStatus status = RequestStatus::Pending;
  std::string error;  ///< exception text when status == Failed
  /// submit() -> the batch former handed the request to a worker.
  std::chrono::nanoseconds queue_wait{0};
  /// Batch execution time (shared by every request of the batch).
  std::chrono::nanoseconds service_time{0};
  /// submit() -> completion (queue_wait + service_time for served
  /// requests; ~0 for admission rejections).
  std::chrono::nanoseconds total{0};
  /// Requests coalesced into the batch that served this one (1 when the
  /// request ran alone; 0 when it never reached execution).
  std::size_t batch_size = 0;
};

namespace detail {

/// Shared completion state behind EcFuture: one mutex/cv pair per
/// in-flight request, touched twice (complete, wait). Also hosts the
/// request's cancel flag so a CancelToken aliasing this object costs no
/// extra allocation per request.
class Completion {
 public:
  void complete(EcResult result) {
    {
      std::lock_guard lock(mutex_);
      result_ = std::move(result);
      done_ = true;
    }
    cv_.notify_all();
  }

  /// Raises the cancel flag (sticky; checked cooperatively by workers).
  void request_cancel() noexcept {
    cancel_flag_.store(true, std::memory_order_release);
  }
  bool cancel_requested() const noexcept {
    return cancel_flag_.load(std::memory_order_relaxed);
  }
  const std::atomic<bool>* cancel_flag() const noexcept {
    return &cancel_flag_;
  }

  const EcResult& wait() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return done_; });
    return result_;
  }

  bool wait_for(std::chrono::nanoseconds timeout) {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, timeout, [&] { return done_; });
  }

  bool ready() const {
    std::lock_guard lock(mutex_);
    return done_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  EcResult result_;
  std::atomic<bool> cancel_flag_{false};
};

/// CancelToken viewing a Completion's embedded flag: the aliasing
/// shared_ptr keeps the whole Completion alive for the token's lifetime.
inline tensor::CancelToken token_for(
    const std::shared_ptr<Completion>& completion) {
  return tensor::CancelToken(std::shared_ptr<const std::atomic<bool>>(
      completion, completion->cancel_flag()));
}

}  // namespace detail

/// Handle to an asynchronous submission. Copyable (shared state);
/// default-constructed futures are invalid.
class EcFuture {
 public:
  EcFuture() = default;
  explicit EcFuture(std::shared_ptr<detail::Completion> state)
      : state_(std::move(state)) {}

  bool valid() const noexcept { return state_ != nullptr; }
  bool ready() const { return state_ && state_->ready(); }

  /// Blocks until the request completes; the reference stays valid for
  /// the future's lifetime.
  const EcResult& wait() { return state_->wait(); }

  /// Bounded wait; true when the result is ready.
  bool wait_for(std::chrono::nanoseconds timeout) {
    return state_->wait_for(timeout);
  }

  /// Requests cooperative cancellation. Best-effort and non-blocking:
  /// a queued request completes as Cancelled at batch formation; a
  /// request already inside a kernel stops at the next tile-chunk poll.
  /// A request that already completed (or wins the race) keeps its
  /// original status — callers must still wait() for the result.
  void cancel() {
    if (state_) state_->request_cancel();
  }

  /// True once cancel() has been called (even if the request completed
  /// first).
  bool cancel_requested() const {
    return state_ && state_->cancel_requested();
  }

 private:
  std::shared_ptr<detail::Completion> state_;
};

/// The internal request record. Encode requests use (in, out); decode
/// requests use (stripe, erased) and repair in place.
struct EcRequest {
  RequestKind kind = RequestKind::Encode;
  CodecKey key;
  std::size_t unit_size = 0;
  std::span<const std::uint8_t> in;   ///< encode: k contiguous data units
  std::span<std::uint8_t> out;        ///< encode: r contiguous parity units
  std::span<std::uint8_t> stripe;     ///< decode: n contiguous units
  std::vector<std::size_t> erased;    ///< decode: loss pattern (verbatim)
  Clock::time_point deadline = Clock::time_point::max();
  /// Optional caller-supplied cancellation token (e.g. from a
  /// CancelSource shared by a whole RPC). Invalid (default) means the
  /// only cancel channel is EcFuture::cancel(). Both are honored.
  tensor::CancelToken cancel;
  /// QoS accounting identity. Carried through admission and completion
  /// so an observer (the sharded front's TenantRegistry) can keep
  /// per-tenant counters whose identities mirror the service-wide ones.
  TenantId tenant = 0;
};

/// One accounting event on a request's lifecycle. The shard that handles
/// the request reports each event once, to its own counters and to the
/// sharded front's TenantRegistry (the front synthesizes the pair for
/// its own QoS rejections). Submitted fires once per valid submission
/// (after argument validation — malformed submissions throw and are
/// nobody's traffic); Accepted fires when admission succeeds; Completed
/// fires exactly once per submission with the terminal status (including
/// admission rejections, where admitted == false).
struct RequestEvent {
  enum class Kind : std::uint8_t { Submitted, Accepted, Completed };
  Kind kind = Kind::Completed;
  TenantId tenant = 0;
  RequestStatus status = RequestStatus::Pending;  ///< Completed only
  /// Completed only: true when the request had been admitted (its
  /// terminal status counts against `accepted`), false for admission
  /// rejections. Distinguishes shutdown_drained from rejected_shutdown.
  bool admitted = false;
};

/// The ten request buckets, declared once, and the one classifier that
/// maps a RequestEvent to its bucket. A shard's counters
/// (ServeStatsSnapshot) and a tenant's (TenantCounters) derive from it
/// and count the same events, so both ledgers keep the identities every
/// serve check calls:
///   submitted == accepted + rejected_overload + rejected_shed
///                + rejected_shutdown          (admission_balanced)
/// and, once drained,
///   accepted == completed_ok + expired + failed + cancelled
///               + shutdown_drained            (drained_balanced).
/// rejected_shutdown counts requests that were never admitted;
/// shutdown_drained counts admitted requests abandoned by a non-draining
/// shutdown — the split that keeps both identities exact.
struct RequestCounters {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_shed = 0;      ///< admission-time deadline sheds
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t expired = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t shutdown_drained = 0;   ///< admitted, then shut down

  using Bucket = std::uint64_t RequestCounters::*;
  /// Every bucket, in declaration order.
  static constexpr std::array<Bucket, 10> kBuckets{
      &RequestCounters::submitted,         &RequestCounters::accepted,
      &RequestCounters::rejected_overload, &RequestCounters::rejected_shed,
      &RequestCounters::rejected_shutdown, &RequestCounters::completed_ok,
      &RequestCounters::expired,           &RequestCounters::failed,
      &RequestCounters::cancelled,         &RequestCounters::shutdown_drained};

  /// The bucket `event` counts in: Submitted and Accepted their own, a
  /// Completed event its status's, with Shutdown split by `admitted`.
  /// Null for a Completed event still Pending, which counts nowhere.
  static Bucket bucket(const RequestEvent& event) noexcept {
    switch (event.kind) {
      case RequestEvent::Kind::Submitted:
        return &RequestCounters::submitted;
      case RequestEvent::Kind::Accepted:
        return &RequestCounters::accepted;
      case RequestEvent::Kind::Completed:
        break;
    }
    switch (event.status) {
      case RequestStatus::Ok:
        return &RequestCounters::completed_ok;
      case RequestStatus::Overloaded:
        return &RequestCounters::rejected_overload;
      case RequestStatus::Shed:
        return &RequestCounters::rejected_shed;
      case RequestStatus::Expired:
        return &RequestCounters::expired;
      case RequestStatus::Failed:
        return &RequestCounters::failed;
      case RequestStatus::Cancelled:
        return &RequestCounters::cancelled;
      case RequestStatus::Shutdown:
        return event.admitted ? &RequestCounters::shutdown_drained
                              : &RequestCounters::rejected_shutdown;
      case RequestStatus::Pending:
        break;
    }
    return nullptr;
  }

  void count(const RequestEvent& event) noexcept {
    if (const Bucket b = bucket(event)) ++(this->*b);
  }

  std::uint64_t rejected() const noexcept {
    return rejected_overload + rejected_shed + rejected_shutdown;
  }
  std::uint64_t terminal() const noexcept {
    return completed_ok + expired + failed + cancelled + shutdown_drained;
  }
  /// submitted == accepted + rejected_* (holds whenever no submission is
  /// in flight).
  bool admission_balanced() const noexcept {
    return submitted == accepted + rejected();
  }
  /// accepted == terminal buckets (holds once drained).
  bool drained_balanced() const noexcept { return accepted == terminal(); }

  RequestCounters& operator+=(const RequestCounters& o) noexcept {
    for (const Bucket b : kBuckets) this->*b += o.*b;
    return *this;
  }
  /// Bucket for bucket; a derived ledger compares only its buckets.
  friend bool operator==(const RequestCounters&,
                         const RequestCounters&) = default;
};

/// A queued request: the request plus its completion handle and the
/// accounting fields the batch former fills at admission.
struct PendingRequest {
  EcRequest req;
  std::shared_ptr<detail::Completion> completion;
  Clock::time_point submitted{};
  std::uint64_t seq = 0;           ///< admission order (FIFO across classes)
  std::size_t payload_bytes = 0;   ///< for the batch byte cap
};

}  // namespace tvmec::serve
