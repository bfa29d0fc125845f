#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/tvmec.h"
#include "ec/encoder.h"
#include "serve/batch_former.h"
#include "serve/circuit_breaker.h"
#include "serve/request.h"
#include "serve/stats.h"
#include "tensor/cancel.h"
#include "tensor/schedule.h"
#include "tune/tuning_log.h"

/// The serving layer's shared types, and the sharded front's
/// thread-less shard.
///
/// Why serving exists: bitmatrix EC is a GEMM, and GEMM efficiency grows
/// with operand size — but a front-end workload is many small concurrent
/// requests, each of which alone runs the kernel at starvation-level N.
/// Borrowing the batching discipline of ML serving stacks, the service
/// queues submissions, coalesces compatible ones (same kind + codec key)
/// into one enlarged-N GEMM, and executes batches on the existing
/// persistent ThreadPool — per-stripe microbenchmark throughput becomes
/// multi-client serving throughput.
///
/// serve::ShardedEcService (serve/shard.h) is the one public serving
/// class. detail::EcService is one of its shards: a queue, codec slots
/// and counters that start no threads and run batches only inside
/// run_pending(), which the front's workers call (or, in manual-pump
/// mode, the front's owner through the front's run_pending()).
///
/// Policies:
///  - Admission: the queue is bounded; a full queue rejects immediately
///    with RequestStatus::Overloaded (backpressure, never unbounded
///    buffering). With deadline shedding enabled, a request whose
///    deadline the current queue-wait estimate already dooms is rejected
///    as Shed instead of queueing dead work.
///  - Deadlines: enforced at batch formation — an expired request is
///    completed as Expired and never reaches the kernel (wasted work on
///    a request nobody is waiting for would only delay live ones).
///  - Cancellation: EcFuture::cancel() (or a caller-supplied
///    EcRequest::cancel token) completes a queued request as Cancelled at
///    formation; once a batch whose members are *all* dead (cancelled or
///    past deadline) is executing, watchdog_scan() aborts its kernel at
///    the next tile-chunk poll.
///  - Request errors: a decode with more than r distinct erasures
///    (unrecoverable: every serve code is MDS Reed-Solomon) completes
///    Failed at formation too, so no request's own error reaches a
///    kernel call.
///  - Degradation: per-(codec, direction) circuit breakers, which hear
///    only backend verdicts; persistent primary-path failures reroute
///    batches to the naive reference backend (byte-identical output,
///    slower) until probes recover.
///  - Pool sharing: each batch's GEMM thread count is capped by
///    effective_gemm_threads() so concurrent batches from the front's
///    workers cannot oversubscribe the shared pool.
///  - Accounting: per-request queue-wait/service/total latency and
///    per-batch width land in log-bucketed histograms (serve/stats.h).
namespace tvmec::serve {

/// The GEMM schedule service codecs start from: core::default_coder_schedule()
/// with the thread knob opened to the shared pool's width
/// (effective_gemm_threads() then caps it per batch).
tensor::Schedule default_service_schedule();

enum class HealthState : std::uint8_t { Ok, Degraded, Unhealthy };

const char* to_string(HealthState s) noexcept;

/// Readiness-probe snapshot: the aggregate state plus one human-readable
/// reason per contributing condition (empty when Ok).
struct HealthSnapshot {
  HealthState state = HealthState::Ok;
  std::vector<std::string> reasons;
  /// In-flight batches past the watchdog's stuck budget.
  std::size_t stuck_batches = 0;
  /// The SIMD microkernel tier encodes are currently dispatching to
  /// ("scalar", "avx2", "avx512", "neon") — runtime CPUID truth, after
  /// any TVMEC_FORCE_VARIANT override. Surfaced here so an operator can
  /// answer "which kernel is this replica actually running?" from the
  /// readiness endpoint instead of rebuilding with different flags.
  std::string kernel_variant;
};

struct ServiceConfig {
  /// Batch policy; max_batch_requests = 1 is the one-request-at-a-time
  /// ablation (admission control and deadlines still apply).
  BatchPolicy batch;
  /// Base schedule for every codec the service instantiates: its thread
  /// knob, and its kernel shape wherever the front's schedule cache has
  /// no entry for a call's task shape.
  tensor::Schedule schedule = default_service_schedule();
  /// Per-(codec, direction) circuit breakers (set enabled=false for the
  /// PR-4 behavior of re-dispatching a failing backend forever).
  BreakerPolicy breaker;
  /// Test/chaos hook: when set, called before each *primary-path* batch
  /// dispatch with (kind, key, batch size); returning true makes the
  /// dispatch throw. The singly-rescue fallback and the degraded path do
  /// not consult it, so injected faults cost latency, never bytes —
  /// which is what lets the chaos fuzzer keep a byte-exact oracle.
  std::function<bool(RequestKind, const CodecKey&, std::size_t)>
      fault_injector;
  /// Decode-plan cache shared by every codec slot (and the degraded
  /// naive-decode path). Null = each shard creates a private one.
  /// Passing one cache — shared by every shard, and by a Cluster or the
  /// Codec instances the scrubber drives — lets all of them skip matrix
  /// inversion for loss patterns any one of them has already planned.
  std::shared_ptr<core::PlanCache> plan_cache;
};

/// Point-in-time copy of the service's counters and histograms. The
/// request buckets and their identities (admission_balanced(),
/// drained_balanced()) are RequestCounters', which TenantCounters
/// shares per tenant; tests, benches and the fuzzer's oracle check them.
struct ServeStatsSnapshot : RequestCounters {
  std::uint64_t batches = 0;        ///< executed (non-empty) batches
  /// Batches settled before any kernel: every member dead or failed.
  std::uint64_t empty_flushes = 0;
  std::uint64_t degraded_batches = 0;  ///< served by the naive backend
  std::uint64_t breaker_trips = 0;       ///< summed over all breakers
  std::uint64_t breaker_recoveries = 0;
  std::uint64_t breaker_probes = 0;
  std::uint64_t watchdog_aborts = 0;  ///< all-members-dead batch aborts
  std::uint64_t watchdog_stuck = 0;   ///< batches flagged stuck
  /// Decode-plan cache traffic (the service's shared core::PlanCache;
  /// includes other consumers when the cache is shared externally).
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
  LatencyHistogram queue_wait_ns;
  LatencyHistogram service_ns;
  LatencyHistogram total_ns;
  LatencyHistogram batch_width;    ///< requests per executed batch
  LatencyHistogram gemm_threads;   ///< GEMM threads each batch ran
};

class TenantRegistry;

namespace detail {

/// One shard of ShardedEcService. The front validates every request
/// before it gets here, and owns every thread that pumps it.
class EcService {
 public:
  /// `executors` is how many threads concurrently run batches against
  /// the shared fork-join pool, the divisor of effective_gemm_threads();
  /// `tenants` receives one RequestEvent per lifecycle step of every
  /// submission; `schedules` is attached to every codec slot, whose GEMM
  /// calls then look their schedule up by task shape. Throws
  /// std::invalid_argument on an invalid config (bad policy or
  /// schedule).
  EcService(const ServiceConfig& config, std::size_t executors,
            TenantRegistry& tenants,
            std::shared_ptr<const tune::ScheduleCache> schedules);
  /// Graceful: shutdown(true).
  ~EcService();

  EcService(const EcService&) = delete;
  EcService& operator=(const EcService&) = delete;

  /// Admits (or rejects) one request the front has already validated;
  /// `payload_bytes` is its payload size, for the batch byte cap.
  EcFuture submit(EcRequest request, std::size_t payload_bytes);

  /// Stops the shard. drain=true executes everything already admitted
  /// on the calling thread before returning; drain=false completes
  /// queued requests with RequestStatus::Shutdown and aborts batches
  /// other threads are running via their cancel tokens (their members
  /// complete as Shutdown too). Either way, submissions from this point
  /// complete as Shutdown. Idempotent.
  void shutdown(bool drain = true);

  /// Executes at most `max_batches` queued batches on the calling
  /// thread; returns requests completed (0 when nothing was queued). Any
  /// number of threads may pump one shard concurrently. A bounded call
  /// is the work-stealing entry point: a neighbor's worker drains a
  /// *bounded* amount of this shard's backlog so stealing relieves a hot
  /// shard without starving the thief's own queue.
  std::size_t run_pending(
      std::size_t max_batches = static_cast<std::size_t>(-1));

  /// Blocks until work is queued, the shard shuts down, or `timeout`
  /// elapses; true when a batch is available. The front's workers use
  /// this as their bounded idle wait between steal scans.
  bool wait_for_work(std::chrono::nanoseconds timeout) const {
    return former_.wait_for_work(timeout);
  }

  /// Current queue-wait EWMA (the batch former's pop-time estimate).
  /// The front compares shards' estimates to decide when a neighbor is
  /// hot enough to steal from.
  std::chrono::nanoseconds queue_wait_ewma() const {
    return former_.queue_wait_ewma();
  }

  /// One watchdog pass over the in-flight batches: (a) aborts every
  /// batch all of whose members are already dead (cancelled or past
  /// deadline) at its kernel's next tile-chunk poll — the mechanism
  /// bounding deadline overshoot to one batch-service time — and (b)
  /// flags batches in flight longer than `stuck_budget`, whatever thread
  /// runs them, degrading health(). The front's watchdog thread calls
  /// this on every shard once per poll.
  void watchdog_scan(Clock::time_point now,
                     std::chrono::nanoseconds stuck_budget);

  ServeStatsSnapshot stats() const;

  /// This shard's part of the front's readiness probe: Unhealthy once
  /// shut down, otherwise Degraded when any circuit breaker is not
  /// Closed or a batch is flagged stuck. Reasons name the conditions;
  /// kernel_variant is left to the front.
  HealthSnapshot health() const;

  std::size_t pending() const { return former_.pending(); }

  /// The per-batch GEMM thread cap: at most the pool's width divided by
  /// the number of concurrent batch executors (so two concurrent batches
  /// cannot oversubscribe the pool), and at most one thread per
  /// kMinWordsPerGemmThread 64-bit words of batch payload (so tiny
  /// batches do not pay fork-join overhead for no work). Always >= 1.
  static int effective_gemm_threads(std::size_t batch_words,
                                    std::size_t pool_width,
                                    std::size_t service_workers) noexcept;

  /// Below this many words per thread, adding workers costs more in
  /// dispatch than it wins in parallelism (16 KiB per thread).
  static constexpr std::size_t kMinWordsPerGemmThread = 2048;

 private:
  struct CodecSlot {
    core::Codec codec;
    std::mutex decode_mutex;  ///< decode mutates the plan cache
    CircuitBreaker encode_breaker;
    CircuitBreaker decode_breaker;
    /// Degraded path (lazily built): the naive reference coder for
    /// encode, plus per-erasure-pattern naive recovery coders for
    /// decode. Guarded by degraded_mutex (encode) / decode_mutex
    /// (decode, shared with the plan cache).
    std::mutex degraded_mutex;
    std::unique_ptr<ec::MatrixCoder> naive_encoder;
    struct NaivePlan {
      std::shared_ptr<const ec::DecodePlan> plan;  // from the shared cache
      std::unique_ptr<ec::MatrixCoder> coder;
    };
    std::map<std::vector<std::size_t>, NaivePlan> naive_decode_cache;
    CodecSlot(const ec::CodeParams& params, ec::RsFamily family,
              const BreakerPolicy& breaker)
        : codec(params, family),
          encode_breaker(breaker),
          decode_breaker(breaker) {}
  };

  /// One executing batch, visible to the watchdog: the batch-wide cancel
  /// source the kernel polls, its live members (owned by the executing
  /// thread, which unregisters the batch before completing them), and
  /// the formation time the stuck scan measures from.
  struct InflightBatch {
    tensor::CancelSource source;
    Clock::time_point formed;
    std::vector<const PendingRequest*> members;
    bool aborted = false;  ///< watchdog already fired for this batch
    bool stuck = false;    ///< in flight past the stuck budget
  };

  void execute_batch(std::vector<PendingRequest>& batch);
  CodecSlot& codec_slot(const CodecKey& key);
  /// The one rule for a request that can no longer want its result:
  /// Cancelled once its client cancelled it (either channel), else
  /// Expired once `now` is past its deadline; nullopt while it is live.
  /// Batch formation, the aborted-batch sweep and the watchdog's
  /// all-dead test all apply it.
  static std::optional<RequestStatus> dead_status(const PendingRequest& p,
                                                  Clock::time_point now);
  /// Reports one lifecycle event: bumps its bucket in this shard's
  /// counters and forwards it to the front's TenantRegistry.
  void record(const RequestEvent& event);
  /// Completes one request, records its Completed event and latency.
  /// `formed` / `end` bracket batch execution (formed == end for
  /// requests that never executed: rejections, settled-at-formation
  /// requests, shutdown). `admitted` selects the Shutdown bucket: true =
  /// shutdown_drained (the request was accepted first), false =
  /// rejected_shutdown.
  void complete(PendingRequest& p, RequestStatus status, std::string error,
                Clock::time_point formed, Clock::time_point end,
                std::size_t batch_size, bool admitted);

  ServiceConfig config_;
  const std::size_t executors_;
  TenantRegistry& tenants_;
  const std::shared_ptr<const tune::ScheduleCache> schedules_;
  std::shared_ptr<core::PlanCache> plan_cache_;  // never null after ctor
  BatchFormer former_;

  mutable std::mutex codecs_mutex_;  ///< stats()/health() aggregate breakers
  std::map<CodecKey, std::unique_ptr<CodecSlot>> codecs_;

  std::mutex shutdown_mutex_;
  std::atomic<bool> accepting_{true};
  bool stopped_ = false;          // under shutdown_mutex_
  std::atomic<bool> stopped_flag_{false};  // health() view of stopped_
  std::atomic<bool> aborting_{false};      // shutdown(false) in progress

  // In-flight batch registry (watchdog_scan's worklist; health() counts
  // its stuck batches).
  mutable std::mutex inflight_mutex_;
  std::map<std::uint64_t, InflightBatch> inflight_;
  std::uint64_t next_batch_id_ = 0;

  // Counters are relaxed atomics (hot submit path): the request buckets
  // are touched only through std::atomic_ref (hence mutable). Histograms
  // live under a mutex and are only touched at completion time.
  mutable RequestCounters requests_;
  mutable std::mutex stats_mutex_;
  ServeStatsSnapshot hist_;  // histogram part; counters are the atomics
  std::atomic<std::uint64_t> batches_{0}, empty_flushes_{0},
      degraded_batches_{0}, watchdog_aborts_{0}, watchdog_stuck_{0};
};

}  // namespace detail
}  // namespace tvmec::serve
