#include "serve/ec_service.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/backends.h"
#include "core/gemm_coder.h"
#include "ec/code_params.h"
#include "ec/decoder.h"
#include "ec/encoder.h"
#include "serve/tenant.h"
#include "tensor/threadpool.h"

namespace tvmec::serve {

using std::chrono::duration_cast;
using std::chrono::nanoseconds;

namespace {

ec::CodeParams params_of(const CodecKey& key) {
  return ec::CodeParams{key.k, key.r, key.w};
}

std::string describe_key(const CodecKey& key) {
  return "k=" + std::to_string(key.k) + ",r=" + std::to_string(key.r) +
         ",w=" + std::to_string(key.w);
}

/// Whether a decode names more than r distinct erasures. Every serve
/// code is Reed-Solomon, hence MDS: any r losses are recoverable and no
/// more are, so this count is the whole recoverability test.
bool exceeds_parities(const EcRequest& req) {
  const std::vector<std::size_t>& ids = req.erased;
  if (ids.size() <= req.key.r) return false;
  std::size_t distinct = 0;
  for (auto it = ids.begin(); it != ids.end(); ++it)
    if (std::find(ids.begin(), it, *it) == it) ++distinct;
  return distinct > req.key.r;
}

}  // namespace

const char* to_string(RequestStatus s) noexcept {
  switch (s) {
    case RequestStatus::Pending:
      return "pending";
    case RequestStatus::Ok:
      return "ok";
    case RequestStatus::Overloaded:
      return "overloaded";
    case RequestStatus::Expired:
      return "expired";
    case RequestStatus::Shutdown:
      return "shutdown";
    case RequestStatus::Failed:
      return "failed";
    case RequestStatus::Cancelled:
      return "cancelled";
    case RequestStatus::Shed:
      return "shed";
  }
  return "?";
}

const char* to_string(HealthState s) noexcept {
  switch (s) {
    case HealthState::Ok:
      return "ok";
    case HealthState::Degraded:
      return "degraded";
    case HealthState::Unhealthy:
      return "unhealthy";
  }
  return "?";
}

tensor::Schedule default_service_schedule() {
  // Every Codec's tuned default shape, with the thread knob opened to
  // the whole pool; effective_gemm_threads() narrows it per batch.
  tensor::Schedule s = core::default_coder_schedule();
  s.num_threads = static_cast<int>(
      std::min<std::size_t>(tensor::ThreadPool::shared().size(), 256));
  return s;
}

namespace detail {

int EcService::effective_gemm_threads(std::size_t batch_words,
                                      std::size_t pool_width,
                                      std::size_t service_workers) noexcept {
  if (pool_width == 0) pool_width = 1;
  if (service_workers == 0) service_workers = 1;  // manual pump = one driver
  const std::size_t fair_share =
      std::max<std::size_t>(1, pool_width / service_workers);
  const std::size_t by_work =
      std::max<std::size_t>(1, batch_words / kMinWordsPerGemmThread);
  return static_cast<int>(
      std::min({fair_share, by_work, std::size_t{256}}));
}

EcService::EcService(const ServiceConfig& config, std::size_t executors,
                     TenantRegistry& tenants,
                     std::shared_ptr<const tune::ScheduleCache> schedules)
    : config_(config),
      executors_(executors),
      tenants_(tenants),
      schedules_(std::move(schedules)),
      plan_cache_(config.plan_cache ? config.plan_cache
                                    : std::make_shared<core::PlanCache>()),
      former_(config.batch) {
  if (!config_.schedule.valid())
    throw std::invalid_argument("EcService: invalid schedule");
}

EcService::~EcService() { shutdown(true); }

EcFuture EcService::submit(EcRequest request, std::size_t payload_bytes) {
  record({RequestEvent::Kind::Submitted, request.tenant,
          RequestStatus::Pending, /*admitted=*/false});

  PendingRequest pending;
  pending.req = std::move(request);
  pending.completion = std::make_shared<Completion>();
  pending.submitted = Clock::now();
  pending.payload_bytes = payload_bytes;
  // Kept aside: push() consumes `pending`, and a rejection must still be
  // able to complete the caller's future (and bill the right tenant).
  std::shared_ptr<Completion> completion = pending.completion;
  const Clock::time_point submitted = pending.submitted;
  const TenantId tenant = pending.req.tenant;
  EcFuture future(completion);

  if (!accepting_.load(std::memory_order_acquire)) {
    complete(pending, RequestStatus::Shutdown, {}, submitted, submitted, 0,
             /*admitted=*/false);
    return future;
  }

  const auto reject = [&](RequestStatus status) {
    PendingRequest rejected;
    rejected.completion = std::move(completion);
    rejected.submitted = submitted;
    rejected.req.tenant = tenant;
    const auto now = Clock::now();
    complete(rejected, status, {}, now, now, 0, /*admitted=*/false);
  };

  switch (former_.push(std::move(pending))) {
    case PushResult::Accepted:
      record({RequestEvent::Kind::Accepted, tenant, RequestStatus::Pending,
              /*admitted=*/true});
      break;
    case PushResult::QueueFull:
      reject(RequestStatus::Overloaded);
      break;
    case PushResult::Shed:
      reject(RequestStatus::Shed);
      break;
    case PushResult::Closed:
      reject(RequestStatus::Shutdown);
      break;
  }
  return future;
}

void EcService::shutdown(bool drain) {
  std::lock_guard lock(shutdown_mutex_);
  if (stopped_) return;
  stopped_ = true;
  accepting_.store(false, std::memory_order_release);
  stopped_flag_.store(true, std::memory_order_release);

  if (!drain) {
    // Abort in-flight batches at their next tile-chunk poll; their live
    // members complete as Shutdown (the drained bucket).
    aborting_.store(true, std::memory_order_release);
    std::lock_guard il(inflight_mutex_);
    for (auto& [id, batch] : inflight_) {
      batch.source.request_cancel();
      batch.aborted = true;
    }
  }

  if (drain) run_pending();
  former_.close();

  // Leftovers: everything still queued after shutdown(false), or
  // requests pushed between the last run_pending() and close().
  auto left = former_.drain_all();
  const auto now = Clock::now();
  for (PendingRequest& p : left)
    complete(p, RequestStatus::Shutdown, {}, now, now, 0, /*admitted=*/true);
}

std::size_t EcService::run_pending(std::size_t max_batches) {
  std::size_t completed = 0;
  std::vector<PendingRequest> batch;
  for (std::size_t b = 0; b < max_batches && former_.try_next_batch(batch);
       ++b) {
    completed += batch.size();
    execute_batch(batch);
    batch.clear();
  }
  return completed;
}

EcService::CodecSlot& EcService::codec_slot(const CodecKey& key) {
  std::lock_guard lock(codecs_mutex_);
  auto it = codecs_.find(key);
  if (it == codecs_.end()) {
    auto slot = std::make_unique<CodecSlot>(params_of(key), key.family,
                                            config_.breaker);
    slot->codec.set_schedule(config_.schedule);
    slot->codec.set_schedule_cache(schedules_);
    // Every slot shares the service's plan cache: a loss pattern planned
    // for any key/consumer is an inversion nobody pays again.
    slot->codec.set_plan_cache(plan_cache_);
    it = codecs_.emplace(key, std::move(slot)).first;
  }
  return *it->second;
}

void EcService::watchdog_scan(Clock::time_point now,
                              std::chrono::nanoseconds stuck_budget) {
  std::lock_guard il(inflight_mutex_);
  for (auto& [id, batch] : inflight_) {
    // Stuck scan: a batch in flight past the budget is flagged (and
    // degrades health()) until it completes, whichever thread runs it.
    if (!batch.stuck && now - batch.formed > stuck_budget) {
      batch.stuck = true;
      watchdog_stuck_.fetch_add(1, std::memory_order_relaxed);
    }
    // Abort batches nobody is waiting for anymore: every member is
    // client-cancelled or past its deadline. A batch with even one live
    // member runs to completion (its output is still wanted).
    if (batch.aborted || batch.members.empty()) continue;
    if (std::all_of(batch.members.begin(), batch.members.end(),
                    [&](const PendingRequest* p) {
                      return dead_status(*p, now).has_value();
                    })) {
      batch.source.request_cancel();
      batch.aborted = true;
      watchdog_aborts_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

std::optional<RequestStatus> EcService::dead_status(const PendingRequest& p,
                                                    Clock::time_point now) {
  if (p.completion->cancel_requested() || p.req.cancel.cancelled())
    return RequestStatus::Cancelled;
  if (now > p.req.deadline) return RequestStatus::Expired;
  return std::nullopt;
}

void EcService::execute_batch(std::vector<PendingRequest>& batch) {
  const auto formed = Clock::now();
  // All requests of a batch share (kind, key) — the batch former's lane
  // invariant — so one codec serves the whole batch.
  const RequestKind kind = batch.front().req.kind;
  const CodecKey& key = batch.front().req.key;

  // Each request's own fate is settled here, before any kernel: a dead
  // request never spends kernel time, and an unrecoverable decode fails
  // without reaching the batched call, which then throws only for
  // backend faults — so the breaker hears only backend verdicts.
  std::vector<PendingRequest*> live;
  live.reserve(batch.size());
  for (PendingRequest& p : batch) {
    if (const auto dead = dead_status(p, formed))
      complete(p, *dead, {}, formed, formed, 0, /*admitted=*/true);
    else if (kind == RequestKind::Decode && exceeds_parities(p.req))
      complete(p, RequestStatus::Failed,
               "decode: erasure pattern is unrecoverable", formed, formed, 0,
               /*admitted=*/true);
    else
      live.push_back(&p);
  }
  if (live.empty()) {
    empty_flushes_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  CodecSlot& slot = codec_slot(key);

  std::size_t batch_bytes = 0;
  for (const PendingRequest* p : live) batch_bytes += p->payload_bytes;
  // The sharded front passes its fleet-wide executor count, so the
  // fork-join pool is divided among every thread that may be running a
  // batch right now, on any shard.
  const int gemm_threads = effective_gemm_threads(
      batch_bytes / sizeof(std::uint64_t), tensor::ThreadPool::shared().size(),
      executors_);

  batches_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(stats_mutex_);
    hist_.batch_width.record(live.size());
    // What the kernel receives: the slot schedule's thread knob (a
    // cached schedule never supplies threads) under the batch cap.
    hist_.gemm_threads.record(static_cast<std::uint64_t>(
        std::min(config_.schedule.num_threads, gemm_threads)));
  }

  std::vector<RequestStatus> status(live.size(), RequestStatus::Ok);
  std::vector<std::string> error(live.size());
  std::vector<char> done(live.size(), 0);

  // Register with the watchdog: the batch-wide token the kernel polls,
  // plus the live members it tests with dead_status.
  std::uint64_t batch_id;
  tensor::CancelToken batch_token;
  {
    std::lock_guard il(inflight_mutex_);
    batch_id = next_batch_id_++;
    InflightBatch& inflight = inflight_[batch_id];
    inflight.formed = formed;
    inflight.members.assign(live.begin(), live.end());
    batch_token = inflight.source.token();
    if (aborting_.load(std::memory_order_acquire)) {
      inflight.source.request_cancel();
      inflight.aborted = true;
    }
  }

  // Per-item executors: the primary codec for the singly-rescue and
  // defensive paths (uncancellable — one item is the smallest work unit).
  const auto encode_one = [&](PendingRequest& p) {
    slot.codec.encode(p.req.in, p.req.out, p.req.unit_size);
  };
  const auto decode_one = [&](PendingRequest& p) {
    slot.codec.decode(p.req.stripe, p.req.erased, p.req.unit_size);
  };
  const auto run_one = [&](std::size_t i) {
    try {
      if (kind == RequestKind::Encode)
        encode_one(*live[i]);
      else
        decode_one(*live[i]);
    } catch (const std::exception& e) {
      status[i] = RequestStatus::Failed;
      error[i] = e.what();
    }
    done[i] = 1;
  };

  // Isolation fallback: a failing request must not poison batchmates.
  // Polls the batch token between items so an abandoned batch stops
  // mid-rescue too.
  bool aborted = false;
  const auto run_singly = [&] {
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (done[i]) continue;
      if (batch_token.cancelled()) {
        aborted = true;
        return;
      }
      run_one(i);
    }
  };

  // Degraded executor: the naive reference backend — byte-identical to
  // the GEMM path (same bitpacket embedding), only slower. Per-item, so
  // one bad request cannot poison batchmates, with the same token poll.
  const auto run_degraded = [&] {
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (batch_token.cancelled()) {
        aborted = true;
        return;
      }
      PendingRequest& p = *live[i];
      try {
        if (kind == RequestKind::Encode) {
          ec::MatrixCoder* naive;
          {
            std::lock_guard gl(slot.degraded_mutex);
            if (!slot.naive_encoder)
              slot.naive_encoder = core::make_coder(
                  core::Backend::NaiveBitmatrix,
                  slot.codec.parity_matrix());
            naive = slot.naive_encoder.get();
          }
          naive->apply(p.req.in, p.req.out, p.req.unit_size);
        } else {
          // Plan + naive recovery coder per erasure pattern, cached.
          // Caller already holds decode_mutex for decode batches.
          std::vector<std::size_t> erased(p.req.erased.begin(),
                                          p.req.erased.end());
          std::sort(erased.begin(), erased.end());
          erased.erase(std::unique(erased.begin(), erased.end()),
                       erased.end());
          if (erased.empty()) {
            done[i] = 1;
            continue;
          }
          auto it = slot.naive_decode_cache.find(erased);
          if (it == slot.naive_decode_cache.end()) {
            // Plans come from the shared cache (same plans the primary
            // path uses — the breaker degrades the *executor*, not the
            // math); only the naive coder stays slot-local. Formation
            // failed every pattern beyond r, so the plan exists.
            auto plan = slot.codec.plan(erased);
            auto coder = core::make_coder(core::Backend::NaiveBitmatrix,
                                          plan->recovery);
            it = slot.naive_decode_cache
                     .emplace(erased, CodecSlot::NaivePlan{
                                          std::move(plan), std::move(coder)})
                     .first;
          }
          const ec::DecodePlan& plan = *it->second.plan;
          const std::size_t unit = p.req.unit_size;
          std::vector<std::uint8_t> in(plan.survivors.size() * unit);
          std::vector<std::uint8_t> out(plan.erased.size() * unit);
          for (std::size_t s = 0; s < plan.survivors.size(); ++s)
            std::copy_n(p.req.stripe.data() + plan.survivors[s] * unit, unit,
                        in.data() + s * unit);
          it->second.coder->apply(in, out, unit);
          for (std::size_t s = 0; s < plan.erased.size(); ++s)
            std::copy_n(out.data() + s * unit,  unit,
                        p.req.stripe.data() + plan.erased[s] * unit);
        }
      } catch (const std::exception& e) {
        status[i] = RequestStatus::Failed;
        error[i] = e.what();
      }
      done[i] = 1;
    }
  };

  CircuitBreaker& breaker =
      kind == RequestKind::Encode ? slot.encode_breaker : slot.decode_breaker;
  const BreakerDecision decision = breaker.allow_primary(formed);

  {
    // decode mutates the per-codec plan cache (primary and naive);
    // serialize per key. Encode paths are immutable-state and take no
    // lock.
    std::unique_lock<std::mutex> decode_lock;
    if (kind == RequestKind::Decode)
      decode_lock = std::unique_lock(slot.decode_mutex);

    if (decision == BreakerDecision::Degrade) {
      degraded_batches_.fetch_add(1, std::memory_order_relaxed);
      run_degraded();
    } else {
      try {
        if (config_.fault_injector &&
            config_.fault_injector(kind, key, live.size()))
          throw std::runtime_error("injected backend fault");
        if (kind == RequestKind::Encode) {
          std::vector<ec::CoderBatchItem> items;
          items.reserve(live.size());
          for (const PendingRequest* p : live)
            items.push_back({p->req.in, p->req.out, p->req.unit_size});
          slot.codec.encode_batch(items, gemm_threads, batch_token);
        } else {
          std::vector<core::Codec::DecodeBatchItem> items;
          items.reserve(live.size());
          for (const PendingRequest* p : live)
            items.push_back({p->req.stripe, p->req.erased, p->req.unit_size});
          slot.codec.decode_batch(items, gemm_threads, batch_token);
        }
        breaker.record(decision, true, Clock::now());
        std::fill(done.begin(), done.end(), 1);
      } catch (const tensor::Cancelled&) {
        // An aborted batch is not a backend verdict: release any probe
        // reservation without recording success or failure.
        breaker.abandon(decision);
        aborted = true;
      } catch (const std::exception&) {
        breaker.record(decision, false, Clock::now());
        run_singly();
      }
    }

    if (aborted) {
      // The kernel stopped mid-batch. Classify every unexecuted member:
      // shutdown abort, client cancel, or deadline expiry. The defensive
      // arm (a live member in an aborted batch — only reachable through
      // races with shutdown) re-runs the request to completion so no
      // accepted request is ever dropped.
      const auto now = Clock::now();
      const bool shutting_down = aborting_.load(std::memory_order_acquire);
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (done[i]) continue;
        if (const auto dead = dead_status(*live[i], now))
          status[i] = *dead;
        else if (shutting_down)
          status[i] = RequestStatus::Shutdown;
        else
          run_one(i);
      }
    }
  }

  {
    std::lock_guard il(inflight_mutex_);
    inflight_.erase(batch_id);
  }

  const auto end = Clock::now();
  // Feed the shedder's service-time estimate from batches that ran to
  // completion; aborted batches stopped mid-kernel, so their truncated
  // duration would bias the prediction low and under-shed.
  if (!aborted) former_.note_service_time(end - formed);
  for (std::size_t i = 0; i < live.size(); ++i)
    complete(*live[i], status[i], std::move(error[i]), formed, end,
             live.size(), /*admitted=*/true);
}

void EcService::complete(PendingRequest& p, RequestStatus status,
                         std::string error, Clock::time_point formed,
                         Clock::time_point end, std::size_t batch_size,
                         bool admitted) {
  EcResult result;
  result.status = status;
  result.error = std::move(error);
  result.queue_wait = duration_cast<nanoseconds>(formed - p.submitted);
  result.service_time = duration_cast<nanoseconds>(end - formed);
  result.total = duration_cast<nanoseconds>(end - p.submitted);
  result.batch_size = batch_size;

  // Latency histograms describe the served path; admission rejections
  // (sub-microsecond by design) would only distort the low buckets.
  if (status == RequestStatus::Ok || status == RequestStatus::Failed ||
      status == RequestStatus::Expired) {
    std::lock_guard lock(stats_mutex_);
    hist_.queue_wait_ns.record(
        static_cast<std::uint64_t>(result.queue_wait.count()));
    hist_.total_ns.record(static_cast<std::uint64_t>(result.total.count()));
    // Service time is a batch's: a request settled at formation
    // (batch_size 0) never ran, and an expired one ran to no result.
    if (batch_size > 0 && status != RequestStatus::Expired)
      hist_.service_ns.record(
          static_cast<std::uint64_t>(result.service_time.count()));
  }

  // Accounting runs before the future unblocks so a caller that waits on
  // the result always observes counters that include it.
  record({RequestEvent::Kind::Completed, p.req.tenant, status, admitted});

  p.completion->complete(std::move(result));
}

static_assert(alignof(RequestCounters) >=
              std::atomic_ref<std::uint64_t>::required_alignment);

void EcService::record(const RequestEvent& event) {
  if (const RequestCounters::Bucket b = RequestCounters::bucket(event))
    std::atomic_ref(requests_.*b).fetch_add(1, std::memory_order_relaxed);
  tenants_.observe(event);
}

ServeStatsSnapshot EcService::stats() const {
  ServeStatsSnapshot out;
  {
    std::lock_guard lock(stats_mutex_);
    out = hist_;
  }
  for (const RequestCounters::Bucket b : RequestCounters::kBuckets)
    out.*b = std::atomic_ref(requests_.*b).load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.empty_flushes = empty_flushes_.load(std::memory_order_relaxed);
  out.degraded_batches = degraded_batches_.load(std::memory_order_relaxed);
  out.watchdog_aborts = watchdog_aborts_.load(std::memory_order_relaxed);
  out.watchdog_stuck = watchdog_stuck_.load(std::memory_order_relaxed);
  {
    const core::PlanCacheStats pc = plan_cache_->stats();
    out.plan_cache_hits = pc.hits;
    out.plan_cache_misses = pc.misses;
  }
  {
    std::lock_guard lock(codecs_mutex_);
    for (const auto& [key, slot] : codecs_) {
      for (const CircuitBreaker* b :
           {&slot->encode_breaker, &slot->decode_breaker}) {
        const CircuitBreaker::Counters c = b->counters();
        out.breaker_trips += c.trips;
        out.breaker_recoveries += c.recoveries;
        out.breaker_probes += c.probes;
      }
    }
  }
  return out;
}

HealthSnapshot EcService::health() const {
  HealthSnapshot h;
  if (stopped_flag_.load(std::memory_order_acquire)) {
    h.state = HealthState::Unhealthy;
    h.reasons.push_back("service is shut down");
    return h;
  }

  {
    std::lock_guard il(inflight_mutex_);
    for (const auto& [id, batch] : inflight_) {
      if (!batch.stuck) continue;
      ++h.stuck_batches;
      h.reasons.push_back("batch " + std::to_string(id) +
                          " stuck past watchdog budget");
    }
  }

  {
    std::lock_guard lock(codecs_mutex_);
    for (const auto& [key, slot] : codecs_) {
      const BreakerState enc = slot->encode_breaker.state();
      const BreakerState dec = slot->decode_breaker.state();
      if (enc != BreakerState::Closed)
        h.reasons.push_back("codec " + describe_key(key) +
                            " encode breaker " + to_string(enc));
      if (dec != BreakerState::Closed)
        h.reasons.push_back("codec " + describe_key(key) +
                            " decode breaker " + to_string(dec));
    }
  }

  if (!h.reasons.empty()) h.state = HealthState::Degraded;
  return h;
}

}  // namespace detail
}  // namespace tvmec::serve
