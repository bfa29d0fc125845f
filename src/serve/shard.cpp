#include "serve/shard.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "ec/code_params.h"
#include "tensor/variant.h"

namespace tvmec::serve {

namespace {

/// Checks a request's key/unit/span geometry; throws
/// std::invalid_argument on malformed arguments and returns the payload
/// byte count otherwise.
std::size_t validate_request(const EcRequest& request) {
  const ec::CodeParams params{request.key.k, request.key.r, request.key.w};
  params.validate();
  ec::packet_bytes(params, request.unit_size);  // throws on a bad unit size

  if (request.kind == RequestKind::Encode) {
    if (request.in.size() != params.k * request.unit_size)
      throw std::invalid_argument("submit_encode: data span must be k units");
    if (request.out.size() != params.r * request.unit_size)
      throw std::invalid_argument(
          "submit_encode: parity span must be r units");
    return request.in.size() + request.out.size();
  }
  if (request.stripe.size() != params.n() * request.unit_size)
    throw std::invalid_argument("submit_decode: stripe span must be n units");
  for (std::size_t id : request.erased)
    if (id >= params.n())
      throw std::invalid_argument("submit_decode: erased id out of range");
  return request.stripe.size();
}

std::size_t resolve_shards(const ShardedServiceConfig& config) {
  if (config.num_shards != 0) return config.num_shards;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// How long an idle worker waits for its own shard's work before its
/// next steal scan: bounded so workers notice neighbors' backlogs
/// promptly without spinning.
constexpr std::chrono::microseconds kStealIdleWait{500};

/// Concurrent batch executors across the front: every shard worker
/// (at least one per shard, for the manual pump).
std::size_t fleet_executors(std::size_t num_shards,
                            std::size_t workers_per_shard) {
  return std::max<std::size_t>(
      1, num_shards * std::max<std::size_t>(1, workers_per_shard));
}

/// Counter+histogram sum of two service snapshots (the front-wide view).
void merge_stats(ServeStatsSnapshot& into, const ServeStatsSnapshot& from) {
  static_cast<RequestCounters&>(into) += from;
  into.batches += from.batches;
  into.empty_flushes += from.empty_flushes;
  into.degraded_batches += from.degraded_batches;
  into.breaker_trips += from.breaker_trips;
  into.breaker_recoveries += from.breaker_recoveries;
  into.breaker_probes += from.breaker_probes;
  into.watchdog_aborts += from.watchdog_aborts;
  into.watchdog_stuck += from.watchdog_stuck;
  into.plan_cache_hits += from.plan_cache_hits;
  into.plan_cache_misses += from.plan_cache_misses;
  into.queue_wait_ns.merge(from.queue_wait_ns);
  into.service_ns.merge(from.service_ns);
  into.total_ns.merge(from.total_ns);
  into.batch_width.merge(from.batch_width);
  into.gemm_threads.merge(from.gemm_threads);
}

/// The front's QoS rejections in request buckets: each was submitted
/// and rejected Overloaded before any shard saw it.
RequestCounters qos_buckets(std::uint64_t rejected) {
  RequestCounters c;
  c.submitted = c.rejected_overload = rejected;
  return c;
}

}  // namespace

bool ShardedStatsSnapshot::front_balanced() const noexcept {
  RequestCounters shard_sum = qos_buckets(qos_rejected);
  for (const ShardStatsSnapshot& sh : shards) shard_sum += sh.stats;
  const RequestCounters& front = aggregate;
  return shard_sum == front && tenant_aggregate == front;
}

std::size_t ShardedEcService::shard_of(std::uint64_t client_id,
                                       std::size_t num_shards) noexcept {
  if (num_shards <= 1) return 0;
  // splitmix64 finalizer: client ids are often sequential, and a raw
  // modulo would then stripe neighbors across shards in lockstep with
  // any stride in the id allocator.
  std::uint64_t x = client_id + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % num_shards);
}

ShardedEcService::ShardedEcService(const ShardedServiceConfig& config)
    : config_(config),
      tenants_(resolve_shards(config) * config.shard.batch.queue_capacity,
               config.qos_enforcement),
      schedule_cache_(std::make_shared<tune::ScheduleCache>()) {
  const std::size_t num_shards = resolve_shards(config);

  for (const auto& [tenant, policy] : config.tenant_policies)
    tenants_.set_policy(tenant, policy);

  // Warm start: merge the previous run's best-known schedules before
  // any traffic arrives, so the first request of a known shape already
  // runs tuned.
  if (!config.schedule_log.empty()) schedule_cache_->load(config.schedule_log);

  // Every worker may run a batch on any shard (stealing), so each shard
  // divides the GEMM pool by the whole fleet's executors.
  const std::size_t executors =
      fleet_executors(num_shards, config.workers_per_shard);
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i)
    shards_.push_back(std::make_unique<detail::EcService>(
        config.shard, executors, tenants_, schedule_cache_));

  workers_.reserve(num_shards * config.workers_per_shard);
  for (std::size_t s = 0; s < num_shards; ++s)
    for (std::size_t j = 0; j < config.workers_per_shard; ++j)
      workers_.emplace_back([this, s] { worker_loop(s); });
  if (config.watchdog.enabled)
    watchdog_ = std::thread([this] { watchdog_loop(); });
}

ShardedEcService::~ShardedEcService() { shutdown(true); }

EcFuture ShardedEcService::submit_request(TenantId tenant,
                                          std::uint64_t client_id,
                                          EcRequest request) {
  request.tenant = tenant;
  // Malformed submissions throw before any accounting (programming
  // errors are not tenant traffic).
  const std::size_t payload_bytes = validate_request(request);

  const auto now = Clock::now();
  const std::optional<RequestStatus> verdict =
      tenants_.admit(tenant, now, &request.deadline);
  if (verdict) {
    // Front-level QoS rejection: never reaches a shard, so the front
    // synthesizes the Submitted+Completed pair itself and completes the
    // future on the spot.
    qos_rejected_.fetch_add(1, std::memory_order_relaxed);
    tenants_.observe({RequestEvent::Kind::Submitted, tenant,
                      RequestStatus::Pending, /*admitted=*/false});
    tenants_.observe({RequestEvent::Kind::Completed, tenant, *verdict,
                      /*admitted=*/false});
    auto completion = std::make_shared<detail::Completion>();
    EcResult result;
    result.status = *verdict;
    completion->complete(std::move(result));
    return EcFuture(std::move(completion));
  }
  return shards_[shard_of(client_id, shards_.size())]->submit(
      std::move(request), payload_bytes);
}

EcFuture ShardedEcService::submit_encode(TenantId tenant,
                                         std::uint64_t client_id,
                                         const CodecKey& key,
                                         std::span<const std::uint8_t> data,
                                         std::span<std::uint8_t> parity,
                                         std::size_t unit_size,
                                         std::chrono::nanoseconds timeout) {
  EcRequest req;
  req.kind = RequestKind::Encode;
  req.key = key;
  req.unit_size = unit_size;
  req.in = data;
  req.out = parity;
  if (timeout != std::chrono::nanoseconds{0})
    req.deadline = Clock::now() + timeout;
  return submit_request(tenant, client_id, std::move(req));
}

EcFuture ShardedEcService::submit_decode(TenantId tenant,
                                         std::uint64_t client_id,
                                         const CodecKey& key,
                                         std::span<std::uint8_t> stripe,
                                         std::span<const std::size_t> erased_ids,
                                         std::size_t unit_size,
                                         std::chrono::nanoseconds timeout) {
  EcRequest req;
  req.kind = RequestKind::Decode;
  req.key = key;
  req.unit_size = unit_size;
  req.stripe = stripe;
  req.erased.assign(erased_ids.begin(), erased_ids.end());
  if (timeout != std::chrono::nanoseconds{0})
    req.deadline = Clock::now() + timeout;
  return submit_request(tenant, client_id, std::move(req));
}

std::size_t ShardedEcService::run_pending() {
  std::size_t total = 0;
  bool progressed = true;
  // Round-robin until a full pass completes nothing: batches executed
  // on one shard can complete futures whose waiters submit to another,
  // but a quiescent pass means the queues this call was asked to drain
  // are drained.
  while (progressed) {
    progressed = false;
    for (const auto& shard : shards_) {
      const std::size_t done = shard->run_pending();
      total += done;
      if (done != 0) progressed = true;
    }
  }
  return total;
}

std::size_t ShardedEcService::try_steal(std::size_t thief) {
  const StealPolicy& policy = config_.steal;
  const auto own_wait = shards_[thief]->queue_wait_ewma();
  const auto threshold = std::max<std::chrono::nanoseconds>(
      policy.min_victim_wait,
      std::chrono::nanoseconds(static_cast<std::int64_t>(
          policy.wait_ratio * static_cast<double>(own_wait.count()))));

  std::size_t victim = thief;
  std::chrono::nanoseconds worst{0};
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (i == thief) continue;
    if (shards_[i]->pending() == 0) continue;
    const auto wait = shards_[i]->queue_wait_ewma();
    if (wait < threshold) continue;
    if (victim == thief || wait > worst) {
      victim = i;
      worst = wait;
    }
  }
  if (victim == thief) return 0;

  steal_scans_.fetch_add(1, std::memory_order_relaxed);
  std::size_t requests = 0;
  std::size_t batches = 0;
  for (std::size_t b = 0; b < policy.max_batches; ++b) {
    const std::size_t done = shards_[victim]->run_pending(1);
    if (done == 0) break;
    requests += done;
    ++batches;
  }
  steal_batches_.fetch_add(batches, std::memory_order_relaxed);
  steal_requests_.fetch_add(requests, std::memory_order_relaxed);
  return requests;
}

void ShardedEcService::worker_loop(std::size_t shard_index) {
  detail::EcService& own = *shards_[shard_index];
  while (!stop_workers_.load(std::memory_order_acquire)) {
    std::size_t did = own.run_pending();
    if (stop_workers_.load(std::memory_order_acquire)) break;
    if (did == 0 && shards_.size() > 1) did += try_steal(shard_index);
    // Bounded idle wait: wake on own work, or time out and rescan
    // neighbors (a parked worker must still notice a hot neighbor).
    if (did == 0) own.wait_for_work(kStealIdleWait);
  }
}

void ShardedEcService::watchdog_loop() {
  const auto poll = std::max<std::chrono::nanoseconds>(
      config_.watchdog.poll, std::chrono::microseconds(100));
  std::unique_lock lock(watchdog_mutex_);
  while (!watchdog_cv_.wait_for(lock, poll, [&] { return watchdog_stop_; })) {
    lock.unlock();
    const auto now = Clock::now();
    for (const auto& shard : shards_)
      shard->watchdog_scan(now, config_.watchdog.stuck_budget);
    lock.lock();
  }
}

void ShardedEcService::shutdown(bool drain) {
  {
    std::lock_guard lock(shutdown_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  stop_workers_.store(true, std::memory_order_release);
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  for (const auto& shard : shards_) shard->shutdown(drain);
  // The watchdog outlives the drain: batches the drain runs stay
  // abortable and visible to the stuck scan until the last one ends.
  if (watchdog_.joinable()) {
    {
      std::lock_guard lock(watchdog_mutex_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
}

std::size_t ShardedEcService::pending() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->pending();
  return total;
}

ShardedStatsSnapshot ShardedEcService::stats() const {
  ShardedStatsSnapshot out;
  out.shards.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ShardStatsSnapshot s;
    s.shard = i;
    s.stats = shards_[i]->stats();
    s.queue_wait_ewma = shards_[i]->queue_wait_ewma();
    merge_stats(out.aggregate, s.stats);
    out.shards.push_back(std::move(s));
  }
  if (config_.shard.plan_cache && !out.shards.empty()) {
    // Every shard reported the same shared cache; summing overcounted.
    out.aggregate.plan_cache_hits = out.shards.front().stats.plan_cache_hits;
    out.aggregate.plan_cache_misses =
        out.shards.front().stats.plan_cache_misses;
  }
  // Front-level QoS rejections happened before any shard saw the
  // request; fold them in so the aggregate keeps the admission
  // identity.
  out.qos_rejected = qos_rejected_.load(std::memory_order_relaxed);
  static_cast<RequestCounters&>(out.aggregate) +=
      qos_buckets(out.qos_rejected);

  out.tenants = tenants_.all();
  out.tenant_aggregate = tenants_.aggregate();
  out.steal_scans = steal_scans_.load(std::memory_order_relaxed);
  out.steal_batches = steal_batches_.load(std::memory_order_relaxed);
  out.steal_requests = steal_requests_.load(std::memory_order_relaxed);
  out.schedule_cache = schedule_cache_->stats();
  return out;
}

HealthSnapshot ShardedEcService::health() const {
  HealthSnapshot out;
  out.kernel_variant = tensor::to_string(tensor::active_variant());
  std::size_t shut_down = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const HealthSnapshot h = shards_[i]->health();
    if (h.state == HealthState::Unhealthy) ++shut_down;
    out.stuck_batches += h.stuck_batches;
    for (const std::string& reason : h.reasons)
      out.reasons.push_back("shard " + std::to_string(i) + ": " + reason);
  }
  // Any front thread may run any shard's batch, so stuck batches count
  // against the whole fleet of executors, not one shard's share.
  if (shut_down == shards_.size() ||
      out.stuck_batches >=
          fleet_executors(shards_.size(), config_.workers_per_shard))
    out.state = HealthState::Unhealthy;
  else if (!out.reasons.empty())
    out.state = HealthState::Degraded;
  return out;
}

}  // namespace tvmec::serve
