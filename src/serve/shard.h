#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/ec_service.h"
#include "serve/request.h"
#include "serve/tenant.h"
#include "tune/tuning_log.h"

/// The sharded multi-tenant front, the one public serving class:
/// per-core EC service shards with bounded work stealing, tenant QoS,
/// and tuned schedules loaded from a tuning log.
///
/// Why shard at all: a single shard funnels every submitter through
/// one batch-former mutex and one stats block. At per-core request
/// rates that lock (and the cache line ping-pong behind it) becomes the
/// ceiling long before the GEMM does — the same reason ML serving
/// systems run one request queue per worker rather than one global one.
/// The front hashes each client to a shard; a client's requests stay on
/// one shard (affinity keeps its codec slots and plan cache warm),
/// while different clients spread across shards and never share a
/// queue lock.
///
/// Sharding alone is vulnerable to skew: hash one hot client to shard 3
/// and shard 3 queues while the others idle. The corrective is bounded
/// work stealing — an idle shard worker drains a *bounded* number of
/// batches from the neighbor whose queue-wait EWMA says it is hurting —
/// so the steady state is per-shard locality with skew smoothed at the
/// edges, not a global queue re-invented badly.
namespace tvmec::serve {

/// How much an idle shard worker steals, and from whom. Workers steal
/// whenever the front has more than one shard.
struct StealPolicy {
  /// A victim qualifies when its queue-wait EWMA exceeds the thief's
  /// own by this factor (and the absolute floor below) — stealing is
  /// for *relieving pressure*, not for perfectly levelling noise.
  double wait_ratio = 2.0;
  /// Absolute floor: victims waiting less than this are never stolen
  /// from (steal setup costs more than the wait it would save).
  std::chrono::nanoseconds min_victim_wait = std::chrono::microseconds(50);
  /// Batches taken per steal — bounded so a thief relieves a hot shard
  /// without abandoning its own queue.
  std::size_t max_batches = 1;
};

/// The front's watchdog thread: once per poll it runs
/// detail::EcService::watchdog_scan on every shard, which (a) aborts in-flight
/// batches every member of which is already dead (cancelled or past
/// deadline) — the mechanism bounding deadline overshoot to one
/// batch-service time — and (b) flags batches in flight longer than
/// `stuck_budget`, whatever thread runs them (a front worker, a thief,
/// a manual pump), degrading health().
struct WatchdogPolicy {
  bool enabled = true;
  /// Scan period. The cancellation latency for an abandoned batch is at
  /// most one poll plus one tile-chunk.
  std::chrono::nanoseconds poll = std::chrono::milliseconds(2);
  /// A batch in flight for longer than this is considered stuck.
  std::chrono::nanoseconds stuck_budget = std::chrono::seconds(2);
};

struct ShardedServiceConfig {
  /// Service shards. 0 = one per hardware thread.
  std::size_t num_shards = 0;
  /// Worker threads *per shard*; each pumps its own shard and steals
  /// from hot neighbors. 0 = manual-pump mode: the owner drives all
  /// shards via run_pending() — deterministic, used by tests and the
  /// fuzzer. Either way the front runs one watchdog thread (unless
  /// watchdog.enabled is false), so a front starts
  /// num_shards * workers_per_shard + 1 threads.
  std::size_t workers_per_shard = 1;
  /// Every shard's config, applied to each shard exactly as written. A
  /// non-null plan_cache is shared by every shard (a loss pattern
  /// planned anywhere is planned everywhere); null gives each shard its
  /// own (no cross-shard lock, plans warm per shard).
  ServiceConfig shard;
  StealPolicy steal;
  WatchdogPolicy watchdog;
  /// Tuning-log path ("" = none), loaded into schedule_cache() at
  /// construction, so the first request of a logged task shape already
  /// runs its tuned schedule. The front never tunes: the log comes from
  /// GemmCoder::tune and ScheduleCache::save (examples/autotune_explore
  /// writes one).
  std::string schedule_log;
  /// false turns TenantRegistry into pure accounting: no share
  /// enforcement, no deadline budgets, but per-tenant counters still
  /// balance.
  bool qos_enforcement = true;
  /// Initial tenant policies (tenants not listed here materialize with
  /// the default policy on first use; policies can also be set later
  /// via tenants().set_policy()).
  std::map<TenantId, TenantPolicy> tenant_policies;
};

/// One shard's view in the front-wide snapshot.
struct ShardStatsSnapshot {
  std::size_t shard = 0;
  ServeStatsSnapshot stats;
  std::chrono::nanoseconds queue_wait_ewma{0};
};

struct ShardedStatsSnapshot {
  /// Sum over shards plus front-level QoS rejections — satisfies the
  /// same identities as a single service's snapshot.
  ServeStatsSnapshot aggregate;
  std::vector<ShardStatsSnapshot> shards;
  /// Per-tenant counters (ascending tenant id) and their sum; the sum
  /// matches `aggregate`'s request buckets by construction.
  std::vector<TenantCounters> tenants;
  TenantCounters tenant_aggregate;
  /// Front-level QoS rejections (also folded into `aggregate`).
  std::uint64_t qos_rejected = 0;
  /// Work stealing: scans that found a qualifying victim, batches
  /// actually stolen, and requests completed by thieves.
  std::uint64_t steal_scans = 0;
  std::uint64_t steal_batches = 0;
  std::uint64_t steal_requests = 0;
  tune::ScheduleCache::Stats schedule_cache;

  /// The front's two cross-level identities, checked on a quiescent
  /// front: the shard sums plus the front-level QoS rejections, and the
  /// tenant aggregate, each equal the front aggregate bucket for bucket.
  bool front_balanced() const noexcept;
};

class ShardedEcService {
 public:
  /// Throws std::invalid_argument on an invalid config.
  explicit ShardedEcService(const ShardedServiceConfig& config);
  /// Graceful: shutdown(true).
  ~ShardedEcService();

  ShardedEcService(const ShardedEcService&) = delete;
  ShardedEcService& operator=(const ShardedEcService&) = delete;

  /// Which shard a client hashes to (stable across the front's
  /// lifetime; exposed so tests and clients can reason about
  /// placement).
  static std::size_t shard_of(std::uint64_t client_id,
                              std::size_t num_shards) noexcept;

  std::size_t num_shards() const noexcept { return shards_.size(); }

  /// Tenant-attributed submissions. `client_id` picks the shard (use a
  /// stable per-connection id for affinity); `tenant` is billed. An
  /// encode reads k contiguous data units and writes r contiguous parity
  /// units; a decode repairs the full n-unit stripe in place (erased ids
  /// may be unsorted or duplicated; an unrecoverable pattern completes
  /// as Failed). `timeout` bounds how long the request may wait for a
  /// batch (zero = no deadline; negative = already expired). Buffers
  /// must stay alive and untouched until the future is ready. Each
  /// request is validated once, before any accounting: malformed
  /// arguments (span sizes, unsupported key or unit size) throw
  /// std::invalid_argument, since they are programming errors, not
  /// tenant traffic. The QoS layer may reject at the front (Overloaded
  /// future, never queued) when the tenant's occupancy exceeds its
  /// weighted share.
  EcFuture submit_encode(TenantId tenant, std::uint64_t client_id,
                         const CodecKey& key,
                         std::span<const std::uint8_t> data,
                         std::span<std::uint8_t> parity,
                         std::size_t unit_size,
                         std::chrono::nanoseconds timeout = {});
  EcFuture submit_decode(TenantId tenant, std::uint64_t client_id,
                         const CodecKey& key, std::span<std::uint8_t> stripe,
                         std::span<const std::size_t> erased_ids,
                         std::size_t unit_size,
                         std::chrono::nanoseconds timeout = {});
  /// Fully-formed request, e.g. one carrying a caller-supplied
  /// EcRequest::cancel token (request.tenant is overwritten with
  /// `tenant`).
  EcFuture submit_request(TenantId tenant, std::uint64_t client_id,
                          EcRequest request);

  /// Manual-pump mode: drains every shard's queue on the calling
  /// thread, round-robin, until all are empty; returns requests
  /// completed. Legal alongside worker threads too.
  std::size_t run_pending();

  /// One steal scan on behalf of shard `thief` on the calling thread:
  /// exactly what an idle worker does between its own drains. Returns
  /// requests completed from the chosen victim (0 when no neighbor
  /// qualifies under the steal policy). Public so manual-pump tests can
  /// exercise the policy deterministically.
  std::size_t steal_for(std::size_t thief) { return try_steal(thief); }

  /// Stops the workers, shuts every shard down, then
  /// stops the watchdog. drain=true executes everything admitted first,
  /// on the calling thread. Idempotent.
  void shutdown(bool drain = true);

  ShardedStatsSnapshot stats() const;

  /// Front-wide readiness. Unhealthy when shut down, or when the stuck
  /// batches of all shards together reach num_shards * workers_per_shard
  /// (at least one per shard), the executor count each shard divides the
  /// GEMM pool by; otherwise Degraded on any reason (an open breaker or
  /// a stuck batch on any shard). Reasons are prefixed "shard <i>: ";
  /// stuck_batches is the front-wide sum.
  HealthSnapshot health() const;

  std::size_t pending() const;

  TenantRegistry& tenants() noexcept { return tenants_; }
  const TenantRegistry& tenants() const noexcept { return tenants_; }
  /// The front's tuned schedules, attached to every shard's codecs:
  /// each GEMM call looks its schedule up here by task shape, so an
  /// install is read by the next batch of that shape on any shard.
  /// Loaded from config.schedule_log at construction (warm start).
  tune::ScheduleCache& schedule_cache() noexcept { return *schedule_cache_; }

 private:
  void worker_loop(std::size_t shard_index);
  void watchdog_loop();
  std::size_t try_steal(std::size_t thief);

  ShardedServiceConfig config_;
  std::vector<std::unique_ptr<detail::EcService>> shards_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_workers_{false};

  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;  // under watchdog_mutex_
  std::thread watchdog_;

  TenantRegistry tenants_;
  const std::shared_ptr<tune::ScheduleCache> schedule_cache_;

  std::mutex shutdown_mutex_;
  bool stopped_ = false;  // under shutdown_mutex_

  std::atomic<std::uint64_t> qos_rejected_{0};
  std::atomic<std::uint64_t> steal_scans_{0};
  std::atomic<std::uint64_t> steal_batches_{0};
  std::atomic<std::uint64_t> steal_requests_{0};
};

}  // namespace tvmec::serve
