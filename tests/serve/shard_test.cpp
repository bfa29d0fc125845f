// serve/shard.h — the sharded multi-tenant front: placement, byte
// correctness against the Codec oracle, per-tenant QoS and counter
// identities, bounded work stealing, and the front's schedule cache
// (warm start, installs under live serving).

#include "serve/shard.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "../test_util.h"
#include "core/tvmec.h"

namespace tvmec::serve {
namespace {

using Bytes = tensor::AlignedBuffer<std::uint8_t>;
using std::chrono::milliseconds;

constexpr CodecKey kKey{4, 2, 8, ec::RsFamily::CauchyGood};
constexpr std::size_t kUnit = 512;

Bytes oracle_parity(const CodecKey& key, std::span<const std::uint8_t> data,
                    std::size_t unit) {
  core::Codec codec(ec::CodeParams{key.k, key.r, key.w}, key.family);
  Bytes parity(key.r * unit);
  codec.encode(data, parity.span(), unit);
  return parity;
}

/// Manual-pump front: deterministic admission and execution.
ShardedServiceConfig pump_config(std::size_t shards) {
  ShardedServiceConfig cfg;
  cfg.num_shards = shards;
  cfg.workers_per_shard = 0;
  cfg.watchdog.enabled = false;
  return cfg;
}

/// A client id that hashes to the wanted shard.
std::uint64_t client_on_shard(std::size_t shard, std::size_t num_shards) {
  for (std::uint64_t c = 0;; ++c)
    if (ShardedEcService::shard_of(c, num_shards) == shard) return c;
}

TEST(ShardOf, StableInRangeAndSpreads) {
  bool hit[4] = {};
  for (std::uint64_t c = 0; c < 256; ++c) {
    const std::size_t s = ShardedEcService::shard_of(c, 4);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(s, ShardedEcService::shard_of(c, 4));  // stable
    hit[s] = true;
  }
  // 256 sequential ids must not all collapse onto a subset of shards.
  EXPECT_TRUE(hit[0] && hit[1] && hit[2] && hit[3]);
  EXPECT_EQ(ShardedEcService::shard_of(123, 1), 0u);
}

TEST(ShardedEcService, EncodeMatchesOracleAcrossShards) {
  ShardedEcService front(pump_config(3));
  constexpr int kClients = 9;
  std::vector<Bytes> data, parity;
  std::vector<EcFuture> futures;
  for (int c = 0; c < kClients; ++c) {
    data.push_back(testutil::random_bytes(kKey.k * kUnit, 100 + c));
    parity.emplace_back(kKey.r * kUnit);
  }
  for (int c = 0; c < kClients; ++c)
    futures.push_back(front.submit_encode(/*tenant=*/1, /*client=*/c, kKey,
                                          data[c].span(), parity[c].span(),
                                          kUnit));
  front.run_pending();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(futures[c].wait().status, RequestStatus::Ok);
    const Bytes want = oracle_parity(kKey, data[c].span(), kUnit);
    EXPECT_EQ(std::memcmp(parity[c].data(), want.data(), want.size()), 0)
        << "client " << c;
  }
}

TEST(ShardedEcService, DecodeRepairsAcrossShards) {
  ShardedEcService front(pump_config(2));
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 7);
  Bytes stripe(kKey.n() * kUnit);
  std::memcpy(stripe.data(), data.data(), data.size());
  const Bytes parity = oracle_parity(kKey, data.span(), kUnit);
  std::memcpy(stripe.data() + kKey.k * kUnit, parity.data(), parity.size());
  const Bytes want = stripe;
  const std::vector<std::size_t> erased{0, 5};
  for (const std::size_t id : erased)
    std::memset(stripe.data() + id * kUnit, 0xAB, kUnit);

  EcFuture f = front.submit_decode(2, /*client=*/42, kKey, stripe.span(),
                                   erased, kUnit);
  front.run_pending();
  EXPECT_EQ(f.wait().status, RequestStatus::Ok);
  EXPECT_EQ(std::memcmp(stripe.data(), want.data(), want.size()), 0);
}

TEST(ShardedEcService, ClientAffinityLandsOnOneShard) {
  ShardedEcService front(pump_config(4));
  const std::uint64_t client = 77;
  const std::size_t home = ShardedEcService::shard_of(client, 4);
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 3);
  std::vector<Bytes> parity;
  std::vector<EcFuture> futures;
  for (int i = 0; i < 5; ++i) parity.emplace_back(kKey.r * kUnit);
  for (int i = 0; i < 5; ++i)
    futures.push_back(front.submit_encode(1, client, kKey, data.span(),
                                          parity[i].span(), kUnit));
  front.run_pending();
  for (auto& f : futures) EXPECT_EQ(f.wait().status, RequestStatus::Ok);

  const ShardedStatsSnapshot s = front.stats();
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(s.shards[i].stats.submitted, i == home ? 5u : 0u)
        << "shard " << i;
}

TEST(ShardedEcService, PerTenantCountersBalanceAndMatchAggregate) {
  ShardedServiceConfig cfg = pump_config(2);
  cfg.shard.batch.queue_capacity = 2;  // force some Overloaded rejections
  ShardedEcService front(cfg);
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 4);
  std::vector<Bytes> parity;
  std::vector<EcFuture> futures;
  constexpr int kPerTenant = 6;
  for (int i = 0; i < 2 * kPerTenant; ++i) parity.emplace_back(kKey.r * kUnit);
  for (TenantId t = 1; t <= 2; ++t)
    for (int i = 0; i < kPerTenant; ++i)
      futures.push_back(front.submit_encode(t, /*client=*/t * 31 + i, kKey,
                                            data.span(),
                                            parity[(t - 1) * kPerTenant + i]
                                                .span(),
                                            kUnit));
  front.run_pending();
  for (auto& f : futures) f.wait();
  front.shutdown(true);

  const ShardedStatsSnapshot s = front.stats();
  ASSERT_EQ(s.tenants.size(), 2u);
  for (const TenantCounters& c : s.tenants) {
    EXPECT_TRUE(c.admission_balanced()) << "tenant " << c.tenant;
    EXPECT_TRUE(c.drained_balanced()) << "tenant " << c.tenant;
    EXPECT_EQ(c.submitted, static_cast<std::uint64_t>(kPerTenant));
  }
  // Tenant totals == front-wide totals, bucket by bucket, and the shard
  // sums reproduce the aggregate.
  EXPECT_TRUE(s.front_balanced());
  EXPECT_TRUE(s.tenant_aggregate.admission_balanced());
  EXPECT_TRUE(s.tenant_aggregate.drained_balanced());
}

TEST(ShardedEcService, QosRejectsTenantOverItsShare) {
  // Capacity 2 shards x 4 = 8; weights 1:7 give tenant 1 a share of 1.
  ShardedServiceConfig cfg = pump_config(2);
  cfg.shard.batch.queue_capacity = 4;
  cfg.tenant_policies[1] = {1.0, {}, 1};
  cfg.tenant_policies[2] = {7.0, {}, 1};
  ShardedEcService front(cfg);
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 5);
  Bytes p1(kKey.r * kUnit), p2(kKey.r * kUnit), p3(kKey.r * kUnit);

  EcFuture a = front.submit_encode(1, 1, kKey, data.span(), p1.span(), kUnit);
  // Occupancy 1 == share 1: rejected at the front, future ready at once.
  EcFuture b = front.submit_encode(1, 2, kKey, data.span(), p2.span(), kUnit);
  ASSERT_TRUE(b.ready());
  EXPECT_EQ(b.wait().status, RequestStatus::Overloaded);
  EXPECT_EQ(b.wait().batch_size, 0u);
  // The big tenant still gets in.
  EcFuture c = front.submit_encode(2, 3, kKey, data.span(), p3.span(), kUnit);
  front.run_pending();
  EXPECT_EQ(a.wait().status, RequestStatus::Ok);
  EXPECT_EQ(c.wait().status, RequestStatus::Ok);

  const ShardedStatsSnapshot s = front.stats();
  EXPECT_EQ(s.qos_rejected, 1u);
  const TenantCounters t1 = front.tenants().counters(1);
  EXPECT_EQ(t1.rejected_overload, 1u);
  EXPECT_TRUE(t1.admission_balanced());
  // Front-level rejections fold into the aggregate identity.
  EXPECT_TRUE(s.aggregate.admission_balanced());
  EXPECT_TRUE(s.front_balanced());
}

TEST(ShardedEcService, FrontBalancedFailsOnAnyBucketMismatch) {
  // A balanced snapshot of a two-shard front with one QoS rejection.
  ShardedServiceConfig cfg = pump_config(2);
  cfg.shard.batch.queue_capacity = 4;
  cfg.tenant_policies[1] = {1.0, {}, 1};
  cfg.tenant_policies[2] = {7.0, {}, 1};
  ShardedEcService front(cfg);
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 6);
  Bytes p1(kKey.r * kUnit), p2(kKey.r * kUnit), p3(kKey.r * kUnit);
  front.submit_encode(1, 1, kKey, data.span(), p1.span(), kUnit);
  front.submit_encode(1, 2, kKey, data.span(), p2.span(), kUnit);
  front.submit_encode(2, 3, kKey, data.span(), p3.span(), kUnit);
  front.shutdown(true);
  const ShardedStatsSnapshot balanced = front.stats();
  ASSERT_EQ(balanced.qos_rejected, 1u);
  ASSERT_TRUE(balanced.front_balanced());

  // The ten buckets listed here by hand, not from RequestCounters'
  // own table, so a bucket that table missed is still perturbed.
  static_assert(sizeof(RequestCounters) == 10 * sizeof(std::uint64_t));
  const RequestCounters::Bucket buckets[] = {
      &RequestCounters::submitted,         &RequestCounters::accepted,
      &RequestCounters::rejected_overload, &RequestCounters::rejected_shed,
      &RequestCounters::rejected_shutdown, &RequestCounters::completed_ok,
      &RequestCounters::expired,           &RequestCounters::failed,
      &RequestCounters::cancelled,         &RequestCounters::shutdown_drained};
  for (std::size_t i = 0; i < std::size(buckets); ++i) {
    ShardedStatsSnapshot shard = balanced;
    ++(shard.shards[1].stats.*buckets[i]);
    EXPECT_FALSE(shard.front_balanced()) << "shard bucket " << i;
    ShardedStatsSnapshot tenant = balanced;
    ++(tenant.tenant_aggregate.*buckets[i]);
    EXPECT_FALSE(tenant.front_balanced()) << "tenant bucket " << i;
  }
  ShardedStatsSnapshot qos = balanced;
  ++qos.qos_rejected;
  EXPECT_FALSE(qos.front_balanced());
}

TEST(ShardedEcService, DeadlineBudgetExpiresSlowTenants) {
  ShardedServiceConfig cfg = pump_config(1);
  cfg.tenant_policies[1] = {1.0, std::chrono::nanoseconds(1), 4};
  ShardedEcService front(cfg);
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 6);
  Bytes parity(kKey.r * kUnit);
  // A 1 ns budget: the request's unbounded deadline is clamped to
  // effectively "now" at admission and has certainly lapsed by the time
  // the pump forms the batch, so it expires at formation.
  EcFuture f = front.submit_encode(1, 0, kKey, data.span(), parity.span(),
                                   kUnit);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  front.run_pending();
  EXPECT_EQ(f.wait().status, RequestStatus::Expired);
  EXPECT_TRUE(front.tenants().counters(1).admission_balanced());
}

TEST(ShardedEcService, StealForDrainsHotNeighbor) {
  ShardedServiceConfig cfg = pump_config(2);
  cfg.steal.min_victim_wait = std::chrono::nanoseconds(0);
  cfg.steal.max_batches = 2;
  cfg.shard.batch.max_batch_requests = 1;  // one request per batch
  ShardedEcService front(cfg);
  const std::uint64_t hot_client = client_on_shard(1, 2);
  const std::size_t thief = 0;

  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 8);
  std::vector<Bytes> parity;
  std::vector<EcFuture> futures;
  for (int i = 0; i < 4; ++i) parity.emplace_back(kKey.r * kUnit);
  for (int i = 0; i < 4; ++i)
    futures.push_back(front.submit_encode(1, hot_client, kKey, data.span(),
                                          parity[i].span(), kUnit));
  // A shard's backlog: requests it accepted and has not finished.
  const auto backlog = [&](std::size_t shard) {
    const ServeStatsSnapshot st = front.stats().shards[shard].stats;
    return st.accepted - st.terminal();
  };
  ASSERT_EQ(backlog(1), 4u);
  ASSERT_EQ(backlog(thief), 0u);

  // The thief takes at most max_batches batches (1 request each here).
  EXPECT_EQ(front.steal_for(thief), 2u);
  EXPECT_EQ(backlog(1), 2u);
  const ShardedStatsSnapshot s = front.stats();
  EXPECT_EQ(s.steal_scans, 1u);
  EXPECT_EQ(s.steal_batches, 2u);
  EXPECT_EQ(s.steal_requests, 2u);

  front.run_pending();
  for (auto& f : futures) EXPECT_EQ(f.wait().status, RequestStatus::Ok);
  const Bytes want = oracle_parity(kKey, data.span(), kUnit);
  for (const Bytes& p : parity)
    EXPECT_EQ(std::memcmp(p.data(), want.data(), want.size()), 0);
}

TEST(ShardedEcService, StealRespectsVictimFloor) {
  ShardedServiceConfig cfg = pump_config(2);
  // Victim EWMA is 0 until its first pop; an absolute floor above 0
  // therefore disqualifies it.
  cfg.steal.min_victim_wait = std::chrono::hours(1);
  ShardedEcService front(cfg);
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 9);
  Bytes parity(kKey.r * kUnit);
  EcFuture f = front.submit_encode(1, client_on_shard(1, 2), kKey,
                                   data.span(), parity.span(), kUnit);
  EXPECT_EQ(front.steal_for(0), 0u);
  EXPECT_EQ(front.stats().steal_scans, 0u);
  front.run_pending();
  EXPECT_EQ(f.wait().status, RequestStatus::Ok);
}

TEST(ShardedEcService, WorkersServeSkewedLoadWithStealing) {
  ShardedServiceConfig cfg;
  cfg.num_shards = 2;
  cfg.workers_per_shard = 1;
  cfg.watchdog.enabled = false;
  cfg.steal.min_victim_wait = std::chrono::nanoseconds(0);
  cfg.steal.wait_ratio = 1.0;
  ShardedEcService front(cfg);
  const std::uint64_t hot_client = client_on_shard(0, 2);
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 10);
  std::vector<Bytes> parity;
  std::vector<EcFuture> futures;
  constexpr int kRequests = 64;
  for (int i = 0; i < kRequests; ++i) parity.emplace_back(kKey.r * kUnit);
  for (int i = 0; i < kRequests; ++i)
    futures.push_back(front.submit_encode(1, hot_client, kKey, data.span(),
                                          parity[i].span(), kUnit));
  for (auto& f : futures) EXPECT_EQ(f.wait().status, RequestStatus::Ok);
  front.shutdown(true);
  const Bytes want = oracle_parity(kKey, data.span(), kUnit);
  for (const Bytes& p : parity)
    EXPECT_EQ(std::memcmp(p.data(), want.data(), want.size()), 0);
  const ShardedStatsSnapshot s = front.stats();
  EXPECT_EQ(s.aggregate.completed_ok, static_cast<std::uint64_t>(kRequests));
  EXPECT_TRUE(s.tenant_aggregate.admission_balanced());
  EXPECT_TRUE(s.tenant_aggregate.drained_balanced());
}

TEST(ShardedEcService, CallerPlanCacheIsSharedByEveryShard) {
  // The front applies config.shard as written: a caller's plan cache is
  // the one every shard plans into, so a loss pattern one shard planned
  // is a hit on the other.
  const auto cache = std::make_shared<core::PlanCache>();
  ShardedServiceConfig cfg = pump_config(2);
  cfg.shard.plan_cache = cache;
  ShardedEcService front(cfg);

  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 13);
  Bytes want(kKey.n() * kUnit);
  std::memcpy(want.data(), data.data(), data.size());
  const Bytes parity = oracle_parity(kKey, data.span(), kUnit);
  std::memcpy(want.data() + kKey.k * kUnit, parity.data(), parity.size());
  const std::vector<std::size_t> erased{1, 4};
  for (std::size_t shard = 0; shard < 2; ++shard) {
    Bytes stripe = want;
    for (const std::size_t id : erased)
      std::memset(stripe.data() + id * kUnit, 0xEE, kUnit);
    EcFuture f = front.submit_decode(1, client_on_shard(shard, 2), kKey,
                                     stripe.span(), erased, kUnit);
    front.run_pending();
    ASSERT_EQ(f.wait().status, RequestStatus::Ok);
    ASSERT_EQ(std::memcmp(stripe.data(), want.data(), want.size()), 0);
  }

  const ShardedStatsSnapshot s = front.stats();
  ASSERT_EQ(s.shards[0].stats.submitted, 1u);
  ASSERT_EQ(s.shards[1].stats.submitted, 1u);
  // Shard 0 built the plan into the caller's cache; shard 1 found it.
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_GE(cache->stats().hits, 1u);
  // Both shards report the one shared cache; the aggregate counts it once.
  EXPECT_EQ(s.aggregate.plan_cache_misses, cache->stats().misses);
  EXPECT_EQ(s.aggregate.plan_cache_hits, cache->stats().hits);
}

TEST(ShardedEcService, ShutdownRejectsAndGoesUnhealthy) {
  ShardedEcService front(pump_config(2));
  front.shutdown(true);
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 11);
  Bytes parity(kKey.r * kUnit);
  EcFuture f = front.submit_encode(5, 0, kKey, data.span(), parity.span(),
                                   kUnit);
  EXPECT_EQ(f.wait().status, RequestStatus::Shutdown);
  const TenantCounters t = front.tenants().counters(5);
  EXPECT_EQ(t.rejected_shutdown, 1u);
  EXPECT_TRUE(t.admission_balanced());
  EXPECT_EQ(front.health().state, HealthState::Unhealthy);
  front.shutdown(true);  // idempotent
}

TEST(ShardedEcService, MalformedSubmissionThrowsWithoutAccounting) {
  ShardedEcService front(pump_config(1));
  Bytes small(16);
  Bytes parity(kKey.r * kUnit);
  EXPECT_THROW(front.submit_encode(1, 0, kKey, small.span(), parity.span(),
                                   kUnit),
               std::invalid_argument);
  EXPECT_EQ(front.tenants().counters(1).submitted, 0u);
  EXPECT_EQ(front.stats().aggregate.submitted, 0u);
}

tune::TaskShape encode_shape(const CodecKey& key, std::size_t unit) {
  return tune::TaskShape{key.r * key.w, unit / (8 * key.w), key.k * key.w};
}

TEST(ShardedEcService, WarmStartInstallsCachedScheduleOnFirstSight) {
  const std::string log =
      ::testing::TempDir() + "/shard_warm_start_schedules.log";
  std::remove(log.c_str());
  {
    // A previous run's best-known schedule for kKey/kUnit's task shape.
    tune::ScheduleCache cache;
    tensor::Schedule best = default_service_schedule();
    best.tile_m = 2;
    cache.install(encode_shape(kKey, kUnit), {best, 1.0e9});
    cache.save(log);
  }

  ShardedServiceConfig cfg = pump_config(2);
  cfg.schedule_log = log;
  ShardedEcService front(cfg);
  EXPECT_EQ(front.schedule_cache().size(), 1u);

  // Every batch of that shape, on either shard, reads the loaded entry.
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 12);
  const Bytes want = oracle_parity(kKey, data.span(), kUnit);
  for (std::size_t shard = 0; shard < 2; ++shard) {
    Bytes parity(kKey.r * kUnit);
    EcFuture f = front.submit_encode(1, client_on_shard(shard, 2), kKey,
                                     data.span(), parity.span(), kUnit);
    front.run_pending();
    EXPECT_EQ(f.wait().status, RequestStatus::Ok);
    EXPECT_EQ(std::memcmp(parity.data(), want.data(), want.size()), 0);
    EXPECT_EQ(front.stats().schedule_cache.hits, shard + 1);
  }
  std::remove(log.c_str());
}

TEST(ShardedEcService, ConcurrentCacheInstallsKeepServingExact) {
  // Schedules swap under live batches with no lock on the serving path:
  // the cache hands each GEMM call a copy, and every schedule computes
  // the same bytes.
  ShardedServiceConfig cfg;
  cfg.num_shards = 2;
  cfg.workers_per_shard = 2;
  cfg.shard.batch.max_batch_requests = 4;
  ShardedEcService front(cfg);
  const std::size_t units[2] = {kUnit, 8 * kUnit};
  const std::vector<tensor::Schedule> menu = {
      default_service_schedule(),
      {.tile_m = 1, .tile_n = 1},
      {.tile_m = 8, .tile_n = 64, .block_k = 8, .block_n = 256},
      {.tile_m = 4, .tile_n = 16, .variant = tensor::KernelVariant::Scalar}};

  constexpr int kPerClient = 100;
  std::atomic<int> served{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      const std::size_t unit = units[c];
      const Bytes data = testutil::random_bytes(kKey.k * unit, 300 + c);
      const Bytes want = oracle_parity(kKey, data.span(), unit);
      Bytes parity(kKey.r * unit);
      for (int i = 0; i < kPerClient; ++i) {
        EcFuture f = front.submit_encode(1, static_cast<std::uint64_t>(c),
                                         kKey, data.span(), parity.span(),
                                         unit);
        EXPECT_EQ(f.wait().status, RequestStatus::Ok);
        EXPECT_EQ(std::memcmp(parity.data(), want.data(), want.size()), 0);
        served.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 200; ++i) {
      // Paced by the clients' progress, so installs land mid-serving
      // instead of racing ahead of the first request.
      while (served.load() < i) std::this_thread::yield();
      for (const std::size_t unit : units)
        front.schedule_cache().install(encode_shape(kKey, unit),
                                       {menu[i % menu.size()], 1.0});
    }
  });
  for (std::thread& t : threads) t.join();
  front.shutdown();

  const ShardedStatsSnapshot fs = front.stats();
  EXPECT_EQ(fs.aggregate.completed_ok, 2u * kPerClient);
  EXPECT_TRUE(fs.aggregate.admission_balanced());
  EXPECT_TRUE(fs.aggregate.drained_balanced());
  EXPECT_TRUE(fs.front_balanced());
  EXPECT_EQ(fs.schedule_cache.installs, 400u);
}

}  // namespace
}  // namespace tvmec::serve
