// serve/ec_service.h — the batched asynchronous EC service, driven as
// the one shard of a ShardedEcService: correctness against the Codec
// oracle, admission control, deadline enforcement, shutdown semantics,
// degenerate code shapes, and the pool-sharing thread-cap rule. Most
// tests run a front with no serve threads and pump it on the test
// thread; the ones that need serve threads (concurrent clients, racing
// shutdown, the watchdog) give the front workers or its watchdog.

#include "serve/ec_service.h"

#include "serve/shard.h"
#include "tensor/kernel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "../test_util.h"
#include "core/tvmec.h"
#include "tensor/cancel.h"
#include "tensor/threadpool.h"
#include "tensor/variant.h"

namespace tvmec::serve {
namespace {

using Bytes = tensor::AlignedBuffer<std::uint8_t>;

constexpr CodecKey kKey{4, 2, 8, ec::RsFamily::CauchyGood};
constexpr std::size_t kUnit = 512;

Bytes oracle_parity(const CodecKey& key, std::span<const std::uint8_t> data,
                    std::size_t unit) {
  core::Codec codec(ec::CodeParams{key.k, key.r, key.w}, key.family);
  Bytes parity(key.r * unit);
  codec.encode(data, parity.span(), unit);
  return parity;
}

/// One shard on `workers` front threads (0 = pumped by the test
/// thread, with the front's watchdog still running). No QoS: the front
/// adds only its threads and tenant accounting.
ShardedServiceConfig one_shard_front(std::size_t workers) {
  ShardedServiceConfig cfg;
  cfg.num_shards = 1;
  cfg.workers_per_shard = workers;
  cfg.qos_enforcement = false;
  return cfg;
}

/// One shard with `shard` as its config and no serve threads at all (no
/// workers, no watchdog): the test thread pumps it, so admission and
/// execution are deterministic. Tests submit as tenant 1, client 0.
ShardedServiceConfig manual_front(const ServiceConfig& shard = {}) {
  ShardedServiceConfig cfg = one_shard_front(/*workers=*/0);
  cfg.watchdog.enabled = false;
  cfg.shard = shard;
  return cfg;
}

TEST(EcService, EncodeMatchesCodecOracle) {
  ShardedEcService front(manual_front());
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 1);
  Bytes parity(kKey.r * kUnit);
  EcFuture f =
      front.submit_encode(1, 0, kKey, data.span(), parity.span(), kUnit);
  front.run_pending();
  const EcResult& r = f.wait();
  EXPECT_EQ(r.status, RequestStatus::Ok);
  EXPECT_EQ(r.batch_size, 1u);
  EXPECT_GE(r.total.count(), 0);
  const Bytes want = oracle_parity(kKey, data.span(), kUnit);
  EXPECT_EQ(std::memcmp(parity.data(), want.data(), want.size()), 0);
}

TEST(EcService, DecodeRepairsStripeInPlace) {
  // The second loss list names four ids but two distinct ones: within
  // r = 2, so it is recoverable.
  using Ids = std::vector<std::size_t>;
  for (const Ids& erased : {Ids{1, 4}, Ids{4, 1, 4, 1}}) {
    ShardedEcService front(manual_front());
    const Bytes data = testutil::random_bytes(kKey.k * kUnit, 2);
    Bytes stripe(kKey.n() * kUnit);
    std::memcpy(stripe.data(), data.data(), data.size());
    const Bytes parity = oracle_parity(kKey, data.span(), kUnit);
    std::memcpy(stripe.data() + kKey.k * kUnit, parity.data(), parity.size());
    const Bytes want = stripe;

    for (const std::size_t id : erased)
      std::memset(stripe.data() + id * kUnit, 0xEE, kUnit);
    EcFuture f =
        front.submit_decode(1, 0, kKey, stripe.span(), erased, kUnit);
    front.run_pending();
    EXPECT_EQ(f.wait().status, RequestStatus::Ok);
    EXPECT_EQ(std::memcmp(stripe.data(), want.data(), want.size()), 0);
  }
}

TEST(EcService, ConcurrentClientsAllServedCorrectly) {
  ShardedServiceConfig cfg = one_shard_front(/*workers=*/2);
  cfg.shard.batch.max_batch_requests = 8;
  ShardedEcService front(cfg);
  constexpr int kClients = 4;
  constexpr int kPerClient = 50;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const Bytes data =
          testutil::random_bytes(kKey.k * kUnit, 100 + static_cast<unsigned>(c));
      const Bytes want = oracle_parity(kKey, data.span(), kUnit);
      Bytes parity(kKey.r * kUnit);
      for (int i = 0; i < kPerClient; ++i) {
        EcFuture f = front.submit_encode(/*tenant=*/1, /*client=*/c, kKey,
                                         data.span(), parity.span(), kUnit);
        ASSERT_EQ(f.wait().status, RequestStatus::Ok);
        ASSERT_EQ(std::memcmp(parity.data(), want.data(), want.size()), 0);
      }
    });
  }
  for (auto& t : clients) t.join();
  front.shutdown();
  const ShardedStatsSnapshot fs = front.stats();
  const ServeStatsSnapshot& s = fs.aggregate;
  EXPECT_EQ(s.completed_ok, kClients * kPerClient);
  EXPECT_TRUE(s.admission_balanced());
  EXPECT_EQ(s.rejected(), 0u);
  EXPECT_TRUE(s.drained_balanced());
  EXPECT_EQ(s.cancelled + s.shutdown_drained, 0u);
  EXPECT_TRUE(fs.front_balanced());
  EXPECT_GE(s.batch_width.max(), 1u);
}

TEST(EcService, ManualPumpBackpressureIsDeterministic) {
  ServiceConfig cfg;
  cfg.batch.queue_capacity = 3;
  ShardedEcService front(manual_front(cfg));
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 3);
  std::vector<Bytes> parities;
  std::vector<EcFuture> futures;
  for (int i = 0; i < 5; ++i) {
    parities.emplace_back(kKey.r * kUnit);
    futures.push_back(front.submit_encode(1, 0, kKey, data.span(),
                                          parities.back().span(), kUnit));
  }
  // Exactly the first `capacity` submissions are accepted.
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(futures[i].ready()) << i;
  for (int i = 3; i < 5; ++i) {
    ASSERT_TRUE(futures[i].ready()) << i;
    EXPECT_EQ(futures[i].wait().status, RequestStatus::Overloaded) << i;
    EXPECT_EQ(futures[i].wait().batch_size, 0u);
  }
  EXPECT_EQ(front.run_pending(), 3u);
  const Bytes want = oracle_parity(kKey, data.span(), kUnit);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(futures[i].wait().status, RequestStatus::Ok);
    EXPECT_EQ(std::memcmp(parities[static_cast<std::size_t>(i)].data(),
                          want.data(), want.size()),
              0);
  }
  const ServeStatsSnapshot s = front.stats().aggregate;
  EXPECT_EQ(s.submitted, 5u);
  EXPECT_EQ(s.accepted, 3u);
  EXPECT_EQ(s.rejected_overload, 2u);
}

TEST(EcService, ExpiredRequestNeverExecutesAndLeavesOutputUntouched) {
  ServiceConfig cfg;
  ShardedEcService front(manual_front(cfg));
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 4);
  Bytes parity(kKey.r * kUnit);
  std::memset(parity.data(), 0xAB, parity.size());
  // Negative timeout: already expired at submission.
  EcFuture f = front.submit_encode(1, 0, kKey, data.span(), parity.span(),
                                   kUnit, std::chrono::nanoseconds{-1});
  EXPECT_FALSE(f.ready());  // expiry is enforced at batch formation
  front.run_pending();
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.wait().status, RequestStatus::Expired);
  EXPECT_EQ(f.wait().batch_size, 0u);
  for (std::size_t i = 0; i < parity.size(); ++i)
    ASSERT_EQ(parity[i], 0xAB) << i;
  const ServeStatsSnapshot s = front.stats().aggregate;
  EXPECT_EQ(s.expired, 1u);
  // The whole batch expired before work: an empty flush, not a batch.
  EXPECT_EQ(s.batches, 0u);
  EXPECT_EQ(s.empty_flushes, 1u);
}

TEST(EcService, MixedExpiryExecutesOnlyLiveRequests) {
  ServiceConfig cfg;
  ShardedEcService front(manual_front(cfg));
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 5);
  Bytes p_live(kKey.r * kUnit), p_dead(kKey.r * kUnit);
  EcFuture live =
      front.submit_encode(1, 0, kKey, data.span(), p_live.span(), kUnit);
  EcFuture dead = front.submit_encode(1, 0, kKey, data.span(), p_dead.span(),
                                      kUnit, std::chrono::nanoseconds{-1});
  front.run_pending();
  EXPECT_EQ(live.wait().status, RequestStatus::Ok);
  EXPECT_EQ(live.wait().batch_size, 1u);  // the expired one never counted
  EXPECT_EQ(dead.wait().status, RequestStatus::Expired);
}

TEST(EcService, DegenerateShapes) {
  ServiceConfig cfg;
  ShardedEcService front(manual_front(cfg));
  // k == 1, r == 0: striping only — encode produces no parity.
  const CodecKey trivial{1, 0, 8, ec::RsFamily::CauchyGood};
  const Bytes data = testutil::random_bytes(kUnit, 6);
  EcFuture f = front.submit_encode(1, 0, trivial, data.span(), {}, kUnit);
  front.run_pending();
  EXPECT_EQ(f.wait().status, RequestStatus::Ok);

  // k == 1, r == 2 round trip.
  const CodecKey tiny{1, 2, 8, ec::RsFamily::CauchyGood};
  Bytes stripe(3 * kUnit);
  std::memcpy(stripe.data(), data.data(), kUnit);
  const Bytes parity = oracle_parity(tiny, data.span(), kUnit);
  std::memcpy(stripe.data() + kUnit, parity.data(), parity.size());
  std::memset(stripe.data(), 0xEE, kUnit);
  const std::vector<std::size_t> erased{0};
  EcFuture g = front.submit_decode(1, 0, tiny, stripe.span(), erased, kUnit);
  front.run_pending();
  EXPECT_EQ(g.wait().status, RequestStatus::Ok);
  EXPECT_EQ(std::memcmp(stripe.data(), data.data(), kUnit), 0);
}

TEST(EcService, UnrecoverablePatternCompletesFailed) {
  ServiceConfig cfg;
  ShardedEcService front(manual_front(cfg));
  Bytes stripe(kKey.n() * kUnit);
  const std::vector<std::size_t> erased{0, 1, 2};  // > r = 2 distinct
  EcFuture f = front.submit_decode(1, 0, kKey, stripe.span(), erased, kUnit);
  front.run_pending();
  EXPECT_EQ(f.wait().status, RequestStatus::Failed);
  EXPECT_FALSE(f.wait().error.empty());
  const ServeStatsSnapshot s = front.stats().aggregate;
  EXPECT_EQ(s.failed, 1u);
  // Failed at formation: it never ran, so it adds no service time.
  EXPECT_EQ(s.service_ns.count(), 0u);
  EXPECT_EQ(s.batches, 0u);
}

TEST(EcService, UnrecoverableDecodesNeverTripTheBreaker) {
  // A decode with more than r distinct erasures is the client's error:
  // it fails at batch formation, before any kernel call, so the breaker
  // (the default policy trips after three failures) never hears it.
  ShardedEcService front(manual_front());
  Bytes hopeless(kKey.n() * kUnit);
  const std::vector<std::size_t> too_many{0, 1, 2};  // > r = 2 distinct
  for (int i = 0; i < 3; ++i) {
    EcFuture f =
        front.submit_decode(1, 0, kKey, hopeless.span(), too_many, kUnit);
    front.run_pending();
    EXPECT_EQ(f.wait().status, RequestStatus::Failed);
    EXPECT_FALSE(f.wait().error.empty());
  }
  const HealthSnapshot h = front.health();
  EXPECT_EQ(h.state, HealthState::Ok);
  for (const std::string& reason : h.reasons)
    EXPECT_EQ(reason.find("breaker"), std::string::npos) << reason;
  EXPECT_EQ(front.stats().aggregate.breaker_trips, 0u);

  // Another tenant's good decode, from another client, runs on the
  // primary path.
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 28);
  Bytes stripe(kKey.n() * kUnit);
  std::memcpy(stripe.data(), data.data(), data.size());
  const Bytes parity = oracle_parity(kKey, data.span(), kUnit);
  std::memcpy(stripe.data() + kKey.k * kUnit, parity.data(), parity.size());
  const Bytes want = stripe;
  const std::vector<std::size_t> erased{1, 4};
  for (const std::size_t id : erased)
    std::memset(stripe.data() + id * kUnit, 0xEE, kUnit);
  EcFuture g = front.submit_decode(2, 1, kKey, stripe.span(), erased, kUnit);
  front.run_pending();
  EXPECT_EQ(g.wait().status, RequestStatus::Ok);
  EXPECT_EQ(std::memcmp(stripe.data(), want.data(), want.size()), 0);
  const ServeStatsSnapshot s = front.stats().aggregate;
  EXPECT_EQ(s.degraded_batches, 0u);
  EXPECT_EQ(s.failed, 3u);
  EXPECT_EQ(s.completed_ok, 1u);
  EXPECT_EQ(s.service_ns.count(), 1u);  // only the decode that ran
}

TEST(EcService, InvalidArgumentsThrowAtSubmit) {
  ServiceConfig cfg;
  ShardedEcService front(manual_front(cfg));
  Bytes data(kKey.k * kUnit), parity(kKey.r * kUnit), stripe(kKey.n() * kUnit);
  // Wrong span sizes.
  EXPECT_THROW(front.submit_encode(1, 0, kKey, data.span().subspan(1),
                                   parity.span(), kUnit),
               std::invalid_argument);
  // Bad unit size (not a multiple of w).
  EXPECT_THROW(front.submit_encode(1, 0, kKey, data.span().first(kKey.k * 3),
                                   parity.span().first(kKey.r * 3), 3),
               std::invalid_argument);
  // Out-of-range erasure id.
  const std::vector<std::size_t> bad{kKey.n()};
  EXPECT_THROW(front.submit_decode(1, 0, kKey, stripe.span(), bad, kUnit),
               std::invalid_argument);
  // Nothing was admitted.
  EXPECT_EQ(front.stats().aggregate.accepted, 0u);
}

TEST(EcService, ShutdownDrainCompletesInFlightRequests) {
  ShardedEcService front(one_shard_front(/*workers=*/1));
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 7);
  std::vector<Bytes> parities;
  std::vector<EcFuture> futures;
  for (int i = 0; i < 32; ++i) {
    parities.emplace_back(kKey.r * kUnit);
    futures.push_back(front.submit_encode(/*tenant=*/1, /*client=*/0, kKey,
                                          data.span(), parities.back().span(),
                                          kUnit));
  }
  front.shutdown(/*drain=*/true);
  const Bytes want = oracle_parity(kKey, data.span(), kUnit);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_TRUE(futures[i].ready()) << i;
    EXPECT_EQ(futures[i].wait().status, RequestStatus::Ok) << i;
    EXPECT_EQ(std::memcmp(parities[i].data(), want.data(), want.size()), 0);
  }
}

TEST(EcService, ShutdownWithoutDrainCompletesQueuedAsShutdown) {
  ServiceConfig cfg;
  ShardedEcService front(manual_front(cfg));
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 8);
  std::vector<Bytes> parities;
  std::vector<EcFuture> futures;
  for (int i = 0; i < 8; ++i) {
    parities.emplace_back(kKey.r * kUnit);
    futures.push_back(front.submit_encode(1, 0, kKey, data.span(),
                                          parities.back().span(), kUnit));
  }
  front.shutdown(/*drain=*/false);
  for (auto& f : futures) {
    ASSERT_TRUE(f.ready());
    EXPECT_EQ(f.wait().status, RequestStatus::Shutdown);
  }
  const ServeStatsSnapshot s = front.stats().aggregate;
  // These requests were *accepted* and then abandoned: they must land in
  // the drained bucket, not rejected_shutdown, or the identity
  // accepted == ok + expired + failed + cancelled + drained breaks.
  EXPECT_EQ(s.shutdown_drained, 8u);
  EXPECT_EQ(s.rejected_shutdown, 0u);
  EXPECT_EQ(s.accepted, 8u);
  EXPECT_EQ(s.completed_ok, 0u);
}

TEST(EcService, SubmitAfterShutdownCompletesAsShutdownImmediately) {
  ShardedEcService front(manual_front());
  front.shutdown();
  Bytes data(kKey.k * kUnit), parity(kKey.r * kUnit);
  EcFuture f =
      front.submit_encode(1, 0, kKey, data.span(), parity.span(), kUnit);
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.wait().status, RequestStatus::Shutdown);
  // Idempotent.
  front.shutdown();
  front.shutdown(false);
}

TEST(EcService, ConcurrentSubmitAndShutdownLeavesNoFutureHanging) {
  // Every submission must reach a terminal status even when shutdown
  // races the submitters and the workers — the TSan-watched path.
  ShardedEcService front(one_shard_front(/*workers=*/2));
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 9);
  std::vector<std::thread> submitters;
  std::vector<std::vector<EcFuture>> futures(3);
  std::vector<std::vector<Bytes>> parities(3);
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        parities[t].emplace_back(kKey.r * kUnit);
        futures[t].push_back(front.submit_encode(
            /*tenant=*/1, /*client=*/static_cast<std::uint64_t>(t), kKey,
            data.span(), parities[t].back().span(), kUnit));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  front.shutdown(/*drain=*/true);
  for (auto& th : submitters) th.join();
  std::size_t terminal = 0;
  for (auto& vec : futures)
    for (auto& f : vec) {
      const EcResult& r = f.wait();  // must not hang
      EXPECT_NE(r.status, RequestStatus::Pending);
      ++terminal;
    }
  EXPECT_EQ(terminal, 300u);
  const ShardedStatsSnapshot fs = front.stats();
  const ServeStatsSnapshot& s = fs.aggregate;
  EXPECT_EQ(s.submitted, 300u);
  EXPECT_TRUE(s.admission_balanced());
  EXPECT_TRUE(s.drained_balanced());
  EXPECT_TRUE(fs.front_balanced());
}

// Satellite 2 regression: the pool-sharing thread cap. Concurrent
// service workers must split the pool instead of each requesting its
// full width, and tiny batches must not fork at all.
TEST(EcService, EffectiveGemmThreadsCapsByWorkersAndWork) {
  constexpr std::size_t kWords = detail::EcService::kMinWordsPerGemmThread;
  // Fair share: pool of 8 split across 2 workers -> at most 4 each.
  EXPECT_EQ(detail::EcService::effective_gemm_threads(100 * kWords, 8, 2), 4);
  EXPECT_EQ(detail::EcService::effective_gemm_threads(100 * kWords, 8, 4), 2);
  // Work-bound: a batch with fewer than 2 * kMinWordsPerGemmThread words
  // runs serial regardless of pool width.
  EXPECT_EQ(detail::EcService::effective_gemm_threads(kWords - 1, 64, 1), 1);
  EXPECT_EQ(detail::EcService::effective_gemm_threads(2 * kWords, 64, 1), 2);
  // Never zero, even on degenerate inputs.
  EXPECT_EQ(detail::EcService::effective_gemm_threads(0, 0, 0), 1);
  // More workers than pool width still leaves one thread each.
  EXPECT_EQ(detail::EcService::effective_gemm_threads(100 * kWords, 2, 8), 1);
  // Bounded by the kernel's schedule limit.
  EXPECT_LE(detail::EcService::effective_gemm_threads(1 << 30, 1024, 1), 256);
}

TEST(EcService, GemmThreadCapIsObservedPerBatch) {
  ServiceConfig cfg;
  cfg.batch.max_batch_requests = 16;
  ShardedEcService front(manual_front(cfg));
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 10);
  std::vector<Bytes> parities;
  std::vector<EcFuture> futures;
  for (int i = 0; i < 16; ++i) {
    parities.emplace_back(kKey.r * kUnit);
    futures.push_back(front.submit_encode(1, 0, kKey, data.span(),
                                          parities.back().span(), kUnit));
  }
  front.run_pending();
  const ServeStatsSnapshot s = front.stats().aggregate;
  ASSERT_GE(s.gemm_threads.count(), 1u);
  // Every recorded batch honored the cap for a manual pump (1 "worker").
  const std::size_t batch_words =
      16 * (kKey.k + kKey.r) * kUnit / sizeof(std::uint64_t);
  const int cap = detail::EcService::effective_gemm_threads(
      batch_words, tensor::ThreadPool::shared().size(), 1);
  EXPECT_LE(s.gemm_threads.max(), static_cast<std::uint64_t>(cap));
  // And the batch former actually coalesced.
  EXPECT_EQ(s.batch_width.max(), 16u);
  EXPECT_EQ(s.batches, 1u);

  // The histogram records the threads the kernel ran, not the cap: a
  // one-thread schedule runs one thread however wide the cap is.
  cfg.schedule.num_threads = 1;
  ShardedEcService serial(manual_front(cfg));
  for (int i = 0; i < 16; ++i)
    futures.push_back(serial.submit_encode(1, 0, kKey, data.span(),
                                           parities[i].span(), kUnit));
  serial.run_pending();
  EXPECT_EQ(serial.stats().aggregate.gemm_threads.count(), 1u);
  EXPECT_EQ(serial.stats().aggregate.gemm_threads.max(), 1u);
}

TEST(EcService, CancelledQueuedRequestNeverExecutes) {
  ServiceConfig cfg;
  ShardedEcService front(manual_front(cfg));
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 20);
  Bytes parity(kKey.r * kUnit);
  std::memset(parity.data(), 0xCD, parity.size());
  EcFuture f =
      front.submit_encode(1, 0, kKey, data.span(), parity.span(), kUnit);
  f.cancel();
  EXPECT_TRUE(f.cancel_requested());
  front.run_pending();
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.wait().status, RequestStatus::Cancelled);
  // The kernel never touched the output.
  for (std::size_t i = 0; i < parity.size(); ++i)
    ASSERT_EQ(parity[i], 0xCD);
  const ServeStatsSnapshot s = front.stats().aggregate;
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.accepted, 1u);
  EXPECT_EQ(s.completed_ok, 0u);
  EXPECT_EQ(s.empty_flushes, 1u);  // the whole batch was dead
}

TEST(EcService, CallerSuppliedCancelTokenHonored) {
  ServiceConfig cfg;
  ShardedEcService front(manual_front(cfg));
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 21);
  Bytes parity(kKey.r * kUnit);
  tensor::CancelSource source;
  EcRequest req;
  req.kind = RequestKind::Encode;
  req.key = kKey;
  req.unit_size = kUnit;
  req.in = data.span();
  req.out = parity.span();
  req.cancel = source.token();
  EcFuture f = front.submit_request(1, 0, std::move(req));
  source.request_cancel();
  front.run_pending();
  EXPECT_EQ(f.wait().status, RequestStatus::Cancelled);
}

TEST(EcService, CancelAfterCompletionKeepsOriginalStatus) {
  ServiceConfig cfg;
  ShardedEcService front(manual_front(cfg));
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 22);
  Bytes parity(kKey.r * kUnit);
  EcFuture f =
      front.submit_encode(1, 0, kKey, data.span(), parity.span(), kUnit);
  front.run_pending();
  ASSERT_EQ(f.wait().status, RequestStatus::Ok);
  f.cancel();  // too late: must not rewrite history
  EXPECT_EQ(f.wait().status, RequestStatus::Ok);
  EXPECT_EQ(front.stats().aggregate.cancelled, 0u);
}

TEST(EcService, DeadlineSheddingRejectsDoomedRequests) {
  ServiceConfig cfg;
  cfg.batch.deadline_shedding = true;
  ShardedEcService front(manual_front(cfg));
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 23);
  Bytes parity(kKey.r * kUnit);
  // Negative timeout = deadline already passed: with shedding on this is
  // rejected at admission (Shed), not queued to expire later.
  EcFuture doomed = front.submit_encode(1, 0, kKey, data.span(), parity.span(),
                                        kUnit, std::chrono::seconds(-1));
  ASSERT_TRUE(doomed.ready());
  EXPECT_EQ(doomed.wait().status, RequestStatus::Shed);
  // A comfortable deadline sails through.
  Bytes parity2(kKey.r * kUnit);
  EcFuture fine = front.submit_encode(1, 0, kKey, data.span(), parity2.span(),
                                      kUnit, std::chrono::hours(1));
  front.run_pending();
  EXPECT_EQ(fine.wait().status, RequestStatus::Ok);
  const ServeStatsSnapshot s = front.stats().aggregate;
  EXPECT_EQ(s.rejected_shed, 1u);
  EXPECT_EQ(s.submitted, 2u);
  EXPECT_EQ(s.accepted, 1u);
  EXPECT_TRUE(s.admission_balanced());
}

TEST(EcService, BreakerTripsToDegradedPathWithCorrectBytes) {
  ServiceConfig cfg;
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.cooldown = std::chrono::hours(1);  // no recovery this test
  std::atomic<bool> inject{true};
  cfg.fault_injector = [&](RequestKind, const CodecKey&, std::size_t) {
    return inject.load();
  };
  ShardedEcService front(manual_front(cfg));
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 24);
  const Bytes want = oracle_parity(kKey, data.span(), kUnit);

  const auto one = [&](Bytes& parity) {
    EcFuture f =
        front.submit_encode(1, 0, kKey, data.span(), parity.span(), kUnit);
    front.run_pending();
    return f.wait().status;
  };

  // Two failing primary batches trip the breaker. The requests still
  // complete Ok — the singly-rescue path repairs them — so callers see
  // latency, never errors, while the breaker counts the batch failures.
  Bytes p1(kKey.r * kUnit), p2(kKey.r * kUnit), p3(kKey.r * kUnit);
  EXPECT_EQ(one(p1), RequestStatus::Ok);
  EXPECT_EQ(one(p2), RequestStatus::Ok);
  ServeStatsSnapshot s = front.stats().aggregate;
  EXPECT_EQ(s.breaker_trips, 1u);
  EXPECT_EQ(s.degraded_batches, 0u);

  // Tripped: the next batch runs on the naive reference backend —
  // byte-identical parity, injector never consulted.
  EXPECT_EQ(one(p3), RequestStatus::Ok);
  s = front.stats().aggregate;
  EXPECT_EQ(s.degraded_batches, 1u);
  EXPECT_EQ(std::memcmp(p3.data(), want.data(), want.size()), 0);

  // Observable in health() as a degraded (not unhealthy) service.
  const HealthSnapshot h = front.health();
  EXPECT_EQ(h.state, HealthState::Degraded);
  ASSERT_FALSE(h.reasons.empty());
  EXPECT_NE(h.reasons.front().find("breaker"), std::string::npos);
}

TEST(EcService, BreakerRecoversThroughProbes) {
  ServiceConfig cfg;
  cfg.breaker.failure_threshold = 1;
  cfg.breaker.success_threshold = 2;
  cfg.breaker.cooldown = std::chrono::nanoseconds(0);  // probe immediately
  std::atomic<bool> inject{true};
  cfg.fault_injector = [&](RequestKind, const CodecKey&, std::size_t) {
    return inject.load();
  };
  ShardedEcService front(manual_front(cfg));
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 25);
  const auto one = [&] {
    Bytes parity(kKey.r * kUnit);
    EcFuture f =
        front.submit_encode(1, 0, kKey, data.span(), parity.span(), kUnit);
    front.run_pending();
    return f.wait().status;
  };

  EXPECT_EQ(one(), RequestStatus::Ok);  // primary fails (rescued), trips
  ASSERT_EQ(front.stats().aggregate.breaker_trips, 1u);

  // Backend "recovers": probes now succeed. Two probe successes close.
  inject.store(false);
  EXPECT_EQ(one(), RequestStatus::Ok);  // probe 1
  EXPECT_EQ(one(), RequestStatus::Ok);  // probe 2 -> Closed
  const ServeStatsSnapshot s = front.stats().aggregate;
  EXPECT_EQ(s.breaker_recoveries, 1u);
  EXPECT_GE(s.breaker_probes, 2u);
  EXPECT_EQ(front.health().state, HealthState::Ok);
  // And the next batch is primary again (no further degraded batches).
  EXPECT_EQ(one(), RequestStatus::Ok);
  EXPECT_EQ(front.stats().aggregate.degraded_batches, s.degraded_batches);
}

TEST(EcService, BreakerDisabledKeepsRetryingPrimary) {
  ServiceConfig cfg;
  cfg.breaker.enabled = false;
  std::atomic<int> injections{0};
  cfg.fault_injector = [&](RequestKind, const CodecKey&, std::size_t) {
    ++injections;
    return true;
  };
  ShardedEcService front(manual_front(cfg));
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 26);
  for (int i = 0; i < 5; ++i) {
    Bytes parity(kKey.r * kUnit);
    EcFuture f =
        front.submit_encode(1, 0, kKey, data.span(), parity.span(), kUnit);
    front.run_pending();
    EXPECT_EQ(f.wait().status, RequestStatus::Ok);
  }
  EXPECT_EQ(injections.load(), 5);  // every batch retried the primary
  EXPECT_EQ(front.stats().aggregate.degraded_batches, 0u);
  EXPECT_EQ(front.stats().aggregate.breaker_trips, 0u);
}

TEST(EcService, CounterIdentitiesHoldAcrossAllOutcomes) {
  // Satellite audit: one run that exercises every terminal bucket, then
  // checks both identities exactly.
  ServiceConfig cfg;
  cfg.batch.queue_capacity = 4;
  cfg.batch.deadline_shedding = true;
  ShardedEcService front(manual_front(cfg));
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 27);
  std::vector<Bytes> parities;
  std::vector<EcFuture> futures;
  const auto submit = [&](std::chrono::nanoseconds timeout) {
    parities.emplace_back(kKey.r * kUnit);
    futures.push_back(front.submit_encode(
        1, 0, kKey, data.span(), parities.back().span(), kUnit, timeout));
  };

  submit({});                         // -> Ok
  submit(std::chrono::seconds(-1));   // -> Shed (shedding on)
  submit({});                         // -> Cancelled
  futures.back().cancel();
  front.run_pending();                // executes the two queued ones
  submit({});                         // queued ...
  submit({});
  submit({});
  submit({});                         // queue now full (capacity 4)
  submit({});                         // -> Overloaded
  front.shutdown(/*drain=*/false);    // queued 4 -> Shutdown (drained)
  submit({});                         // -> Shutdown (rejected at submit)

  for (auto& f : futures) ASSERT_TRUE(f.ready());
  const ServeStatsSnapshot s = front.stats().aggregate;
  EXPECT_EQ(s.submitted, 9u);
  EXPECT_EQ(s.completed_ok, 1u);
  EXPECT_EQ(s.rejected_shed, 1u);
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.rejected_overload, 1u);
  EXPECT_EQ(s.shutdown_drained, 4u);
  EXPECT_EQ(s.rejected_shutdown, 1u);
  EXPECT_TRUE(s.admission_balanced());
  EXPECT_TRUE(s.drained_balanced());
}

TEST(EcService, HealthReportsOkThenUnhealthyAfterShutdown) {
  ShardedEcService front(manual_front());
  HealthSnapshot h = front.health();
  EXPECT_EQ(h.state, HealthState::Ok);
  EXPECT_TRUE(h.reasons.empty());
  EXPECT_EQ(h.kernel_variant, tensor::to_string(tensor::active_variant()));
  front.shutdown();
  h = front.health();
  EXPECT_EQ(h.state, HealthState::Unhealthy);
  ASSERT_FALSE(h.reasons.empty());
  EXPECT_NE(h.reasons.front().find("shut down"), std::string::npos);
}

TEST(EcService, BatchingOffForcesSingletonBatches) {
  // The one-request-at-a-time ablation is a batch cap of 1.
  ServiceConfig cfg;
  cfg.batch.max_batch_requests = 1;
  ShardedEcService front(manual_front(cfg));
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 11);
  std::vector<Bytes> parities;
  std::vector<EcFuture> futures;
  for (int i = 0; i < 6; ++i) {
    parities.emplace_back(kKey.r * kUnit);
    futures.push_back(front.submit_encode(1, 0, kKey, data.span(),
                                          parities.back().span(), kUnit));
  }
  front.run_pending();
  const ServeStatsSnapshot s = front.stats().aggregate;
  EXPECT_EQ(s.batches, 6u);
  EXPECT_EQ(s.batch_width.max(), 1u);
  for (auto& f : futures) EXPECT_EQ(f.wait().batch_size, 1u);
}

// --- Mid-kernel cancellation and the watchdog ------------------------------
//
// The watchdog is the front's thread. The fault-injector hook runs inside
// a batch after the batch registered with the watchdog and before its
// kernel starts, so holding the batch there until the watchdog fires
// means the kernel starts with its cancel token already set and must
// throw at its first chunk claim (KernelCancel.BatchedPreCancelledThrows
// pins that at the kernel level). An Ok status would mean the kernel
// ignored the token.

/// A hook that holds every batch until the front's watchdog has aborted
/// one, then lets it run without injecting a fault. It gives up after
/// 10 s, so a watchdog that never fires fails the test instead of
/// hanging it. `entered` counts the batches that reached the hook.
struct HoldUntilWatchdogAborts {
  const ShardedEcService* const* front;
  std::atomic<int>* entered;
  bool operator()(RequestKind, const CodecKey&, std::size_t) const {
    entered->fetch_add(1);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((*front)->stats().aggregate.watchdog_aborts == 0 &&
           std::chrono::steady_clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return false;
  }
};

TEST(Watchdog, AbortsExpiredBatchMidKernel) {
  const ShardedEcService* front_ptr = nullptr;
  std::atomic<int> entered{0};
  ShardedServiceConfig cfg = one_shard_front(/*workers=*/0);
  cfg.watchdog.poll = std::chrono::milliseconds(1);
  cfg.watchdog.stuck_budget = std::chrono::hours(1);
  cfg.shard.fault_injector = HoldUntilWatchdogAborts{&front_ptr, &entered};
  ShardedEcService front(cfg);
  front_ptr = &front;
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 32);
  Bytes parity(kKey.r * kUnit);

  // The test thread pumps right after submitting, so the batch forms
  // live; the deadline then lapses while the hook holds it, and the
  // watchdog aborts the all-dead batch.
  EcFuture f = front.submit_encode(/*tenant=*/1, /*client=*/0, kKey,
                                   data.span(), parity.span(), kUnit,
                                   std::chrono::milliseconds(100));
  front.run_pending();
  EXPECT_EQ(entered.load(), 1);
  EXPECT_EQ(f.wait().status, RequestStatus::Expired);
  EXPECT_GE(front.stats().aggregate.watchdog_aborts, 1u);
}

TEST(Watchdog, ClientCancelAbortsRunningBatch) {
  const ShardedEcService* front_ptr = nullptr;
  std::atomic<int> entered{0};
  ShardedServiceConfig cfg = one_shard_front(/*workers=*/1);
  cfg.watchdog.poll = std::chrono::milliseconds(1);
  cfg.watchdog.stuck_budget = std::chrono::hours(1);
  cfg.shard.fault_injector = HoldUntilWatchdogAborts{&front_ptr, &entered};
  ShardedEcService front(cfg);
  front_ptr = &front;
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 33);
  Bytes parity(kKey.r * kUnit);

  EcFuture f = front.submit_encode(/*tenant=*/1, /*client=*/0, kKey,
                                   data.span(), parity.span(), kUnit);
  // Wait until a front worker holds the batch, so this cancel can only
  // land through the watchdog.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (entered.load() == 0 && std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(entered.load(), 1);
  f.cancel();
  EXPECT_EQ(f.wait().status, RequestStatus::Cancelled);
  EXPECT_GE(front.stats().aggregate.watchdog_aborts, 1u);
}

TEST(Watchdog, StuckWorkerSurfacesInHealth) {
  // The fault-injector hook runs inside the batch, after it registered
  // with the watchdog: blocking in it holds the batch past the 20ms
  // stuck budget for exactly as long as the test needs, whatever the
  // kernel speed. It then returns false, so the batch runs normally.
  std::mutex hook_mutex;
  std::condition_variable hook_cv;
  bool release = false;
  ShardedServiceConfig cfg = one_shard_front(/*workers=*/1);
  cfg.watchdog.poll = std::chrono::milliseconds(1);
  cfg.watchdog.stuck_budget = std::chrono::milliseconds(20);
  cfg.shard.fault_injector = [&](RequestKind, const CodecKey&, std::size_t) {
    std::unique_lock lock(hook_mutex);
    hook_cv.wait(lock, [&] { return release; });
    return false;
  };
  ShardedEcService front(cfg);
  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 34);
  Bytes parity(kKey.r * kUnit);
  EcFuture f = front.submit_encode(/*tenant=*/1, /*client=*/0, kKey,
                                   data.span(), parity.span(), kUnit);

  // Health degrades with a stuck reason while the batch is held.
  bool saw_stuck = false;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!saw_stuck && std::chrono::steady_clock::now() < give_up) {
    const HealthSnapshot h = front.health();
    for (const std::string& reason : h.reasons) {
      if (reason.find("stuck") != std::string::npos) {
        EXPECT_NE(h.state, HealthState::Ok);
        saw_stuck = true;
      }
    }
    if (!saw_stuck) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    std::lock_guard lock(hook_mutex);
    release = true;
  }
  hook_cv.notify_all();
  EXPECT_TRUE(saw_stuck);

  // The request itself is fine — stuck is a health signal, not an abort.
  EXPECT_EQ(f.wait().status, RequestStatus::Ok);
  EXPECT_GE(front.stats().aggregate.watchdog_stuck, 1u);

  // The flag clears with the batch; health recovers.
  const auto recover_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (front.health().state != HealthState::Ok &&
         std::chrono::steady_clock::now() < recover_by)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(front.health().state, HealthState::Ok);
}

TEST(Watchdog, StuckBatchSurfacesInShardedHealth) {
  // A hook blocked until release holds a batch past the 20ms stuck
  // budget for exactly as long as the test needs, whatever the kernel
  // speed. The shards have no threads of their own (the front's workers
  // run their batches), so the stuck scan watches batches, not threads.
  // Any front thread may run any shard's batch, so the front is Degraded
  // until stuck batches fill all num_shards * workers_per_shard
  // executors, then Unhealthy.
  for (const std::size_t num_shards : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(num_shards);
    std::mutex hook_mutex;
    std::condition_variable hook_cv;
    bool release = false;
    ShardedServiceConfig cfg;
    cfg.num_shards = num_shards;
    cfg.workers_per_shard = 1;
    cfg.watchdog.poll = std::chrono::milliseconds(1);
    cfg.watchdog.stuck_budget = std::chrono::milliseconds(20);
    cfg.shard.fault_injector = [&](RequestKind, const CodecKey&,
                                   std::size_t) {
      std::unique_lock lock(hook_mutex);
      hook_cv.wait(lock, [&] { return release; });
      return false;
    };
    ShardedEcService front(cfg);
    const Bytes data = testutil::random_bytes(kKey.k * kUnit, 35);
    std::vector<Bytes> parity;
    for (std::size_t s = 0; s < num_shards; ++s)
      parity.emplace_back(kKey.r * kUnit);

    // One held batch per shard, each run by an idle front thread.
    std::vector<EcFuture> futures;
    std::uint64_t client = 0;
    for (std::size_t s = 0; s < num_shards; ++s) {
      while (ShardedEcService::shard_of(client, num_shards) != s) ++client;
      futures.push_back(front.submit_encode(/*tenant=*/1, client, kKey,
                                            data.span(), parity[s].span(),
                                            kUnit));
      HealthSnapshot h = front.health();
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (h.stuck_batches < s + 1 &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        h = front.health();
      }
      EXPECT_EQ(h.stuck_batches, s + 1);
      EXPECT_EQ(h.state, s + 1 == num_shards ? HealthState::Unhealthy
                                             : HealthState::Degraded);
      // Each stuck batch is named among the reasons.
      std::size_t stuck_reasons = 0;
      for (const std::string& reason : h.reasons)
        if (reason.find("stuck") != std::string::npos) ++stuck_reasons;
      EXPECT_EQ(stuck_reasons, s + 1);
    }
    {
      std::lock_guard lock(hook_mutex);
      release = true;
    }
    hook_cv.notify_all();

    // The requests themselves are fine: stuck is a health signal, not an
    // abort.
    for (EcFuture& f : futures) EXPECT_EQ(f.wait().status, RequestStatus::Ok);
    EXPECT_GE(front.stats().aggregate.watchdog_stuck, num_shards);
    // The flags clear with the batches; health recovers.
    const auto recover_by =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (front.health().state != HealthState::Ok &&
           std::chrono::steady_clock::now() < recover_by)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_EQ(front.health().state, HealthState::Ok);
  }
}

/// Payloads in 64-byte-aligned client buffers (tensor::AlignedBuffer)
/// flow submit -> batch formation -> scattered kernel -> result with
/// zero staging memcpys, and the result is byte-identical to the
/// sequential Codec oracle.
TEST(EcService, RegisteredBuffersEncodeWithZeroStagingCopies) {
  ServiceConfig cfg;
  cfg.batch.max_batch_requests = 8;
  ShardedEcService front(manual_front(cfg));

  constexpr int kRequests = 6;
  std::vector<Bytes> datas;
  std::vector<Bytes> parities;
  std::vector<Bytes> oracles;
  for (int i = 0; i < kRequests; ++i) {
    datas.push_back(
        testutil::random_bytes(kKey.k * kUnit, 700 + static_cast<unsigned>(i)));
    parities.emplace_back(kKey.r * kUnit);
    oracles.push_back(oracle_parity(kKey, datas.back().span(), kUnit));
  }

  const std::uint64_t before = tensor::kernel_stage_stats().stage_copies;
  std::vector<EcFuture> futures;
  for (int i = 0; i < kRequests; ++i)
    futures.push_back(front.submit_encode(1, 0, kKey, datas[i].span(),
                                          parities[i].span(), kUnit));
  front.run_pending();
  for (auto& f : futures) ASSERT_EQ(f.wait().status, RequestStatus::Ok);

  // Zero intermediate copies: the kernel read the client payloads and
  // wrote the parities in place.
  EXPECT_EQ(tensor::kernel_stage_stats().stage_copies, before);
  for (int i = 0; i < kRequests; ++i)
    EXPECT_EQ(std::memcmp(parities[i].data(), oracles[i].data(),
                          oracles[i].size()),
              0)
        << "request " << i;
}

TEST(EcService, MisalignedPayloadFallsBackToStaging) {
  ShardedEcService front(manual_front());

  // Same payload, shifted one byte off word alignment: correctness is
  // preserved through the staged fallback and the counter records it.
  Bytes raw(kKey.k * kUnit + 1);
  const Bytes fill = testutil::random_bytes(kKey.k * kUnit, 801);
  std::memcpy(raw.data() + 1, fill.data(), fill.size());
  const std::span<const std::uint8_t> data(raw.data() + 1, kKey.k * kUnit);
  Bytes parity(kKey.r * kUnit);

  const std::uint64_t before = tensor::kernel_stage_stats().stage_copies;
  EcFuture f = front.submit_encode(1, 0, kKey, data, parity.span(), kUnit);
  front.run_pending();
  ASSERT_EQ(f.wait().status, RequestStatus::Ok);
  EXPECT_GT(tensor::kernel_stage_stats().stage_copies, before);

  const Bytes want = oracle_parity(kKey, fill.span(), kUnit);
  EXPECT_EQ(std::memcmp(parity.data(), want.data(), want.size()), 0);
}

TEST(EcService, SharedPlanCacheReportsHits) {
  const auto cache = std::make_shared<core::PlanCache>();
  ServiceConfig cfg;
  cfg.plan_cache = cache;
  ShardedEcService front(manual_front(cfg));

  const Bytes data = testutil::random_bytes(kKey.k * kUnit, 900);
  Bytes stripe(kKey.n() * kUnit);
  std::memcpy(stripe.data(), data.data(), data.size());
  const Bytes parity = oracle_parity(kKey, data.span(), kUnit);
  std::memcpy(stripe.data() + kKey.k * kUnit, parity.data(), parity.size());
  const Bytes want = stripe;

  const std::vector<std::size_t> erased{0, 3};
  for (int round = 0; round < 3; ++round) {
    std::memcpy(stripe.data(), want.data(), want.size());
    for (const std::size_t id : erased)
      std::memset(stripe.data() + id * kUnit, 0xEE, kUnit);
    EcFuture f = front.submit_decode(1, 0, kKey, stripe.span(), erased, kUnit);
    front.run_pending();
    ASSERT_EQ(f.wait().status, RequestStatus::Ok);
    ASSERT_EQ(std::memcmp(stripe.data(), want.data(), want.size()), 0);
  }

  const ServeStatsSnapshot s = front.stats().aggregate;
  EXPECT_GE(s.plan_cache_misses, 1u);
  EXPECT_GE(s.plan_cache_hits + s.plan_cache_misses, 1u);
  // Repeated loss patterns hit the shared cache (the codec builds the
  // plan once; later rounds reuse it).
  EXPECT_GE(cache->stats().hits + cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().hits + cache->stats().misses,
            s.plan_cache_hits + s.plan_cache_misses);
}

}  // namespace
}  // namespace tvmec::serve
