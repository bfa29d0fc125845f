// E19 — the serving layer: batched asynchronous request serving vs
// one-at-a-time execution. The paper's thesis is that EC is a GEMM and
// GEMM efficiency grows with operand size; a front-end serving workload
// of small concurrent requests squanders that unless requests coalesce.
// This bench drives a one-shard ShardedEcService front, which owns the
// serve threads, with a closed-loop load
// generator and reports throughput and p50/p99/p99.9 latency vs offered
// load (client count) for the batched service against the
// one-request-at-a-time ablation (batch cap 1), then sweeps the
// batch-size cap at fixed load, and finally demonstrates admission
// control (bounded queue, Overloaded rejections) under an open-loop
// burst. Pass --smoke for the CI-sized run.
//
// E20 (overload protection) rides in the same binary: goodput under a
// 4x-overloaded closed loop with deadline shedding + watchdog
// cancellation on vs off, the per-tile cancellation-check overhead, and
// (with --chaos) a breaker/fault-injection smoke whose counter
// identities gate the exit code.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/tvmec.h"
#include "serve/ec_service.h"
#include "serve/shard.h"
#include "tensor/cancel.h"
#include "tensor/threadpool.h"

namespace {

using namespace tvmec;

// Small-request serving shape: per request the GEMM sees only
// N = kUnit/8 = 512 words — too little for thread partitioning to hand
// out; coalescing 32 such requests restores a 16k-word N.
constexpr std::size_t kUnit = 4 * 1024;
constexpr std::size_t kK = 10;
constexpr std::size_t kR = 4;

const serve::CodecKey kKey{kK, kR, 8, ec::RsFamily::CauchyGood};

bool g_smoke = false;

struct LoadResult {
  double gbps = 0;
  double p50_us = 0, p99_us = 0, p999_us = 0;
  double mean_batch = 0;
  std::uint64_t ok = 0, rejected = 0;
};

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// A one-shard front: `workers` threads pump its one shard. No QoS, so
/// the front adds only its threads, its watchdog and tenant accounting
/// on the submit path.
serve::ShardedServiceConfig one_shard_front(std::size_t workers) {
  serve::ShardedServiceConfig cfg;
  cfg.num_shards = 1;
  cfg.workers_per_shard = workers;
  cfg.qos_enforcement = false;
  return cfg;
}

/// Closed-loop load: `clients` threads each submit-and-wait in a loop.
/// Offered load rises with the client count; the service coalesces
/// whatever overlaps in the queue.
LoadResult run_closed_loop(std::size_t clients, std::size_t per_client,
                           bool batching, std::size_t batch_cap) {
  serve::ShardedServiceConfig cfg = one_shard_front(/*workers=*/1);
  cfg.shard.batch.max_batch_requests = batching ? batch_cap : 1;
  cfg.shard.batch.queue_capacity = 4096;  // closed loop: never the bottleneck
  serve::ShardedEcService service(cfg);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const auto data =
          benchutil::random_data(kK * kUnit, 0xE19 + 977 * c);
      tensor::AlignedBuffer<std::uint8_t> parity(kR * kUnit);
      for (std::size_t i = 0; i < per_client; ++i) {
        serve::EcFuture f = service.submit_encode(
            /*tenant=*/1, /*client=*/c, kKey, data.span(), parity.span(),
            kUnit);
        f.wait();
      }
    });
  }
  for (auto& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  service.shutdown();

  const serve::ServeStatsSnapshot s = service.stats().aggregate;
  LoadResult r;
  r.ok = s.completed_ok;
  r.rejected = s.rejected_overload;
  r.gbps = static_cast<double>(r.ok) * static_cast<double>(kK * kUnit) /
           secs / 1e9;
  r.p50_us = us(s.total_ns.percentile(50));
  r.p99_us = us(s.total_ns.percentile(99));
  r.p999_us = us(s.total_ns.percentile(99.9));
  r.mean_batch = s.batch_width.mean();
  return r;
}

void print_load_sweep() {
  benchutil::print_header(
      "E19a: closed-loop serving, batched vs one-at-a-time "
      "(k=10 r=4 w=8, 4 KiB units, one-shard front, 1 worker)",
      "coalescing concurrent small requests into one wide-N GEMM lifts "
      "throughput and tames tail latency as offered load grows");

  const std::size_t per_client = g_smoke ? 20 : 200;
  const std::vector<std::size_t> client_counts =
      g_smoke ? std::vector<std::size_t>{1, 4}
              : std::vector<std::size_t>{1, 2, 4, 8, 16, 32};

  std::printf("%-8s | %9s %8s %8s %9s %6s | %9s %8s %8s %9s %6s\n", "clients",
              "batched", "p50us", "p99us", "p99.9us", "avgB", "unbatch",
              "p50us", "p99us", "p99.9us", "avgB");
  std::printf("%-8s | %9s %8s %8s %9s %6s | %9s %8s %8s %9s %6s\n", "", "GB/s",
              "", "", "", "", "GB/s", "", "", "", "");
  for (const std::size_t clients : client_counts) {
    const LoadResult b = run_closed_loop(clients, per_client, true, 32);
    const LoadResult u = run_closed_loop(clients, per_client, false, 32);
    std::printf(
        "%-8zu | %9.2f %8.0f %8.0f %9.0f %6.1f | %9.2f %8.0f %8.0f %9.0f "
        "%6.1f\n",
        clients, b.gbps, b.p50_us, b.p99_us, b.p999_us, b.mean_batch, u.gbps,
        u.p50_us, u.p99_us, u.p999_us, u.mean_batch);
  }
}

void print_batch_cap_sweep() {
  benchutil::print_header(
      "E19b: batch-size cap sweep at fixed load",
      "wider batches amortize dispatch until the cap exceeds the "
      "concurrently queued work");

  const std::size_t clients = g_smoke ? 4 : 16;
  const std::size_t per_client = g_smoke ? 20 : 200;
  const std::vector<std::size_t> caps =
      g_smoke ? std::vector<std::size_t>{1, 8}
              : std::vector<std::size_t>{1, 2, 4, 8, 16, 32};

  std::printf("(%zu clients)\n", clients);
  std::printf("%-8s %9s %8s %8s %9s %6s\n", "cap", "GB/s", "p50us", "p99us",
              "p99.9us", "avgB");
  for (const std::size_t cap : caps) {
    const LoadResult r = run_closed_loop(clients, per_client, true, cap);
    std::printf("%-8zu %9.2f %8.0f %8.0f %9.0f %6.1f\n", cap, r.gbps,
                r.p50_us, r.p99_us, r.p999_us, r.mean_batch);
  }
}

void print_admission_control() {
  benchutil::print_header(
      "E19c: admission control under an open-loop burst",
      "a bounded queue rejects the overflow immediately (Overloaded) "
      "instead of buffering without bound");

  const std::size_t capacity = 64;
  const std::size_t burst = g_smoke ? 128 : 256;

  // A front with no threads runs nothing until pumped, so the whole
  // burst lands before any batch executes.
  serve::ShardedServiceConfig cfg = one_shard_front(/*workers=*/0);
  cfg.watchdog.enabled = false;
  cfg.shard.batch.queue_capacity = capacity;
  cfg.shard.batch.max_batch_requests = 32;
  serve::ShardedEcService service(cfg);

  const auto data = benchutil::random_data(kK * kUnit, 0xE19C);
  std::vector<tensor::AlignedBuffer<std::uint8_t>> parities;
  parities.reserve(burst);
  std::vector<serve::EcFuture> futures;
  futures.reserve(burst);
  for (std::size_t i = 0; i < burst; ++i) {
    parities.emplace_back(kR * kUnit);
    futures.push_back(service.submit_encode(/*tenant=*/1, /*client=*/0, kKey,
                                            data.span(),
                                            parities.back().span(), kUnit));
  }
  service.run_pending();
  service.shutdown();

  const serve::ServeStatsSnapshot s = service.stats().aggregate;
  std::printf(
      "queue capacity %zu, burst of %zu requests:\n"
      "  accepted %llu, rejected (Overloaded) %llu, served ok %llu\n"
      "  identity: submitted == accepted + rejected: %s\n",
      capacity, burst, static_cast<unsigned long long>(s.accepted),
      static_cast<unsigned long long>(s.rejected_overload),
      static_cast<unsigned long long>(s.completed_ok),
      s.admission_balanced() && s.rejected_shed + s.rejected_shutdown == 0
          ? "ok"
          : "VIOLATED");
}

// ---- E20: overload protection ---------------------------------------------

// Overload shape: requests big enough (1.25 MiB of data) that kernel
// times dwarf scheduler noise even on a single exposed core, batches
// capped small so the queue can actually get several batch-times deep.
constexpr std::size_t kBigUnit = 128 * 1024;
constexpr std::size_t kWindow = 8;        // outstanding per client
constexpr std::size_t kOverloadBatch = 4;

struct OverloadResult {
  double goodput_gbps = 0;      // deadline-met completions only
  std::uint64_t good = 0;       // Ok and total <= deadline budget
  std::uint64_t ok = 0, shed = 0, expired = 0;
  double max_overshoot_us = 0;  // worst completion past its deadline
  double p99_service_us = 0;
  double max_service_us = 0;    // worst batch-service time, for the bound
};

/// Overloaded loop: `clients` threads each keep kWindow requests in
/// flight (submit-ahead), so clients x kWindow requests compete for a
/// deadline budget that only ~a quarter of them can meet — a 4x
/// overload. With protection on, doomed requests are shed at admission
/// (queue-wait EWMA) and all-dead batches are cancelled mid-kernel by
/// the watchdog; off reproduces the PR-5 behavior (queue everything,
/// drop only at batch formation, kernels run to completion).
OverloadResult run_overload(std::size_t clients, std::size_t per_client,
                            std::chrono::nanoseconds deadline,
                            bool protection) {
  serve::ShardedServiceConfig cfg = one_shard_front(/*workers=*/1);
  cfg.shard.batch.max_batch_requests = kOverloadBatch;
  cfg.shard.batch.queue_capacity = 4096;
  cfg.shard.batch.deadline_shedding = protection;
  cfg.watchdog.enabled = protection;
  cfg.watchdog.poll = std::chrono::milliseconds(1);
  serve::ShardedEcService service(cfg);

  std::mutex merge_mutex;
  std::int64_t max_overshoot_ns = 0;
  std::atomic<std::uint64_t> good{0};

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const auto data = benchutil::random_data(kK * kBigUnit, 0xE20 + 977 * c);
      // One parity buffer per in-flight slot: a buffer may only be
      // reused once its future completed.
      std::vector<tensor::AlignedBuffer<std::uint8_t>> parity;
      for (std::size_t i = 0; i < kWindow; ++i)
        parity.emplace_back(kR * kBigUnit);
      std::vector<serve::EcFuture> window;
      std::int64_t local_overshoot = 0;
      const auto reap = [&](serve::EcFuture& f) {
        const serve::EcResult& r = f.wait();
        if (r.status == serve::RequestStatus::Shed) {
          // Client-side retry backoff: a shed response arrives in
          // microseconds, and hammering the admission check from four
          // client threads would starve the worker on a single exposed
          // core. Real clients back off on load-shed errors too.
          std::this_thread::sleep_for(deadline / 16);
          return;
        }
        const std::int64_t overshoot = r.total.count() - deadline.count();
        local_overshoot = std::max(local_overshoot, overshoot);
        if (r.status == serve::RequestStatus::Ok && overshoot <= 0)
          good.fetch_add(1, std::memory_order_relaxed);
      };
      for (std::size_t i = 0; i < per_client; ++i) {
        if (window.size() == kWindow) {
          reap(window.front());
          window.erase(window.begin());
        }
        window.push_back(service.submit_encode(
            /*tenant=*/1, /*client=*/c, kKey, data.span(),
            parity[i % kWindow].span(), kBigUnit, deadline));
      }
      for (auto& f : window) reap(f);
      std::lock_guard lock(merge_mutex);
      max_overshoot_ns = std::max(max_overshoot_ns, local_overshoot);
    });
  }
  for (auto& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  service.shutdown();

  const serve::ServeStatsSnapshot s = service.stats().aggregate;
  OverloadResult r;
  r.good = good.load();
  r.ok = s.completed_ok;
  r.shed = s.rejected_shed;
  r.expired = s.expired;
  r.goodput_gbps = static_cast<double>(r.good) *
                   static_cast<double>(kK * kBigUnit) / secs / 1e9;
  r.max_overshoot_us = us(static_cast<std::uint64_t>(
      std::max<std::int64_t>(max_overshoot_ns, 0)));
  r.p99_service_us = us(s.service_ns.percentile(99));
  r.max_service_us = us(s.service_ns.max());
  return r;
}

void print_goodput_overload() {
  benchutil::print_header(
      "E20a: goodput under 4x overload, shedding + cancellation on vs off",
      "shedding doomed requests at admission and cancelling all-dead "
      "batches mid-kernel spends the CPU only on requests that can still "
      "meet their deadline");

  // Long enough that the overloaded steady state dominates the startup
  // ramp (the first kWindow requests per client see an empty queue and
  // meet their deadlines in either mode) AND averages over the off-mode
  // sawtooth: without protection the backlog grows until a run of
  // requests mass-expires at formation, the drops drain the queue in
  // microseconds, and the next few fresh submissions transiently meet
  // their deadlines again.
  const std::size_t clients = 4;
  const std::size_t per_client = g_smoke ? 400 : 1200;

  // Unloaded per-request time t1 sets the budget: 6 x t1 fits an
  // admitted request comfortably (~2 batch-times), while the offered
  // window of clients x kWindow = 32 requests needs ~24 x t1 to drain —
  // a 4x overload against the deadline.
  std::chrono::nanoseconds t1{0};
  {
    serve::ShardedEcService service(one_shard_front(/*workers=*/1));
    const auto data = benchutil::random_data(kK * kBigUnit, 0xE20A);
    tensor::AlignedBuffer<std::uint8_t> parity(kR * kBigUnit);
    const auto m0 = std::chrono::steady_clock::now();
    constexpr int kProbe = 8;
    for (int i = 0; i < kProbe; ++i)
      service
          .submit_encode(/*tenant=*/1, /*client=*/0, kKey, data.span(),
                         parity.span(), kBigUnit)
          .wait();
    t1 = std::chrono::duration_cast<std::chrono::nanoseconds>(
        (std::chrono::steady_clock::now() - m0) / kProbe);
  }
  const auto deadline = 6 * t1;

  std::printf(
      "(%zu clients x %zu in flight, %zu KiB units, deadline 6 x t1 = "
      "%.0f us)\n",
      clients, kWindow, kBigUnit / 1024,
      us(static_cast<std::uint64_t>(deadline.count())));
  std::printf("%-12s | %9s %7s %7s %7s | %12s %12s\n", "protection",
              "goodput", "good", "shed", "expired", "overshoot_us",
              "p99svc_us");
  const char* bound_note = nullptr;
  for (const bool protection : {true, false}) {
    const OverloadResult r =
        run_overload(clients, per_client, deadline, protection);
    std::printf("%-12s | %9.2f %7llu %7llu %7llu | %12.0f %12.0f\n",
                protection ? "on" : "off", r.goodput_gbps,
                static_cast<unsigned long long>(r.good),
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(r.expired),
                r.max_overshoot_us, r.p99_service_us);
    // The watchdog only aborts batches whose members are *all* dead, so
    // a request sharing a batch with a live one can overshoot by up to
    // that batch's service time (plus the watchdog poll). The bound
    // therefore uses the max observed batch service — the overshooting
    // request rides exactly the batch that set it.
    if (protection)
      bound_note = r.max_overshoot_us <= r.max_service_us + 2000
                       ? "bounded by ~one batch-service time: ok"
                       : "bounded by ~one batch-service time: EXCEEDED";
  }
  std::printf("deadline overshoot with protection on: %s\n", bound_note);
}

/// E20b: the cost of the cooperative-cancellation hooks themselves — the
/// same wide batched encode with no token vs a live (never-fired) token,
/// serial kernel so every per-chunk poll is on the measured path.
void print_cancel_overhead() {
  benchutil::print_header(
      "E20b: per-tile cancellation-check overhead",
      "a relaxed atomic load per tile chunk; the acceptance bar is < 2%");

  core::Codec codec(ec::CodeParams{kK, kR, 8}, ec::RsFamily::CauchyGood);
  constexpr std::size_t kBatch = 32;
  std::vector<tensor::AlignedBuffer<std::uint8_t>> data, parity;
  std::vector<ec::CoderBatchItem> items;
  for (std::size_t i = 0; i < kBatch; ++i) {
    data.push_back(benchutil::random_data(kK * kUnit, 0xE20B + i));
    parity.emplace_back(kR * kUnit);
    items.push_back({data.back().span(), parity.back().span(), kUnit});
  }

  const std::size_t reps = g_smoke ? 40 : 200;
  const auto time_once = [&](const tensor::CancelToken& token) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < reps; ++i)
      codec.encode_batch(items, /*max_threads=*/1, token);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  // Warm both arms once, then interleave the trials (null, live, null,
  // live, ...) and take best-of per arm: measuring the arms in separate
  // blocks lets slow machine drift — thermal throttling, competing load
  // on a single exposed core — masquerade as checking overhead.
  tensor::CancelSource source;
  time_once(tensor::CancelToken{});
  time_once(source.token());
  double t_null = 1e30, t_live = 1e30;
  for (int trial = 0; trial < 7; ++trial) {
    t_null = std::min(t_null, time_once(tensor::CancelToken{}));
    t_live = std::min(t_live, time_once(source.token()));
  }
  const double bytes = static_cast<double>(reps * kBatch * kK * kUnit);
  const double overhead = (t_live - t_null) / t_null * 100.0;
  std::printf(
      "no token: %8.2f GB/s\nlive token: %7.2f GB/s\noverhead: %+.2f%% "
      "(bar: < 2%%)\n",
      bytes / t_null / 1e9, bytes / t_live / 1e9, overhead);
}

/// E20c (--chaos): breaker + fault-injection smoke. A bursty injector
/// fails the primary backend in runs long enough to trip the breaker,
/// then clears long enough for probes to close it; meanwhile clients mix
/// in tight deadlines and client cancels. The counter identities and at
/// least one observed trip gate the exit code — CI runs this on every
/// push.
bool run_chaos_smoke() {
  benchutil::print_header(
      "E20c: chaos smoke — injected backend faults, cancels, deadlines",
      "faults cost latency, never bytes: requests ride the singly-rescue "
      "or degraded naive path while the breaker trips and recovers");

  serve::ShardedServiceConfig cfg = one_shard_front(/*workers=*/2);
  cfg.shard.batch.max_batch_requests = 16;
  cfg.shard.batch.queue_capacity = 512;
  cfg.shard.batch.deadline_shedding = true;
  cfg.watchdog.poll = std::chrono::milliseconds(1);
  cfg.shard.breaker.failure_threshold = 3;
  cfg.shard.breaker.success_threshold = 2;
  cfg.shard.breaker.cooldown = std::chrono::milliseconds(2);
  std::atomic<std::uint64_t> dispatches{0};
  cfg.shard.fault_injector = [&](serve::RequestKind, const serve::CodecKey&,
                                 std::size_t) {
    // 20-batch failure bursts separated by 40 healthy batches.
    return dispatches.fetch_add(1, std::memory_order_relaxed) % 60 < 20;
  };
  serve::ShardedEcService service(cfg);

  const std::size_t clients = 4;
  const std::size_t per_client = g_smoke ? 60 : 200;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const auto data = benchutil::random_data(kK * kUnit, 0xE20C + 97 * c);
      tensor::AlignedBuffer<std::uint8_t> parity(kR * kUnit);
      tensor::AlignedBuffer<std::uint8_t> stripe((kK + kR) * kUnit);
      std::memcpy(stripe.data(), data.data(), data.size());
      // Disk-failure-shaped decode mix: a handful of loss patterns
      // repeated by every client, so the shared plan cache gets hit
      // after the first build of each.
      const std::vector<std::size_t> patterns[] = {
          {0}, {3, 11}, {kK}, {1, 7}};
      for (std::size_t i = 0; i < per_client; ++i) {
        const auto timeout = i % 5 == 4
                                 ? std::chrono::microseconds(50)
                                 : std::chrono::nanoseconds{0};
        serve::EcFuture f =
            i % 3 == 2
                ? service.submit_decode(/*tenant=*/1, /*client=*/c, kKey,
                                        stripe.span(),
                                        patterns[i % std::size(patterns)],
                                        kUnit,
                                        std::chrono::nanoseconds(timeout))
                : service.submit_encode(/*tenant=*/1, /*client=*/c, kKey,
                                        data.span(), parity.span(), kUnit,
                                        std::chrono::nanoseconds(timeout));
        if (i % 7 == 6) f.cancel();
        f.wait();
      }
    });
  }
  for (auto& t : threads) t.join();
  service.shutdown();

  const serve::ShardedStatsSnapshot fs = service.stats();
  const serve::ServeStatsSnapshot& s = fs.aggregate;
  const bool submit_identity = s.admission_balanced();
  const bool outcome_identity = s.drained_balanced();
  const bool front_identity = fs.front_balanced();
  const bool tripped = s.breaker_trips >= 1;
  std::printf(
      "submitted %llu: ok %llu, shed %llu, expired %llu, cancelled %llu, "
      "failed %llu\n"
      "batches %llu (degraded %llu), breaker trips %llu / recoveries %llu "
      "/ probes %llu, watchdog aborts %llu\n"
      "identity submitted == accepted + rejections: %s\n"
      "identity accepted == terminal outcomes: %s\n"
      "identity shard and tenant sums == front aggregate: %s\n"
      "breaker observed tripping: %s\n",
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.completed_ok),
      static_cast<unsigned long long>(s.rejected_shed),
      static_cast<unsigned long long>(s.expired),
      static_cast<unsigned long long>(s.cancelled),
      static_cast<unsigned long long>(s.failed),
      static_cast<unsigned long long>(s.batches),
      static_cast<unsigned long long>(s.degraded_batches),
      static_cast<unsigned long long>(s.breaker_trips),
      static_cast<unsigned long long>(s.breaker_recoveries),
      static_cast<unsigned long long>(s.breaker_probes),
      static_cast<unsigned long long>(s.watchdog_aborts),
      submit_identity ? "ok" : "VIOLATED",
      outcome_identity ? "ok" : "VIOLATED",
      front_identity ? "ok" : "VIOLATED", tripped ? "yes" : "NO");
  const std::uint64_t plan_lookups = s.plan_cache_hits + s.plan_cache_misses;
  std::printf(
      "plan cache: %llu hits / %llu misses (hit rate %.1f%%)\n",
      static_cast<unsigned long long>(s.plan_cache_hits),
      static_cast<unsigned long long>(s.plan_cache_misses),
      plan_lookups == 0 ? 0.0
                        : 100.0 * static_cast<double>(s.plan_cache_hits) /
                              static_cast<double>(plan_lookups));
  if (s.failed != 0)
    std::printf("(failed must be 0 — injected faults may only cost "
                "latency)\n");
  return submit_identity && outcome_identity && front_identity && tripped &&
         s.failed == 0;
}

void bm_submit_wait(benchmark::State& state) {
  serve::ShardedServiceConfig cfg = one_shard_front(/*workers=*/1);
  if (state.range(0) == 0) cfg.shard.batch.max_batch_requests = 1;
  serve::ShardedEcService service(cfg);
  const auto data = benchutil::random_data(kK * kUnit, 0xE19D);
  tensor::AlignedBuffer<std::uint8_t> parity(kR * kUnit);
  for (auto _ : state) {
    serve::EcFuture f = service.submit_encode(
        /*tenant=*/1, /*client=*/0, kKey, data.span(), parity.span(), kUnit);
    f.wait();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kK * kUnit));
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --smoke/--chaos before google-benchmark sees (and rejects) them.
  bool chaos = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      g_smoke = true;
    else if (std::strcmp(argv[i], "--chaos") == 0)
      chaos = true;
    else
      argv[out++] = argv[i];
  }
  argc = out;

  benchmark::Initialize(&argc, argv);
  if (!g_smoke) {
    benchmark::RegisterBenchmark("bm_submit_wait", bm_submit_wait)
        ->Arg(1)
        ->Arg(0)
        ->ArgName("batching")
        ->UseRealTime();
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();

  // Throwaway run: spin up the shared pool, fault in pages, ramp the
  // CPU governor — so the first table cell isn't charged for it.
  run_closed_loop(2, g_smoke ? 10 : 50, true, 32);

  print_load_sweep();
  print_batch_cap_sweep();
  print_admission_control();
  print_goodput_overload();
  print_cancel_overhead();
  bool ok = true;
  if (chaos) ok = run_chaos_smoke();
  if (std::thread::hardware_concurrency() <= 1)
    std::printf(
        "\n(single hardware thread exposed: client threads and the service "
        "worker time-share one core, so the batching win is dispatch-"
        "amortization only; run on a multicore host for the full effect)\n");
  return ok ? 0 : 1;
}
