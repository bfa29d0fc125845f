// E23 — sharded multi-tenant serving: per-shard EC services with client
// affinity, bounded work stealing, and weighted-fair tenant QoS. The ML
// serving systems the paper points at shard their request queues per
// worker; this bench measures what that buys an EC front. An open-loop
// burst with a heavy-tailed (Zipf) tenant mix is driven through the
// sharded front at several shard counts against the single-shard
// baseline (E23a), then the same skewed mix runs with QoS enforcement on
// vs off to show weighted-fair isolation: the hot tenant's overflow is
// rejected at the front while cold tenants keep their admission rate
// (E23b). Per-tenant p99/p99.9 come from client-side future timings —
// the per-tenant counters carry no histograms by design.
//
// Exit code: every run's counter identities are checked — aggregate
// admission/drain, every tenant's admission/drain balance, and the
// tenant aggregate vs the front aggregate — and a violation fails the
// binary. CI runs `--smoke` on every push.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/tvmec.h"
#include "serve/shard.h"

namespace {

using namespace tvmec;

constexpr std::size_t kUnit = 4 * 1024;
constexpr std::size_t kK = 10;
constexpr std::size_t kR = 4;

const serve::CodecKey kKey{kK, kR, 8, ec::RsFamily::CauchyGood};

bool g_smoke = false;
bool g_identities_ok = true;

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  return v[static_cast<std::size_t>(idx + 0.5)];
}

/// Heavy-tailed tenant draw: P(tenant i) ~ 1 / i^s over 1..n.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i)
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    double acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s) / sum;
      cdf_[i] = acc;
    }
  }
  serve::TenantId operator()(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<serve::TenantId>(it - cdf_.begin()) + 1;
  }

 private:
  std::vector<double> cdf_;
};

/// The aggregate, per-tenant, and cross-snapshot counter identities —
/// checked after every run; any violation fails the binary.
bool check_identities(const serve::ShardedStatsSnapshot& s,
                      const char* label) {
  const serve::ServeStatsSnapshot& a = s.aggregate;
  bool ok = a.admission_balanced() && a.drained_balanced();
  for (const serve::TenantCounters& t : s.tenants)
    ok = ok && t.admission_balanced() && t.drained_balanced();
  const serve::TenantCounters& ta = s.tenant_aggregate;
  ok = ok && s.front_balanced() && ta.in_queue == 0;
  if (!ok) {
    std::uint64_t shard_submitted = 0;
    for (const serve::ShardStatsSnapshot& sh : s.shards)
      shard_submitted += sh.stats.submitted;
    std::printf(
        "COUNTER IDENTITY VIOLATED (%s)\n"
        "  aggregate: submitted %llu accepted %llu ovl %llu shed %llu "
        "shut %llu | ok %llu exp %llu fail %llu canc %llu drained %llu\n"
        "  tenant agg: submitted %llu accepted %llu ok %llu rejected %llu "
        "in_queue %lld\n"
        "  shard submitted sum %llu + qos_rejected %llu\n",
        label, static_cast<unsigned long long>(a.submitted),
        static_cast<unsigned long long>(a.accepted),
        static_cast<unsigned long long>(a.rejected_overload),
        static_cast<unsigned long long>(a.rejected_shed),
        static_cast<unsigned long long>(a.rejected_shutdown),
        static_cast<unsigned long long>(a.completed_ok),
        static_cast<unsigned long long>(a.expired),
        static_cast<unsigned long long>(a.failed),
        static_cast<unsigned long long>(a.cancelled),
        static_cast<unsigned long long>(a.shutdown_drained),
        static_cast<unsigned long long>(ta.submitted),
        static_cast<unsigned long long>(ta.accepted),
        static_cast<unsigned long long>(ta.completed_ok),
        static_cast<unsigned long long>(ta.rejected()),
        static_cast<long long>(ta.in_queue),
        static_cast<unsigned long long>(shard_submitted),
        static_cast<unsigned long long>(s.qos_rejected));
    for (const serve::TenantCounters& t : s.tenants)
      if (!t.admission_balanced() || !t.drained_balanced())
        std::printf("  tenant %llu unbalanced: submitted %llu accepted %llu "
                    "rejected %llu terminal %llu in_queue %lld\n",
                    static_cast<unsigned long long>(t.tenant),
                    static_cast<unsigned long long>(t.submitted),
                    static_cast<unsigned long long>(t.accepted),
                    static_cast<unsigned long long>(t.rejected()),
                    static_cast<unsigned long long>(t.terminal()),
                    static_cast<long long>(t.in_queue));
    g_identities_ok = false;
  }
  return ok;
}

struct RunResult {
  double secs = 0;
  double gbps = 0;  // completed-ok data bytes / wall time
  serve::ShardedStatsSnapshot stats;
  /// Client-side total latency (us) of completed-ok requests, per tenant.
  std::map<serve::TenantId, std::vector<double>> lat_us;
};

/// Open-loop burst: `clients` submitter threads each fire `per_client`
/// requests back to back without waiting (offered load is set by the
/// burst size, not by service completions), tenant drawn Zipf per
/// request, client id fixed per thread (shard affinity). Futures are
/// reaped after the burst; admission control — front QoS plus per-shard
/// queue capacity — decides who got in.
RunResult run_open_loop(std::size_t num_shards, std::size_t num_tenants,
                        double zipf_s, std::size_t clients,
                        std::size_t per_client, bool qos) {
  serve::ShardedServiceConfig cfg;
  cfg.num_shards = num_shards;
  cfg.workers_per_shard = 1;
  cfg.shard.batch.max_batch_requests = 16;
  cfg.shard.batch.queue_capacity = 64;
  cfg.qos_enforcement = qos;
  serve::ShardedEcService service(cfg);

  const Zipf zipf(num_tenants, zipf_s);
  std::mutex merge_mutex;
  RunResult result;

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::mt19937_64 rng(0xE23 + 977 * c);
      const auto data = benchutil::random_data(kK * kUnit, 0xE23A + c);
      // One parity buffer per in-flight request: open loop, so every
      // submission of the burst may be outstanding at once.
      std::vector<tensor::AlignedBuffer<std::uint8_t>> parity;
      parity.reserve(per_client);
      std::vector<serve::EcFuture> futures;
      std::vector<serve::TenantId> tenant_of;
      futures.reserve(per_client);
      for (std::size_t i = 0; i < per_client; ++i) {
        const serve::TenantId tenant = zipf(rng);
        parity.emplace_back(kR * kUnit);
        futures.push_back(service.submit_encode(
            tenant, c, kKey, data.span(), parity.back().span(), kUnit));
        tenant_of.push_back(tenant);
      }
      std::map<serve::TenantId, std::vector<double>> local;
      for (std::size_t i = 0; i < per_client; ++i) {
        const serve::EcResult& r = futures[i].wait();
        if (r.status == serve::RequestStatus::Ok)
          local[tenant_of[i]].push_back(
              static_cast<double>(r.total.count()) / 1e3);
      }
      std::lock_guard lock(merge_mutex);
      for (auto& [tenant, lats] : local) {
        auto& dst = result.lat_us[tenant];
        dst.insert(dst.end(), lats.begin(), lats.end());
      }
    });
  }
  for (auto& t : threads) t.join();
  result.secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  service.shutdown();

  result.stats = service.stats();
  result.gbps = static_cast<double>(result.stats.aggregate.completed_ok) *
                static_cast<double>(kK * kUnit) / result.secs / 1e9;
  check_identities(result.stats, qos ? "open-loop, qos on"
                                     : "open-loop, qos off");
  return result;
}

/// E23a: the same open-loop Zipf burst at 1/2/4 shards. Throughput and
/// tail latency per shard count, plus the steal counters (skewed client
/// hashing leaves some shards hot; thieves drain them).
void print_shard_sweep() {
  benchutil::print_header(
      "E23a: open-loop Zipf burst vs shard count "
      "(k=10 r=4 w=8, 4 KiB units, 1 worker/shard)",
      "per-shard queues remove the global queue lock from the submit "
      "path; bounded stealing keeps skewed shards from queueing while "
      "neighbors idle");

  const std::size_t clients = 4;
  const std::size_t per_client = g_smoke ? 64 : 512;
  const std::size_t tenants = 4;

  std::printf("%-8s | %9s %8s %8s %9s | %8s %8s | %6s %7s\n", "shards",
              "GB/s", "p50us", "p99us", "p99.9us", "accepted", "rejected",
              "steals", "stolen");
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    const RunResult r = run_open_loop(shards, tenants, /*zipf_s=*/1.2,
                                      clients, per_client, /*qos=*/true);
    std::vector<double> all;
    for (const auto& [tenant, lats] : r.lat_us)
      all.insert(all.end(), lats.begin(), lats.end());
    std::vector<double> a1 = all, a2 = all, a3 = all;
    std::printf("%-8zu | %9.2f %8.0f %8.0f %9.0f | %8llu %8llu | %6llu "
                "%7llu\n",
                shards, r.gbps, percentile(a1, 50), percentile(a2, 99),
                percentile(a3, 99.9),
                static_cast<unsigned long long>(r.stats.aggregate.accepted),
                static_cast<unsigned long long>(
                    r.stats.aggregate.rejected_overload),
                static_cast<unsigned long long>(r.stats.steal_batches),
                static_cast<unsigned long long>(r.stats.steal_requests));
  }
  if (std::thread::hardware_concurrency() <= 1)
    std::printf(
        "(single hardware thread exposed: all shard workers time-share one "
        "core, so shard-count scaling here shows queue-contention relief "
        "only, not parallel speedup; run on a multicore host for the full "
        "effect)\n");
}

/// E23b: weighted-fair isolation under the skewed mix — QoS enforcement
/// on vs off, per-tenant admission and tails. Jain's fairness index over
/// per-tenant acceptance ratios summarizes each arm (1.0 = perfectly
/// equal admission odds regardless of offered load).
void print_qos_fairness() {
  benchutil::print_header(
      "E23b: tenant QoS under a heavy-tailed mix, enforcement on vs off",
      "weighted fair shares reject the hot tenant's overflow at the "
      "front, so a tenant's admission odds stop depending on how hard "
      "its neighbors push");

  const std::size_t clients = 4;
  const std::size_t per_client = g_smoke ? 64 : 512;
  const std::size_t tenants = 4;

  for (const bool qos : {false, true}) {
    const RunResult r = run_open_loop(/*num_shards=*/2, tenants,
                                      /*zipf_s=*/1.2, clients, per_client,
                                      qos);
    std::printf("qos %s:\n", qos ? "on " : "off");
    std::printf("  %-8s %9s %9s %9s %8s %8s %9s\n", "tenant", "submitted",
                "accepted", "ok", "acc%", "p99us", "p99.9us");
    double sum = 0, sum_sq = 0;
    std::size_t arms = 0;
    for (const serve::TenantCounters& t : r.stats.tenants) {
      auto it = r.lat_us.find(t.tenant);
      std::vector<double> lats =
          it == r.lat_us.end() ? std::vector<double>{} : it->second;
      std::vector<double> l2 = lats;
      const double acc_ratio =
          t.submitted == 0 ? 0.0
                           : static_cast<double>(t.accepted) /
                                 static_cast<double>(t.submitted);
      sum += acc_ratio;
      sum_sq += acc_ratio * acc_ratio;
      ++arms;
      std::printf("  %-8llu %9llu %9llu %9llu %7.0f%% %8.0f %9.0f\n",
                  static_cast<unsigned long long>(t.tenant),
                  static_cast<unsigned long long>(t.submitted),
                  static_cast<unsigned long long>(t.accepted),
                  static_cast<unsigned long long>(t.completed_ok),
                  100.0 * acc_ratio, percentile(lats, 99),
                  percentile(l2, 99.9));
    }
    const double jain = sum_sq == 0
                            ? 0.0
                            : sum * sum / (static_cast<double>(arms) * sum_sq);
    std::printf("  Jain fairness over acceptance ratios: %.3f\n", jain);
  }
  std::printf(
      "(acceptance odds under enforcement are set by each tenant's share, "
      "not by its offered load; the hot tenant's overflow is the rejected "
      "column)\n");
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) g_smoke = true;

  // Throwaway run: spin up pools, fault in pages, warm the governor.
  run_open_loop(2, 2, 1.2, 2, g_smoke ? 16 : 64, true);

  print_shard_sweep();
  print_qos_fairness();

  std::printf("\ncounter identities across all runs: %s\n",
              g_identities_ok ? "ok" : "VIOLATED");
  return g_identities_ok ? 0 : 1;
}
