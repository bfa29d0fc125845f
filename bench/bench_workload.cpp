// E14 (extension; paper §8 "measure the performance on real storage
// workloads") — a synthetic-but-shaped object workload driven through
// the erasure-coded object store (a one-domain cluster::Cluster):
// lognormal object sizes (the classic blob-store distribution), a
// read-heavy op mix, and a node failure mid-run. Reports end-to-end
// store throughput, where encoding is one cost among memcpy, CRCs,
// placement, and reconstruction, and what a put stores and moves: units
// stored per put against the n per stripe it places (a short stripe
// stores no padding) and network bytes per user byte, both from the
// cluster's network ledger.
//
// --smoke: the E14 table alone, on a small object set that includes
// every short-stripe shape and multi-stripe objects with a short last
// stripe. Every healthy get, every degraded get and every get after
// repair() is checked byte for byte, and a degraded pass must move
// exactly a healthy pass's network bytes; exits nonzero on any mismatch
// (CI runs this).

#include <benchmark/benchmark.h>

#include <cstring>
#include <random>

#include "bench_util.h"
#include "cluster/cluster.h"

namespace {

using namespace tvmec;

constexpr std::size_t kUnit = 64 * 1024;
const ec::CodeParams kParams{10, 4, 8};
const cluster::ClusterConfig kConfig{.num_nodes = 14};

bool g_smoke = false;
bool g_checks_ok = true;

struct Workload {
  std::vector<std::vector<std::uint8_t>> objects;
  std::size_t total_bytes = 0;
};

/// Lognormal object sizes (median ~256 KB, heavy tail capped at 8 MB).
Workload make_workload(std::size_t count, std::uint64_t seed) {
  Workload w;
  std::mt19937_64 rng(seed);
  std::lognormal_distribution<double> size_dist(std::log(256.0 * 1024), 1.0);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t size = std::min<std::size_t>(
        8u << 20, std::max<std::size_t>(1024, static_cast<std::size_t>(
                                                  size_dist(rng))));
    std::vector<std::uint8_t> obj(size);
    for (auto& b : obj) b = static_cast<std::uint8_t>(rng());
    w.total_bytes += size;
    w.objects.push_back(std::move(obj));
  }
  return w;
}

/// The smoke set: a few lognormal objects plus every short-stripe shape
/// (one byte, around one unit, around one stripe) and two multi-stripe
/// objects whose last stripe is short.
Workload make_smoke_workload() {
  Workload w = make_workload(4, 4);
  const std::size_t stripe = kParams.k * kUnit;
  std::mt19937_64 rng(5);
  for (const std::size_t size :
       {std::size_t{1}, kUnit - 1, kUnit + 1, stripe - 1, stripe, stripe + 1,
        2 * stripe + kUnit / 2, 3 * stripe - 7}) {
    std::vector<std::uint8_t> obj(size);
    for (auto& b : obj) b = static_cast<std::uint8_t>(rng());
    w.total_bytes += size;
    w.objects.push_back(std::move(obj));
  }
  return w;
}

/// Reads every object back and compares it byte for byte; a mismatch
/// prints a !! line and fails the run.
void check_all(cluster::Cluster& store, const Workload& w,
               const char* phase) {
  for (std::size_t i = 0; i < w.objects.size(); ++i) {
    const auto got = store.get("obj" + std::to_string(i));
    if (!got || *got != w.objects[i]) {
      std::printf("!! %s get of obj%zu is not byte-exact\n", phase, i);
      g_checks_ok = false;
    }
  }
}

void bm_put_workload(benchmark::State& state) {
  const Workload w = make_workload(24, 1);
  for (auto _ : state) {
    cluster::Cluster store(kParams, kUnit, kConfig);
    for (std::size_t i = 0; i < w.objects.size(); ++i)
      store.put("obj" + std::to_string(i), w.objects[i]);
    benchmark::DoNotOptimize(store.stats().stripes_written);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.total_bytes));
}
BENCHMARK(bm_put_workload)->Unit(benchmark::kMillisecond);

void bm_get_workload(benchmark::State& state) {
  const Workload w = make_workload(24, 2);
  cluster::Cluster store(kParams, kUnit, kConfig);
  for (std::size_t i = 0; i < w.objects.size(); ++i)
    store.put("obj" + std::to_string(i), w.objects[i]);
  const bool degraded = state.range(0) != 0;
  if (degraded) store.fail_node(3);
  std::mt19937_64 rng(3);
  for (auto _ : state) {
    const std::size_t i = rng() % w.objects.size();
    auto got = store.get("obj" + std::to_string(i));
    benchmark::DoNotOptimize(got);
  }
  state.SetLabel(degraded ? "degraded" : "healthy");
}
BENCHMARK(bm_get_workload)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void print_paper_table() {
  benchutil::print_header(
      "E14 (extension): object-store workload, end to end",
      "encoding cost in situ: put/get/degraded-get/repair throughput over "
      "a lognormal object mix");

  const Workload w = g_smoke ? make_smoke_workload() : make_workload(32, 4);
  cluster::Cluster store(kParams, kUnit, kConfig);

  // Network payload bytes sent since `sent0`, and per user byte over
  // `passes` passes of the workload.
  const auto net_sent = [&](std::uint64_t sent0) {
    return static_cast<double>(store.net().stats().bytes_sent - sent0);
  };
  const auto net_per_user_byte = [&](std::uint64_t sent0, std::size_t passes) {
    return net_sent(sent0) /
           (static_cast<double>(passes) * static_cast<double>(w.total_bytes));
  };

  std::size_t put_passes = 0;
  const std::uint64_t put_sent0 = store.net().stats().bytes_sent;
  const double put_secs = tune::measure_seconds_median(
      [&] {
        for (std::size_t i = 0; i < w.objects.size(); ++i)
          store.put("obj" + std::to_string(i), w.objects[i]);
        ++put_passes;
      },
      3);
  const double puts = static_cast<double>(put_passes * w.objects.size());
  std::printf("put    : %7.2f GB/s  (%zu objects, %.1f MB total, %zu "
              "stripes)\n",
              w.total_bytes / put_secs / 1e9, w.objects.size(),
              w.total_bytes / 1e6, store.stats().stripes_written / put_passes);
  // A put ships each unit it stores once, so its units are its payload
  // bytes over the unit size.
  std::printf("         %.2f units stored per put (%.2f placed), %.3f "
              "network B per user B\n",
              net_sent(put_sent0) / kUnit / puts,
              static_cast<double>(store.stats().stripes_written *
                                  kParams.n()) /
                  puts,
              net_per_user_byte(put_sent0, put_passes));

  std::size_t get_passes = 0;
  const auto read_all = [&] {
    for (std::size_t i = 0; i < w.objects.size(); ++i) {
      auto got = store.get("obj" + std::to_string(i));
      benchmark::DoNotOptimize(got);
    }
    ++get_passes;
  };
  const std::uint64_t get_sent0 = store.net().stats().bytes_sent;
  const double get_secs = tune::measure_seconds_median(read_all, 3);
  const std::size_t healthy_passes = get_passes;
  const double healthy_sent = net_sent(get_sent0);
  std::printf("get    : %7.2f GB/s  (healthy, %.3f network B per user B)\n",
              w.total_bytes / get_secs / 1e9,
              net_per_user_byte(get_sent0, healthy_passes));
  check_all(store, w, "healthy");

  store.fail_node(2);
  get_passes = 0;
  const std::uint64_t degraded_sent0 = store.net().stats().bytes_sent;
  const double degraded_secs = tune::measure_seconds_median(read_all, 3);
  std::printf("get    : %7.2f GB/s  (degraded, 1 node down, %zu "
              "reconstructed stripes, %.3f network B per user B)\n",
              w.total_bytes / degraded_secs / 1e9,
              store.stats().degraded_reads,
              net_per_user_byte(degraded_sent0, get_passes));
  // Node 2 is one node of the one domain, so a stripe that lost a
  // carried unit to it fetches one parity in its place, and a degraded
  // pass moves exactly a healthy pass's bytes.
  if (net_sent(degraded_sent0) * healthy_passes !=
      healthy_sent * get_passes) {
    std::printf("!! a degraded pass moved %.0f network B, a healthy one "
                "%.0f\n",
                net_sent(degraded_sent0) / get_passes,
                healthy_sent / healthy_passes);
    g_checks_ok = false;
  }
  // Every stripe places a unit on each of the 14 nodes, but a short
  // stripe stores no padding: a stripe decodes only when node 2 holds
  // one of its carried data units, as it does for most full stripes, so
  // this pass must decode.
  const std::size_t degraded0 = store.stats().degraded_reads;
  check_all(store, w, "degraded");
  if (store.stats().degraded_reads == degraded0) {
    std::printf("!! the degraded pass decoded nothing\n");
    g_checks_ok = false;
  }

  store.revive_node(2);
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t rebuilt = store.repair();
  const double repair_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("repair : %7.2f GB/s  (%zu units rebuilt)\n",
              rebuilt * kUnit / repair_secs / 1e9, rebuilt);
  check_all(store, w, "post-repair");
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --smoke before google-benchmark sees (and rejects) it.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      g_smoke = true;
    else
      argv[out++] = argv[i];
  }
  argc = out;

  benchmark::Initialize(&argc, argv);
  if (!g_smoke) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  try {
    print_paper_table();
  } catch (const std::exception& e) {
    // A get or repair that throws (a stripe past recovery, a rebuilt
    // unit failing its checksum) is a failed check too.
    std::printf("!! E14 table threw: %s\n", e.what());
    g_checks_ok = false;
  }
  if (!g_checks_ok)
    std::printf("\nE14: CHECK FAILURES above — see !! lines\n");
  return g_checks_ok ? 0 : 1;
}
