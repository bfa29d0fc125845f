// E14 (extension; paper §8 "measure the performance on real storage
// workloads") — a synthetic-but-shaped object workload driven through
// the erasure-coded object store (a one-domain cluster::Cluster):
// lognormal object sizes (the classic blob-store distribution), a
// read-heavy op mix, and a node failure mid-run. Reports end-to-end
// store throughput, where encoding is one cost among memcpy, CRCs,
// placement, and reconstruction.

#include <benchmark/benchmark.h>

#include <random>

#include "bench_util.h"
#include "cluster/cluster.h"

namespace {

using namespace tvmec;

constexpr std::size_t kUnit = 64 * 1024;
const ec::CodeParams kParams{10, 4, 8};
const cluster::ClusterConfig kConfig{.num_nodes = 14};

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

  const Workload w = make_workload(32, 4);
  cluster::Cluster store(kParams, kUnit, kConfig);

  const double put_secs = tune::measure_seconds_median(
      [&] {
        for (std::size_t i = 0; i < w.objects.size(); ++i)
          store.put("obj" + std::to_string(i), w.objects[i]);
      },
      3);
  std::printf("put    : %7.2f GB/s  (%zu objects, %.1f MB total, %zu "
              "stripes)\n",
              w.total_bytes / put_secs / 1e9, w.objects.size(),
              w.total_bytes / 1e6, store.stats().stripes_written);

  const auto read_all = [&] {
    for (std::size_t i = 0; i < w.objects.size(); ++i) {
      auto got = store.get("obj" + std::to_string(i));
      benchmark::DoNotOptimize(got);
    }
  };
  const double get_secs = tune::measure_seconds_median(read_all, 3);
  std::printf("get    : %7.2f GB/s  (healthy)\n",
              w.total_bytes / get_secs / 1e9);

  store.fail_node(2);
  const double degraded_secs = tune::measure_seconds_median(read_all, 3);
  std::printf("get    : %7.2f GB/s  (degraded, 1 node down, %zu "
              "reconstructed stripes)\n",
              w.total_bytes / degraded_secs / 1e9,
              store.stats().degraded_reads);

  store.revive_node(2);
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t rebuilt = store.repair();
  const double repair_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("repair : %7.2f GB/s  (%zu units rebuilt)\n",
              rebuilt * kUnit / repair_secs / 1e9, rebuilt);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_paper_table();
  return 0;
}
