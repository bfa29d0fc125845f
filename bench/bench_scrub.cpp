// E17 (extension; robustness follow-up to E14) — background scrubbing
// cost: a CRC-32C check of every stored unit of an erasure-coded object
// store (node-local, no parity re-encode), with in-place DAG repair of
// planted corruption through the GEMM decode path. Reports verified
// GB/s and repairs/s at several latent-corruption rates; the 0% row is
// the steady-state "scrub tax" a deployment pays, the others price the
// recovery work.

#include <benchmark/benchmark.h>

#include <random>

#include "bench_util.h"
#include "cluster/scrubber.h"
#include "storage/crc32c.h"

namespace {

using namespace tvmec;

constexpr std::size_t kUnit = 64 * 1024;
constexpr std::size_t kObjects = 16;
constexpr std::size_t kStripesPerObject = 4;
const ec::CodeParams kParams{10, 4, 8};
const cluster::ClusterConfig kConfig{.num_nodes = 14};

void fill_store(cluster::Cluster& store) {
  const std::size_t object_bytes = kStripesPerObject * kParams.k * kUnit;
  for (std::size_t i = 0; i < kObjects; ++i) {
    const auto data = benchutil::random_data(object_bytes, i);
    store.put("obj" + std::to_string(i),
              std::span<const std::uint8_t>(data.data(), data.size()));
  }
}

/// Flips one byte in ~`per_mille`/1000 of all units, never more than r
/// per stripe (so every stripe stays repairable). Returns units planted.
std::size_t plant_corruption(cluster::Cluster& store,
                             std::size_t per_mille, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::size_t planted = 0;
  for (std::size_t i = 0; i < kObjects; ++i) {
    const std::string name = "obj" + std::to_string(i);
    for (std::size_t s = 0; s < kStripesPerObject; ++s) {
      std::size_t in_stripe = 0;
      for (std::size_t u = 0; u < kParams.n() && in_stripe < kParams.r; ++u) {
        if (rng() % 1000 >= per_mille) continue;
        if (store.corrupt_unit(name, s, u)) {
          ++planted;
          ++in_stripe;
        }
      }
    }
  }
  return planted;
}

void bm_scrub_pass(benchmark::State& state) {
  const auto per_mille = static_cast<std::size_t>(state.range(0));
  cluster::Cluster store(kParams, kUnit, kConfig);
  fill_store(store);
  std::uint64_t seed = 42;
  std::uint64_t verified = 0;
  for (auto _ : state) {
    state.PauseTiming();
    plant_corruption(store, per_mille, seed++);
    cluster::Scrubber scrubber(store);
    state.ResumeTiming();
    const cluster::ScrubStats pass = scrubber.run();
    verified += pass.bytes_verified;
    benchmark::DoNotOptimize(pass.units_repaired);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(verified));
  state.SetLabel(std::to_string(per_mille) + " per-mille corrupt");
}
BENCHMARK(bm_scrub_pass)
    ->Arg(0)
    ->Arg(10)
    ->Arg(50)
    ->Unit(benchmark::kMillisecond);

void bm_scrub_step(benchmark::State& state) {
  // Incremental operation: one small cursor step per iteration, the way
  // a deployment interleaves scrubbing with foreground traffic.
  cluster::Cluster store(kParams, kUnit, kConfig);
  fill_store(store);
  cluster::Scrubber scrubber(store);
  std::uint64_t verified = 0;
  for (auto _ : state) {
    const cluster::ScrubStats inc = scrubber.step(2);
    verified += inc.bytes_verified;
    benchmark::DoNotOptimize(inc.stripes_scanned);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(verified));
}
BENCHMARK(bm_scrub_step)->Unit(benchmark::kMicrosecond);

void print_paper_table() {
  benchutil::print_header(
      "E17 (extension): background scrub throughput vs corruption rate",
      "self-healing in situ: a node-local CRC-32C pass (no parity "
      "re-encode) runs at checksum speed; repairs ride the DAG decode path");

  std::printf("crc32c tier: %s\n\n",
              storage::to_string(storage::crc32c_tier()));
  std::printf("%-12s %10s %12s %12s %10s\n", "corruption", "planted",
              "verified", "scrub GB/s", "repairs/s");
  std::uint64_t seed = 7;
  for (const std::size_t per_mille : {0ul, 5ul, 20ul, 50ul}) {
    cluster::Cluster store(kParams, kUnit, kConfig);
    fill_store(store);
    const std::size_t planted = plant_corruption(store, per_mille, seed++);
    cluster::Scrubber scrubber(store);

    const auto t0 = std::chrono::steady_clock::now();
    const cluster::ScrubStats pass = scrubber.run();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    std::printf("%4.1f%%        %10zu %10.1f MB %12.2f %10.0f\n",
                per_mille / 10.0, planted, pass.bytes_verified / 1e6,
                pass.bytes_verified / secs / 1e9,
                pass.units_repaired / secs);
    if (pass.units_repaired != planted)
      std::printf("  !! repaired %zu of %zu planted\n", pass.units_repaired,
                  planted);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_paper_table();
  return 0;
}
