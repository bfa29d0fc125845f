// E16 — thread scaling of the parallel GEMM encode path. The paper's
// multi-core wins (§6, 1.75x on an 8-core Xeon) rest on the GEMM stack
// keeping every core busy. For erasure coding M = out_units*w is tiny
// (32 rows here), so on the tiled road M-only partitioning runs out of
// work at M/tile_m chunks; N-partitioning (each worker owning a
// contiguous span of data words) scales with the data axis. The Gfni
// road always splits N, so there the axis knob changes nothing. The
// table measures encode throughput vs thread count for par_m / par_n /
// par_mn schedules on every kernel tier the host offers, each pinned
// through Schedule::variant (a TVMEC_FORCE_VARIANT override beats it).
// JSON output: like every bench binary here, pass
// --benchmark_format=json for machine-readable results.

#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "bench_util.h"
#include "ec/reed_solomon.h"
#include "tensor/threadpool.h"
#include "tensor/variant.h"

namespace {

using namespace tvmec;

// EC-shaped task from the acceptance setup: M = 32 rows of parity words,
// N = 65536 data words per packet row (4 MiB units), K = 80.
constexpr std::size_t kUnit = 4 * 1024 * 1024;
constexpr std::size_t kK = 10;
constexpr std::size_t kR = 4;

const gf::Matrix& parity_matrix() {
  static const ec::ReedSolomon rs(ec::CodeParams{kK, kR, 8});
  static const gf::Matrix parity = rs.parity_matrix();
  return parity;
}

tensor::Schedule scaling_schedule(
    tensor::ParAxis axis, int threads,
    tensor::KernelVariant variant = tensor::KernelVariant::Auto) {
  tensor::Schedule s = core::default_coder_schedule();
  s.num_threads = threads;
  s.par_axis = axis;
  s.par_grain = 0;  // auto chunking: a few chunks per thread
  s.variant = variant;
  return s;
}

void bm_scaling(benchmark::State& state) {
  const auto axis = static_cast<tensor::ParAxis>(state.range(1));
  core::GemmCoder coder(parity_matrix(),
                        scaling_schedule(axis, static_cast<int>(state.range(0))));
  const auto data = benchutil::random_data(kK * kUnit, 16);
  tensor::AlignedBuffer<std::uint8_t> parity(kR * kUnit);
  for (auto _ : state) coder.apply(data.span(), parity.span(), kUnit);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kK * kUnit));
  state.SetLabel(coder.schedule().to_string());
}
BENCHMARK(bm_scaling)
    ->ArgsProduct({{1, 2, 4, 8},
                   {static_cast<long>(tensor::ParAxis::M),
                    static_cast<long>(tensor::ParAxis::N),
                    static_cast<long>(tensor::ParAxis::MN)}})
    ->ArgNames({"threads", "axis"})
    ->UseRealTime();

std::vector<int> thread_points() {
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  std::vector<int> points;
  for (int t = 1; t < hw; t *= 2) points.push_back(t);
  points.push_back(hw);
  return points;
}

void print_paper_table() {
  benchutil::print_header(
      "E16: encode throughput vs thread count per kernel tier, GB/s "
      "(k=10 r=4 w=8, 4 MiB units: M=32, N=65536 words)",
      "on the tiled tiers N-partitioned schedules keep scaling with "
      "cores while M-only partitioning stops at M/tile_m chunks; the "
      "Gfni road always splits N");

  const tensor::Schedule rep = core::default_coder_schedule();
  const std::size_t m_chunks =
      (kR * 8 + static_cast<std::size_t>(rep.tile_m) - 1) /
      static_cast<std::size_t>(rep.tile_m);
  std::printf("pool width: %zu, par_m work chunks available: %zu\n\n",
              tensor::ThreadPool::shared().size(), m_chunks);

  const auto data = benchutil::random_data(kK * kUnit, 17);
  tensor::AlignedBuffer<std::uint8_t> parity(kR * kUnit);

  std::printf("%-8s %-8s %10s %10s %10s\n", "tier", "threads", "par_m",
              "par_n", "par_mn");
  for (const tensor::KernelVariant v : tensor::available_variants()) {
    for (const int t : thread_points()) {
      std::printf("%-8s %-8d", tensor::to_string(tensor::resolve_variant(v)),
                  t);
      for (const tensor::ParAxis axis :
           {tensor::ParAxis::M, tensor::ParAxis::N, tensor::ParAxis::MN}) {
        core::GemmCoder coder(parity_matrix(), scaling_schedule(axis, t, v));
        std::printf(" %10.2f",
                    benchutil::median_encode_gbps(coder, data.span(),
                                                  parity.span(), kUnit, 9));
      }
      std::printf("\n");
    }
  }
  if (std::thread::hardware_concurrency() <= 1)
    std::printf("\n(single hardware thread exposed: scaling cannot "
                "manifest on this machine; run on a multicore host)\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_paper_table();
  return 0;
}
