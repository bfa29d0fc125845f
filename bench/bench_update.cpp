// E12 (extension) — small-write parity update: erasure-coded stores
// patch parities on partial writes using code linearity instead of
// re-encoding the whole stripe. Both paths run through the GEMM backend;
// this measures what the delta optimization buys as a function of how
// many units change.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/tvmec.h"

namespace {

using namespace tvmec;

constexpr std::size_t kUnit = 128 * 1024;
constexpr std::size_t kK = 10;
constexpr std::size_t kR = 4;

core::Codec& codec() {
  static core::Codec c(ec::CodeParams{kK, kR, 8});
  return c;
}

tensor::AlignedBuffer<std::uint8_t>& stripe() {
  static tensor::AlignedBuffer<std::uint8_t> s = [] {
    tensor::AlignedBuffer<std::uint8_t> buf((kK + kR) * kUnit);
    const auto data = benchutil::random_data(kK * kUnit, 1);
    std::copy(data.span().begin(), data.span().end(), buf.data());
    codec().encode(
        std::span<const std::uint8_t>(buf.data(), kK * kUnit),
        std::span<std::uint8_t>(buf.data() + kK * kUnit, kR * kUnit), kUnit);
    return buf;
  }();
  return s;
}

void bm_delta_update(benchmark::State& state) {
  const std::size_t changed = static_cast<std::size_t>(state.range(0));
  const auto new_data = benchutil::random_data(changed * kUnit, 2);
  for (auto _ : state) {
    for (std::size_t u = 0; u < changed; ++u)
      codec().update_unit(stripe().span(), u,
                          new_data.span().subspan(u * kUnit, kUnit), kUnit);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(changed * kUnit));
}

void bm_full_reencode(benchmark::State& state) {
  const std::size_t changed = static_cast<std::size_t>(state.range(0));
  const auto new_data = benchutil::random_data(changed * kUnit, 3);
  for (auto _ : state) {
    for (std::size_t u = 0; u < changed; ++u)
      std::copy(new_data.span().begin() +
                    static_cast<std::ptrdiff_t>(u * kUnit),
                new_data.span().begin() +
                    static_cast<std::ptrdiff_t>((u + 1) * kUnit),
                stripe().data() + u * kUnit);
    codec().encode(
        std::span<const std::uint8_t>(stripe().data(), kK * kUnit),
        std::span<std::uint8_t>(stripe().data() + kK * kUnit, kR * kUnit),
        kUnit);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(changed * kUnit));
}

BENCHMARK(bm_delta_update)->Arg(1)->Arg(2)->Arg(5)->Arg(10);
BENCHMARK(bm_full_reencode)->Arg(1)->Arg(2)->Arg(5)->Arg(10);

void print_paper_table() {
  benchutil::print_header(
      "E12 (extension): small-write parity update via linearity",
      "delta updates beat full re-encode when few of the k units change; "
      "crossover approaches k as more units change");

  std::printf("%-16s %18s %18s %10s\n", "changed units", "delta us/write",
              "re-encode us/write", "speedup");
  for (const std::size_t changed : {1u, 2u, 5u, 10u}) {
    const auto new_data = benchutil::random_data(changed * kUnit, 4);
    const double delta_secs = tune::measure_seconds_median(
        [&] {
          for (std::size_t u = 0; u < changed; ++u)
            codec().update_unit(stripe().span(), u,
                                new_data.span().subspan(u * kUnit, kUnit),
                                kUnit);
        },
        15);
    const double full_secs = tune::measure_seconds_median(
        [&] {
          codec().encode(
              std::span<const std::uint8_t>(stripe().data(), kK * kUnit),
              std::span<std::uint8_t>(stripe().data() + kK * kUnit,
                                      kR * kUnit),
              kUnit);
        },
        15);
    std::printf("%-16zu %18.1f %18.1f %9.2fx\n", changed, delta_secs * 1e6,
                full_secs * 1e6, full_secs / delta_secs);
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
