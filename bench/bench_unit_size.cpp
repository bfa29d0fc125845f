// E10 — §8 future work: throughput *and latency* sensitivity to unit
// size, k=10 r=4 w=8, units from 4 KB to 4 MB. Small units measure
// per-call latency (the metric a write path cares about); large units
// measure streaming throughput and cache behaviour.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_util.h"
#include "ec/reed_solomon.h"

namespace {

using namespace tvmec;

constexpr std::size_t kK = 10;
constexpr std::size_t kR = 4;

const std::vector<std::size_t> kUnitSizes = {
    4 << 10, 16 << 10, 64 << 10, 128 << 10, 512 << 10, 1 << 20, 4 << 20};

const gf::Matrix& parity_matrix() {
  static const ec::ReedSolomon rs(ec::CodeParams{kK, kR, 8});
  static const gf::Matrix parity = rs.parity_matrix();
  return parity;
}

void bm_unit(benchmark::State& state, core::Backend backend) {
  const std::size_t unit = static_cast<std::size_t>(state.range(0));
  const auto coder = core::make_coder(backend, parity_matrix());
  const auto data = benchutil::random_data(kK * unit, unit);
  tensor::AlignedBuffer<std::uint8_t> parity(kR * unit);
  for (auto _ : state) coder->apply(data.span(), parity.span(), unit);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kK * unit));
}

void print_paper_table() {
  benchutil::print_header(
      "E10 (Section 8 future work): unit-size sweep, k=10 r=4 w=8",
      "throughput and per-call latency across unit sizes");

  std::printf("%-12s %14s %14s %16s %16s\n", "unit", "uezato GB/s",
              "tvm-ec GB/s", "uezato us/call", "tvm-ec us/call");
  for (const std::size_t unit : kUnitSizes) {
    const auto uezato = core::make_coder(core::Backend::Uezato,
                                         parity_matrix());
    const auto gemm = core::make_coder(core::Backend::Gemm, parity_matrix());
    const auto data = benchutil::random_data(kK * unit, unit + 1);
    tensor::AlignedBuffer<std::uint8_t> parity(kR * unit);

    uezato->apply(data.span(), parity.span(), unit);
    const double uezato_secs = tune::measure_seconds_median(
        [&] { uezato->apply(data.span(), parity.span(), unit); }, 15);
    gemm->apply(data.span(), parity.span(), unit);
    const double gemm_secs = tune::measure_seconds_median(
        [&] { gemm->apply(data.span(), parity.span(), unit); }, 15);
    const double bytes = static_cast<double>(kK * unit);
    std::printf("%-12zu %14.2f %14.2f %16.1f %16.1f\n", unit,
                bytes / uezato_secs / 1e9, bytes / gemm_secs / 1e9,
                uezato_secs * 1e6, gemm_secs * 1e6);
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (const core::Backend b : {core::Backend::Uezato, core::Backend::Gemm}) {
    const std::string name = std::string("encode/") + core::to_string(b);
    auto* bench = benchmark::RegisterBenchmark(name.c_str(), bm_unit, b);
    for (const std::size_t unit : kUnitSizes)
      bench->Arg(static_cast<std::int64_t>(unit));
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_paper_table();
  return 0;
}
