// E2 — §5 contiguity claim: "performing memcpy operations to reorganize
// these distinct pointers into a contiguous buffer adds considerable time
// overhead (up to 84% in our experiments)".
//
// Measures the GEMM encode (a) on a pre-staged contiguous buffer (the §5
// recommended design), (b) behind k + r scattered unit pointers, gathered
// into a staging buffer first and the parities scattered back out (the
// staged pointer API the paper measures), and (c) through
// encode_scattered, the zero-copy path that hands the scattered unit
// pointers straight to the fragment-aware GEMM kernel — and reports how
// much of the measured gather overhead the zero-copy path recovers (E21).

#include <benchmark/benchmark.h>

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "core/tvmec.h"
#include "ec/reed_solomon.h"

namespace {

using namespace tvmec;

constexpr std::size_t kK = 10;
constexpr std::size_t kR = 4;

struct Fixture {
  explicit Fixture(std::size_t unit)
      : unit_size(unit),
        codec(ec::CodeParams{kK, kR, 8}),
        contiguous(benchutil::random_data(kK * unit, 11)),
        parity(kR * unit),
        staging((kK + kR) * unit) {
    for (std::size_t i = 0; i < kK; ++i) {
      scattered.push_back(benchutil::random_data(unit, 20 + i));
      scattered_ptrs.push_back(scattered.back().data());
    }
    for (std::size_t i = 0; i < kR; ++i) {
      parity_units.emplace_back(unit);
      parity_ptrs.push_back(parity_units.back().data());
    }
  }

  std::size_t unit_size;
  core::Codec codec;
  tensor::AlignedBuffer<std::uint8_t> contiguous;
  tensor::AlignedBuffer<std::uint8_t> parity;
  tensor::AlignedBuffer<std::uint8_t> staging;  ///< the gather arm's buffer
  std::vector<tensor::AlignedBuffer<std::uint8_t>> scattered;
  std::vector<const std::uint8_t*> scattered_ptrs;
  std::vector<tensor::AlignedBuffer<std::uint8_t>> parity_units;
  std::vector<std::uint8_t*> parity_ptrs;
};

/// The staged pointer API: gather the k scattered units into the
/// contiguous staging buffer, encode, and scatter the parities back out
/// to their own pointers — the memcpys the paper's §5 measures.
void gather_encode(Fixture& f) {
  const std::size_t unit = f.unit_size;
  std::uint8_t* const data = f.staging.data();
  std::uint8_t* const parity = data + kK * unit;
  for (std::size_t i = 0; i < kK; ++i)
    std::memcpy(data + i * unit, f.scattered_ptrs[i], unit);
  f.codec.encode({data, kK * unit}, {parity, kR * unit}, unit);
  for (std::size_t i = 0; i < kR; ++i)
    std::memcpy(f.parity_ptrs[i], parity + i * unit, unit);
}

Fixture& fixture_for(std::size_t unit) {
  static std::map<std::size_t, std::unique_ptr<Fixture>> cache;
  auto& f = cache[unit];
  if (!f) f = std::make_unique<Fixture>(unit);
  return *f;
}

void bm_contiguous(benchmark::State& state) {
  Fixture& f = fixture_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    f.codec.encode(f.contiguous.span(), f.parity.span(), f.unit_size);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kK * f.unit_size));
}

void bm_scattered_ptrs(benchmark::State& state) {
  Fixture& f = fixture_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) gather_encode(f);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kK * f.unit_size));
}

void bm_scattered_zero_copy(benchmark::State& state) {
  Fixture& f = fixture_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    f.codec.encode_scattered(f.scattered_ptrs, f.parity_ptrs, f.unit_size);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kK * f.unit_size));
}

// Unit sizes from the small-request scale (4 KiB) to bulk stripes (1 MiB).
void unit_grid(benchmark::internal::Benchmark* b) {
  for (const std::int64_t unit :
       {4 << 10, 8 << 10, 16 << 10, 128 << 10, 1 << 20})
    b->Arg(unit);
}

BENCHMARK(bm_contiguous)->Apply(unit_grid);
BENCHMARK(bm_scattered_ptrs)->Apply(unit_grid);
BENCHMARK(bm_scattered_zero_copy)->Apply(unit_grid);

void print_paper_table() {
  benchutil::print_header(
      "E2/E21 (Section 5): memcpy overhead of scattered operands",
      "gathering pointer-per-unit operands adds up to 84% time overhead; "
      "the zero-copy scattered kernel recovers most of it");

  std::printf("%-12s %16s %16s %16s %10s %10s %10s\n", "unit size",
              "contiguous GB/s", "ptr-gather GB/s", "zero-copy GB/s",
              "gather ovh", "zc ovh", "recovered");
  for (const std::size_t unit :
       {4u << 10, 8u << 10, 16u << 10, 128u << 10, 1u << 20}) {
    Fixture& f = fixture_for(unit);
    f.codec.encode(f.contiguous.span(), f.parity.span(), unit);  // warm
    const double contig_secs = tune::measure_seconds_median(
        [&] { f.codec.encode(f.contiguous.span(), f.parity.span(), unit); },
        21);
    const double ptr_secs =
        tune::measure_seconds_median([&] { gather_encode(f); }, 21);
    const double zc_secs = tune::measure_seconds_median(
        [&] {
          f.codec.encode_scattered(f.scattered_ptrs, f.parity_ptrs,
                                   f.unit_size);
        },
        21);
    const double bytes = static_cast<double>(kK * unit);
    const double gather_ovh = ptr_secs / contig_secs - 1.0;
    const double zc_ovh = zc_secs / contig_secs - 1.0;
    // Fraction of the measured gather tax the zero-copy path gives back.
    const double recovered =
        gather_ovh > 0.0 ? (gather_ovh - zc_ovh) / gather_ovh : 0.0;
    std::printf("%-12zu %16.2f %16.2f %16.2f %9.1f%% %9.1f%% %9.1f%%\n",
                unit, bytes / contig_secs / 1e9, bytes / ptr_secs / 1e9,
                bytes / zc_secs / 1e9, gather_ovh * 100.0, zc_ovh * 100.0,
                recovered * 100.0);
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
