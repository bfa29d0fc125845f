// E13 (ablation) — why the schedule space looks the way it does: sweeps
// the microkernel register-tile shape at fixed blocking, showing
//  (a) wide N tiles amortize the per-(row,k) A-mask broadcast,
//  (b) taller M tiles amortize B loads until accumulators spill,
//  (c) the tuner's preferred region (mt4-8 x 16-32) is a real optimum.
// This is the design-choice evidence behind DESIGN.md's schedule menu.
//
// --smoke: skips the google-benchmark sweep and gates on runtime kernel
// dispatch — if the resolved variant (with no TVMEC_FORCE_VARIANT
// explaining it) is not best_variant(), or not the best tier CPUID says
// this host has, the dispatch seam is broken and the run exits nonzero.
// CI uses this to catch "generic build silently fell back to a lesser
// tier" (portable code, or AVX-512 on a GFNI host).

#include <benchmark/benchmark.h>

#include <cstring>

#include "bench_util.h"
#include "ec/reed_solomon.h"
#include "tensor/microkernel.h"
#include "tensor/variant.h"

namespace {

using namespace tvmec;

constexpr std::size_t kUnit = 128 * 1024;
constexpr std::size_t kK = 10;
constexpr std::size_t kR = 4;

const gf::Matrix& parity_matrix() {
  static const ec::ReedSolomon rs(ec::CodeParams{kK, kR, 8});
  static const gf::Matrix parity = rs.parity_matrix();
  return parity;
}

void print_variant_line() {
  std::printf("active kernel variant: %s (best available: %s%s)\n",
              tensor::to_string(tensor::active_variant()),
              tensor::to_string(tensor::best_variant()),
              tensor::forced_variant() ? ", forced via TVMEC_FORCE_VARIANT"
                                       : "");
}

/// The tier CPUID says this host runs best, whatever the binary carries.
tensor::KernelVariant cpuid_best_variant() {
  const tensor::CpuFeatures& f = tensor::cpu_features();
  const bool avx512 = f.avx512f && f.avx512bw && f.avx512vl;
  if (avx512 && f.gfni) return tensor::KernelVariant::Gfni;
  if (avx512) return tensor::KernelVariant::Avx512;
  if (f.avx2) return tensor::KernelVariant::Avx2;
  if (f.neon) return tensor::KernelVariant::Neon;
  return tensor::KernelVariant::Scalar;
}

/// --smoke gate: an unforced run must resolve to best_variant(), and that
/// must be the best tier CPUID reports (a lesser one means a variant TU
/// fell out of the binary). Returns the process exit code.
int run_smoke_gate() {
  print_variant_line();
  const tensor::KernelVariant active = tensor::active_variant();
  const tensor::KernelVariant best = tensor::best_variant();
  const tensor::KernelVariant host = cpuid_best_variant();
  if (tensor::forced_variant()) {
    std::printf("smoke: variant forced, dispatch gate skipped\n");
    return 0;
  }
  if (active != best || active != host) {
    std::printf(
        "smoke: FAIL — CPUID offers %s, best_variant() is %s, dispatch "
        "resolved %s\n",
        tensor::to_string(host), tensor::to_string(best),
        tensor::to_string(active));
    return 1;
  }
  std::printf("smoke: dispatch OK\n");
  return 0;
}

void bm_tile(benchmark::State& state) {
  tensor::Schedule s;
  s.tile_m = static_cast<int>(state.range(0));
  s.tile_n = static_cast<int>(state.range(1));
  s.block_n = 512;
  core::GemmCoder coder(parity_matrix(), s);
  const auto data = benchutil::random_data(kK * kUnit, 5);
  tensor::AlignedBuffer<std::uint8_t> parity(kR * kUnit);
  for (auto _ : state) coder.apply(data.span(), parity.span(), kUnit);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kK * kUnit));
}
BENCHMARK(bm_tile)
    ->ArgsProduct({{1, 2, 4, 8}, {4, 8, 16, 32, 64}})
    ->ArgNames({"tm", "tn"});

void print_paper_table() {
  benchutil::print_header(
      "E13 (ablation): register-tile shape sweep, GB/s (k=10 r=4, nb512)",
      "wide tiles amortize mask broadcasts; the best region is "
      "mt4-8 x tn16-32 on SIMD builds");
  std::printf("SIMD codegen path: %s\n",
              tensor::xorand_simd_codegen() ? "yes" : "no (portable)");
  print_variant_line();
  std::printf("\n");

  const auto data = benchutil::random_data(kK * kUnit, 6);
  tensor::AlignedBuffer<std::uint8_t> parity(kR * kUnit);
  std::printf("%-6s", "tm\\tn");
  for (const int tn : {4, 8, 16, 32, 64}) std::printf("%8d", tn);
  std::printf("\n");
  for (const int tm : {1, 2, 4, 8}) {
    std::printf("%-6d", tm);
    for (const int tn : {4, 8, 16, 32, 64}) {
      tensor::Schedule s;
      s.tile_m = tm;
      s.tile_n = tn;
      s.block_n = 512;
      core::GemmCoder coder(parity_matrix(), s);
      std::printf("%8.2f", benchutil::median_encode_gbps(
                               coder, data.span(), parity.span(), kUnit, 11));
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --smoke before google-benchmark sees (and rejects) it.
  bool smoke = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else
      argv[out++] = argv[i];
  }
  argc = out;

  benchmark::Initialize(&argc, argv);
  if (smoke) {
    benchmark::Shutdown();
    return run_smoke_gate();
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_paper_table();
  return 0;
}
