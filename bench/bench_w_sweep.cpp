// E7 — §8 future work: "measuring the throughput and latency of the
// prototype for different r and w parameters". Sweeps the field word
// size w in {4, 8, 16} (and r in {2, 4}) at k = 10 with 128 KB units.
// Bitmatrix cost grows with w (the bitmatrix is rw x kw), which is why
// production bitmatrix codes stay at w = 8.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_util.h"
#include "ec/bitmatrix_code.h"
#include "ec/reed_solomon.h"

namespace {

using namespace tvmec;

constexpr std::size_t kUnit = 128 * 1024;
constexpr std::size_t kK = 10;

struct Case {
  unsigned w;
  std::size_t r;
};

const std::vector<Case> kCases = {{4, 2}, {4, 4}, {8, 2},
                                  {8, 4}, {16, 2}, {16, 4}};

const gf::Matrix& parity_for(const Case& c) {
  static std::map<std::pair<unsigned, std::size_t>,
                  std::unique_ptr<gf::Matrix>>
      cache;
  auto& m = cache[{c.w, c.r}];
  if (!m) {
    const ec::ReedSolomon rs(ec::CodeParams{kK, c.r, c.w});
    m = std::make_unique<gf::Matrix>(rs.parity_matrix());
  }
  return *m;
}

void bm_w(benchmark::State& state, core::Backend backend, Case c) {
  const auto coder = core::make_coder(backend, parity_for(c));
  const auto data = benchutil::random_data(kK * kUnit, c.w);
  tensor::AlignedBuffer<std::uint8_t> parity(c.r * kUnit);
  for (auto _ : state) coder->apply(data.span(), parity.span(), kUnit);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kK * kUnit));
}

void print_paper_table() {
  benchutil::print_header(
      "E7 (Section 8 future work): throughput across field sizes w",
      "bitmatrix density (and thus XOR work) grows with w; w=8 is the "
      "sweet spot used in the paper's evaluation");

  std::printf("%-10s %6s %14s %12s %12s %14s\n", "(w,r)", "ones",
              "ones/output", "uezato GB/s", "tvm-ec GB/s", "isal GB/s");
  for (const Case& c : kCases) {
    const ec::BitmatrixCode bits(parity_for(c));
    const auto data = benchutil::random_data(kK * kUnit, 100 + c.w);
    tensor::AlignedBuffer<std::uint8_t> parity(c.r * kUnit);

    const auto uezato = core::make_coder(core::Backend::Uezato, parity_for(c));
    const auto gemm = core::make_coder(core::Backend::Gemm, parity_for(c));
    const double uezato_gbps = benchutil::median_encode_gbps(
        *uezato, data.span(), parity.span(), kUnit, 11);
    const double gemm_gbps = benchutil::median_encode_gbps(
        *gemm, data.span(), parity.span(), kUnit, 11);
    double isal_gbps = 0;
    if (c.w == 8) {
      const auto isal = core::make_coder(core::Backend::Isal, parity_for(c));
      isal_gbps = benchutil::median_encode_gbps(*isal, data.span(),
                                                parity.span(), kUnit, 11);
    }
    std::printf("(%2u,%zu)    %6zu %14.1f %12.2f %12.2f %14.2f\n", c.w, c.r,
                bits.ones(),
                static_cast<double>(bits.ones()) /
                    static_cast<double>(bits.bits().rows()),
                uezato_gbps, gemm_gbps, isal_gbps);
  }
  std::printf("\n(isal is GF(2^8)-only; blank elsewhere)\n");
}

}  // namespace

int main(int argc, char** argv) {
  for (const Case& c : kCases) {
    for (const core::Backend b : {core::Backend::Uezato, core::Backend::Gemm}) {
      const std::string name = std::string("encode/") + core::to_string(b) +
                               "/w" + std::to_string(c.w) + "_r" +
                               std::to_string(c.r);
      benchmark::RegisterBenchmark(name.c_str(), bm_w, b, c);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_paper_table();
  return 0;
}
