// E9 — §8 future work: "we plan to include other classes of codes in our
// prototype, such as local reconstruction codes (LRCs)". Because an LRC
// is still a linear code, its encode runs through the same GEMM path —
// "theoretically, all linear codes can be developed via a highly
// optimized GEMM routine". Measures LRC encode throughput on every
// backend and the repair-locality advantage over RS.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/tvmec.h"
#include "ec/lrc.h"
#include "ec/reed_solomon.h"

namespace {

using namespace tvmec;

constexpr std::size_t kUnit = 128 * 1024;

// Azure-flavored LRC(12, 2, 2) vs the RS(12, 4) of equal tolerance count.
const ec::LrcParams kLrcParams{12, 2, 2, 8};

const ec::Lrc& lrc() {
  static const ec::Lrc code(kLrcParams);
  return code;
}

void bm_lrc_encode(benchmark::State& state, core::Backend backend) {
  const auto coder = core::make_coder(backend, lrc().parity_matrix());
  const auto data = benchutil::random_data(kLrcParams.k * kUnit, 11);
  tensor::AlignedBuffer<std::uint8_t> parity(
      (kLrcParams.l + kLrcParams.g) * kUnit);
  for (auto _ : state) coder->apply(data.span(), parity.span(), kUnit);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kLrcParams.k * kUnit));
}

void print_paper_table() {
  benchutil::print_header(
      "E9 (Section 8 future work): LRC via the same GEMM routine",
      "all linear codes run through the optimized GEMM; LRC adds "
      "repair locality");

  const auto data = benchutil::random_data(kLrcParams.k * kUnit, 12);
  tensor::AlignedBuffer<std::uint8_t> parity(
      (kLrcParams.l + kLrcParams.g) * kUnit);

  std::printf("LRC(12,2,2) encode throughput, GB/s:\n");
  for (const core::Backend b :
       {core::Backend::JerasureSmart, core::Backend::Uezato,
        core::Backend::Isal, core::Backend::Gemm}) {
    const auto coder = core::make_coder(b, lrc().parity_matrix());
    const double gbps = benchutil::median_encode_gbps(
        *coder, data.span(), parity.span(), kUnit, 15);
    std::printf("  %-16s %8.2f\n", core::to_string(b), gbps);
  }

  // RS with the same parity count for comparison.
  const ec::ReedSolomon rs(ec::CodeParams{12, 4, 8});
  const auto rs_coder = core::make_coder(core::Backend::Gemm,
                                         rs.parity_matrix());
  tensor::AlignedBuffer<std::uint8_t> rs_parity(4 * kUnit);
  const double rs_gbps = benchutil::median_encode_gbps(
      *rs_coder, data.span(), rs_parity.span(), kUnit, 15);
  std::printf("  %-16s %8.2f   (same parity count, no locality)\n",
              "rs(12,4) tvm-ec", rs_gbps);

  // Repair locality: bytes read to repair one lost data unit, as the
  // one codec plans it for each code.
  const auto local_plan = core::Codec(kLrcParams).plan({0});
  const auto rs_plan = core::Codec(ec::CodeParams{12, 4, 8}).plan({0});
  std::printf("\nsingle-failure repair reads:\n");
  std::printf("  LRC local repair : %zu units (%zu KB)\n",
              local_plan->survivors.size(),
              local_plan->survivors.size() * kUnit / 1024);
  std::printf("  RS repair        : %zu units (%zu KB)  -> LRC reads %.1fx "
              "less\n",
              rs_plan->survivors.size(),
              rs_plan->survivors.size() * kUnit / 1024,
              static_cast<double>(rs_plan->survivors.size()) /
                  static_cast<double>(local_plan->survivors.size()));

  // Repair wall time through the GEMM path.
  const auto local_coder =
      core::make_coder(core::Backend::Gemm, local_plan->recovery);
  const auto rs_repair_coder =
      core::make_coder(core::Backend::Gemm, rs_plan->recovery);
  const auto local_in =
      benchutil::random_data(local_plan->survivors.size() * kUnit, 13);
  const auto rs_in =
      benchutil::random_data(rs_plan->survivors.size() * kUnit, 14);
  tensor::AlignedBuffer<std::uint8_t> out(kUnit);
  local_coder->apply(local_in.span(), out.span(), kUnit);
  const double local_secs = tune::measure_seconds_median(
      [&] { local_coder->apply(local_in.span(), out.span(), kUnit); }, 15);
  rs_repair_coder->apply(rs_in.span(), out.span(), kUnit);
  const double rs_secs = tune::measure_seconds_median(
      [&] { rs_repair_coder->apply(rs_in.span(), out.span(), kUnit); }, 15);
  std::printf("  repair compute   : LRC %.1f us vs RS %.1f us per unit\n",
              local_secs * 1e6, rs_secs * 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  for (const core::Backend b :
       {core::Backend::Uezato, core::Backend::Isal, core::Backend::Gemm}) {
    const std::string name = std::string("lrc-encode/") + core::to_string(b);
    benchmark::RegisterBenchmark(name.c_str(), bm_lrc_encode, b);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_paper_table();
  return 0;
}
