// E6 — §8 future work: decoding throughput. "The decoding process is
// very similar to that of encoding" (§2): a decode is the recovery
// matrix applied as a GEMM. This bench measures decode throughput across
// erasure counts and data/parity mixes for all backends.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_util.h"
#include "ec/decoder.h"
#include "ec/reed_solomon.h"

namespace {

using namespace tvmec;

constexpr std::size_t kUnit = 128 * 1024;
constexpr std::size_t kK = 10;
constexpr std::size_t kR = 4;

const ec::ReedSolomon& code() {
  static const ec::ReedSolomon rs(ec::CodeParams{kK, kR, 8});
  return rs;
}

/// Erasure patterns: 1..4 failures, data-heavy and parity-heavy mixes.
const std::map<std::string, std::vector<std::size_t>>& patterns() {
  static const std::map<std::string, std::vector<std::size_t>> p = {
      {"1data", {0}},
      {"2data", {0, 5}},
      {"3data", {0, 5, 9}},
      {"4data", {0, 3, 6, 9}},
      {"2data2parity", {0, 5, 10, 13}},
      {"4parity", {10, 11, 12, 13}},
  };
  return p;
}

void bm_decode(benchmark::State& state, const std::string& backend_name,
               core::Backend backend, const std::string& pattern_name) {
  const auto& erased = patterns().at(pattern_name);
  const auto plan = ec::make_decode_plan(code().generator(), erased);
  const auto coder = core::make_coder(backend, plan->recovery);
  const auto survivors =
      benchutil::random_data(plan->survivors.size() * kUnit, 7);
  tensor::AlignedBuffer<std::uint8_t> out(erased.size() * kUnit);
  for (auto _ : state) coder->apply(survivors.span(), out.span(), kUnit);
  // Decode throughput convention: recovered bytes per second would be
  // tiny for single failures; like the paper's encode numbers we report
  // consumed survivor bytes.
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(plan->survivors.size() * kUnit));
  (void)backend_name;
}

void print_paper_table() {
  benchutil::print_header(
      "E6 (Section 8 future work): decoding throughput, GB/s",
      "decode == encode with the recovery matrix; throughput falls as "
      "more units are reconstructed");

  const std::vector<std::pair<std::string, core::Backend>> backends = {
      {"jerasure", core::Backend::JerasureSmart},
      {"uezato", core::Backend::Uezato},
      {"isal", core::Backend::Isal},
      {"tvm-ec", core::Backend::Gemm},
  };
  std::printf("%-14s", "pattern");
  for (const auto& [name, b] : backends) std::printf("%12s", name.c_str());
  std::printf("\n");

  for (const auto& [pattern_name, erased] : patterns()) {
    const auto plan = ec::make_decode_plan(code().generator(), erased);
    const auto survivors =
        benchutil::random_data(plan->survivors.size() * kUnit, 8);
    std::printf("%-14s", pattern_name.c_str());
    for (const auto& [name, b] : backends) {
      const auto coder = core::make_coder(b, plan->recovery);
      tensor::AlignedBuffer<std::uint8_t> out(erased.size() * kUnit);
      const double gbps = benchutil::median_encode_gbps(
          *coder, survivors.span(), out.span(), kUnit, 15);
      std::printf("%12.2f", gbps);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (const auto& [pattern_name, erased] : patterns()) {
    for (const auto& [name, b] :
         std::vector<std::pair<std::string, core::Backend>>{
             {"uezato", core::Backend::Uezato},
             {"isal", core::Backend::Isal},
             {"tvm-ec", core::Backend::Gemm}}) {
      const std::string bench_name = "decode/" + name + "/" + pattern_name;
      benchmark::RegisterBenchmark(bench_name.c_str(), bm_decode, name, b,
                                   pattern_name);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_paper_table();
  return 0;
}
