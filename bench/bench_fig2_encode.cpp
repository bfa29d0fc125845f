// E1 + E3 — Figure 2: encoding throughput (GB/s) of TVM-EC vs the
// custom-library baselines (Uezato SC'21 and Intel ISA-L) for k in
// {8,9,10}, r in {2,3,4}, w = 8, 128 KB units; plus the derived speedup
// table behind the paper's headline "up to 1.75x faster, growing with r".

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "ec/reed_solomon.h"

namespace {

using namespace tvmec;

constexpr std::size_t kUnit = 128 * 1024;
constexpr std::size_t kTuneTrials = 96;

struct GridPoint {
  std::size_t k, r;
};

const std::vector<GridPoint> kGrid = {{8, 2},  {8, 3},  {8, 4},
                                      {9, 2},  {9, 3},  {9, 4},
                                      {10, 2}, {10, 3}, {10, 4}};

/// Backends shown in Figure 2 (plus the naive floor and an untuned GEMM
/// for context). "tvm-ec" is the tuned GEMM backend.
struct Entry {
  std::string label;
  std::unique_ptr<ec::MatrixCoder> coder;
};

std::vector<Entry> make_entries(const GridPoint& g) {
  const ec::ReedSolomon rs(ec::CodeParams{g.k, g.r, 8});
  const auto parity = rs.parity_matrix();
  std::vector<Entry> entries;
  entries.push_back({"naive", core::make_coder(core::Backend::NaiveBitmatrix,
                                               parity)});
  entries.push_back(
      {"jerasure", core::make_coder(core::Backend::JerasureSmart, parity)});
  entries.push_back(
      {"uezato", core::make_coder(core::Backend::Uezato, parity)});
  entries.push_back({"isal", core::make_coder(core::Backend::Isal, parity)});

  auto untuned =
      std::make_unique<core::GemmCoder>(parity, tensor::default_schedule());
  entries.push_back({"tvm-ec-untuned", std::move(untuned)});

  auto tuned = std::make_unique<core::GemmCoder>(parity);
  benchutil::tune_gemm(*tuned, kUnit, kTuneTrials,
                       static_cast<int>(std::thread::hardware_concurrency()));
  entries.push_back({"tvm-ec", std::move(tuned)});
  return entries;
}

void bm_encode(benchmark::State& state, const ec::MatrixCoder* coder,
               std::size_t k) {
  const auto data = benchutil::random_data(k * kUnit, 1);
  tensor::AlignedBuffer<std::uint8_t> parity(coder->out_units() * kUnit);
  for (auto _ : state) {
    coder->apply(data.span(), parity.span(), kUnit);
    benchmark::DoNotOptimize(parity.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * kUnit));
}

/// Owns every coder for the lifetime of the benchmark run.
std::vector<std::vector<Entry>>& all_entries() {
  static std::vector<std::vector<Entry>> entries;
  return entries;
}

void print_paper_table() {
  benchutil::print_header(
      "E1 (Figure 2): encoding throughput, GB/s",
      "TVM-EC similar or higher than Uezato/ISA-L everywhere; up to 1.75x");

  std::printf("%-8s", "(k,r)");
  const std::vector<std::string> cols = {"naive",          "jerasure",
                                         "uezato",         "isal",
                                         "tvm-ec-untuned", "tvm-ec"};
  for (const auto& c : cols) std::printf("%16s", c.c_str());
  std::printf("%16s\n", "speedup*");

  double max_speedup = 0;
  std::vector<std::string> picks;
  std::size_t grid_idx = 0;
  for (const auto& g : kGrid) {
    const auto& entries = all_entries()[grid_idx++];
    const auto data = benchutil::random_data(g.k * kUnit, 2);
    // Round-robin measurement: slow CPU-frequency / noisy-neighbor drift
    // hits every backend equally instead of whichever ran last.
    std::vector<const ec::MatrixCoder*> coders;
    for (const auto& e : entries) coders.push_back(e.coder.get());
    const std::vector<double> medians =
        benchutil::interleaved_median_gbps(coders, data.span(), kUnit);
    std::map<std::string, double> gbps;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      gbps[entries[i].label] = medians[i];
      if (entries[i].label == "tvm-ec")  // make_entries' tuned GemmCoder
        picks.push_back(static_cast<const core::GemmCoder&>(*entries[i].coder)
                            .schedule()
                            .to_string());
    }
    const double best_baseline = std::max(gbps["uezato"], gbps["isal"]);
    const double speedup = gbps["tvm-ec"] / best_baseline;
    max_speedup = std::max(max_speedup, speedup);

    std::printf("(%zu,%zu)  ", g.k, g.r);
    for (const auto& c : cols) std::printf("%16.2f", gbps[c]);
    std::printf("%15.2fx\n", speedup);
  }
  std::printf("\n* speedup = tvm-ec / max(uezato, isal)   "
              "max over grid: %.2fx (paper: 1.75x)\n",
              max_speedup);

  std::printf("\ntvm-ec picks (%zu model-guided trials, finalists "
              "re-measured):\n",
              kTuneTrials);
  for (std::size_t i = 0; i < kGrid.size(); ++i)
    std::printf("(%zu,%zu)   %s\n", kGrid[i].k, kGrid[i].r,
                picks[i].c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // Build coders (tuning included) once, register benchmarks over them.
  for (const auto& g : kGrid) {
    all_entries().push_back(make_entries(g));
    for (const auto& e : all_entries().back()) {
      const std::string name = "encode/" + e.label + "/k" +
                               std::to_string(g.k) + "_r" +
                               std::to_string(g.r);
      // Wall-clock rates: a threaded coder's main-thread CPU time
      // undercounts its work.
      benchmark::RegisterBenchmark(name.c_str(), bm_encode, e.coder.get(),
                                   g.k)
          ->UseRealTime();
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_paper_table();
  return 0;
}
