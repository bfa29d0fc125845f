// E18 (extension; testing-infrastructure follow-up to E17) — differential
// fuzz harness throughput: configs/sec for each scenario and for the
// mixed randomized campaign. This prices the nightly CI budget: at the
// measured rate, a 10-minute scheduled job covers rate x 600 random
// configs. A regression here silently shrinks nightly coverage, so the
// harness itself is benchmarked like any other subsystem.

#include <benchmark/benchmark.h>

#include <random>

#include "testing/diff_fuzzer.h"
#include "testing/fuzz_config.h"

namespace {

using namespace tvmec;

/// One fixed, representative config per scenario (mid-sized shapes so
/// the numbers reflect real campaign work, not degenerate k==1 draws).
testing::FuzzConfig scenario_config(testing::Scenario s) {
  testing::FuzzConfig c;
  c.scenario = s;
  c.k = 8;
  c.r = 3;
  c.w = 8;
  c.unit_size = 512;
  c.seed = 99;
  switch (s) {
    case testing::Scenario::RsDecode:
      c.losses = {1, 6, 9};
      break;
    case testing::Scenario::LrcRoundTrip:
      c.l = 2;
      c.r = 2;
      c.losses = {0, 9};
      break;
    case testing::Scenario::Serve:
    case testing::Scenario::ServeChaos:
    case testing::Scenario::ServeShard:
      c.losses = {1, 6};
      break;
    case testing::Scenario::Cluster:
    case testing::Scenario::ClusterRepair:
    case testing::Scenario::ClusterHeal:
      c.losses = {2, 7};
      break;
    case testing::Scenario::RsEncode:
      break;
  }
  return c;
}

void bm_fuzz_scenario(benchmark::State& state,
                      const testing::Scenario scenario) {
  const testing::FuzzConfig config = scenario_config(scenario);
  for (auto _ : state) {
    const testing::FuzzOutcome outcome = testing::DiffFuzzer::run_one(config);
    if (!outcome.ok) state.SkipWithError(outcome.detail.c_str());
    benchmark::DoNotOptimize(outcome.iterations);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// The mixed campaign, as CI runs it: random configs from a seeded
/// stream. items/sec here is directly the nightly coverage rate.
void bm_fuzz_campaign(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const testing::FuzzOutcome outcome =
        testing::DiffFuzzer::run_campaign(seed++, batch);
    if (!outcome.ok) state.SkipWithError(outcome.detail.c_str());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch));
}

BENCHMARK_CAPTURE(bm_fuzz_scenario, rs_encode,
                  testing::Scenario::RsEncode)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_fuzz_scenario, rs_decode,
                  testing::Scenario::RsDecode)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_fuzz_scenario, lrc,
                  testing::Scenario::LrcRoundTrip)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_fuzz_scenario, serve,
                  testing::Scenario::Serve)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_fuzz_scenario, serve_chaos,
                  testing::Scenario::ServeChaos)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_fuzz_scenario, serve_shard,
                  testing::Scenario::ServeShard)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_fuzz_scenario, cluster,
                  testing::Scenario::Cluster)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_fuzz_scenario, cluster_repair,
                  testing::Scenario::ClusterRepair)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_fuzz_scenario, cluster_heal,
                  testing::Scenario::ClusterHeal)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_fuzz_campaign)->Arg(25)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
