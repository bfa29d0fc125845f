// E5 — §6.1 learning-based autotuning: the paper tunes each kernel for
// 20 000 trials with TVM's Autoscheduler. This bench evaluates what the
// tuning budget buys and compares search policies (random, evolutionary,
// model-guided — the Ansor-style learned search), reproducing the
// "TVM-EC automatically discovers complex optimizations" claim as a
// measurable tuning curve.

#include <benchmark/benchmark.h>

#include <thread>

#include "bench_util.h"
#include "ec/reed_solomon.h"

namespace {

using namespace tvmec;

constexpr std::size_t kUnit = 128 * 1024;
constexpr std::size_t kTrials = 96;

const gf::Matrix& parity_matrix() {
  static const ec::ReedSolomon rs(ec::CodeParams{10, 4, 8});
  static const gf::Matrix parity = rs.parity_matrix();
  return parity;
}

tune::TuneResult run_policy(tune::Policy policy) {
  core::GemmCoder coder(parity_matrix());
  tune::TuneOptions opt;
  opt.policy = policy;
  opt.trials = kTrials;
  opt.seed = 99;
  return coder.tune(kUnit, opt,
                    static_cast<int>(std::thread::hardware_concurrency()));
}

/// google-benchmark entries measure the end state: default schedule vs
/// the schedule each policy found.
void bm_schedule(benchmark::State& state, tensor::Schedule schedule) {
  core::GemmCoder coder(parity_matrix(), schedule);
  const auto data = benchutil::random_data(10 * kUnit, 5);
  tensor::AlignedBuffer<std::uint8_t> parity(4 * kUnit);
  for (auto _ : state) coder.apply(data.span(), parity.span(), kUnit);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(10 * kUnit));
}

void print_paper_table(const tune::TuneResult& first_model) {
  benchutil::print_header(
      "E5 (Section 6.1): learning-based autotuning evaluation",
      "autoscheduler tuning (20000 trials in the paper) finds the best "
      "configuration; learned search needs fewer trials than random");

  std::printf("tuning curves, best GB/s after N trials (k=10 r=4 w=8, "
              "128 KB units):\n");
  std::printf("%-8s %12s %14s %14s\n", "trials", "random", "evolutionary",
              "model-guided");
  const tune::TuneResult random = run_policy(tune::Policy::Random);
  const tune::TuneResult evo = run_policy(tune::Policy::Evolutionary);
  const tune::TuneResult model = run_policy(tune::Policy::ModelGuided);
  for (std::size_t n = 8; n <= kTrials; n *= 2)
    std::printf("%-8zu %12.2f %14.2f %14.2f\n", n,
                random.best_after(n) / 1e9, evo.best_after(n) / 1e9,
                model.best_after(n) / 1e9);

  std::printf("\nbest schedules found:\n");
  std::printf("  random       : %s\n", random.best_schedule.to_string().c_str());
  std::printf("  evolutionary : %s\n", evo.best_schedule.to_string().c_str());
  // Same shape, policy and seed in one process: the two model-guided
  // tunes agree unless the pick is noise.
  std::printf("  model-guided : %s  (the tuned-schedule row's tune: %s)\n",
              model.best_schedule.to_string().c_str(),
              first_model.best_schedule.to_string().c_str());

  core::GemmCoder default_coder(parity_matrix(), tensor::default_schedule());
  const auto data = benchutil::random_data(10 * kUnit, 6);
  tensor::AlignedBuffer<std::uint8_t> parity(4 * kUnit);
  const double default_gbps = benchutil::median_encode_gbps(
      default_coder, data.span(), parity.span(), kUnit, 15);
  std::printf("\ndefault schedule: %.2f GB/s;  tuned (model-guided, "
              "re-measured): %.2f GB/s  -> %.2fx from tuning\n",
              default_gbps, model.best_throughput / 1e9,
              model.best_throughput / 1e9 / default_gbps);
}

}  // namespace

int main(int argc, char** argv) {
  const tune::TuneResult tuned = run_policy(tune::Policy::ModelGuided);
  // Wall-clock rates: a threaded schedule's main-thread CPU time
  // undercounts its work.
  benchmark::RegisterBenchmark("encode/default-schedule", bm_schedule,
                               tensor::default_schedule())
      ->UseRealTime();
  benchmark::RegisterBenchmark("encode/tuned-schedule", bm_schedule,
                               tuned.best_schedule)
      ->UseRealTime();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_paper_table(tuned);
  return 0;
}
