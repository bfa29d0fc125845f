// Autotuning exploration: what the paper's §6.1 measurement setup does
// with TVM's Autoscheduler, on our tensor substrate.
//
// Tunes the (10, 4, 8) encode at 128 KB units with a small trial budget,
// prints the tuning curve, and compares the tuned schedule against the
// untuned default — the "learning-based tuning discovers optimizations"
// claim made tangible. Given a log path, it saves the pick as a tuning
// log (TVM's tuning-record workflow): the file a Codec's ScheduleCache
// or the serving front's `schedule_log` loads.
//
// Build & run:  ./build/examples/autotune_explore [trials] [log]
//
// Exits non-zero when the tuned codec's parity differs from the untuned
// codec's, or when the saved log does not reload to exactly the pick.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>

#include "core/tvmec.h"
#include "tune/tuner.h"
#include "tune/tuning_log.h"

int main(int argc, char** argv) {
  using namespace tvmec;

  const std::size_t trials =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 60;
  const ec::CodeParams params{10, 4, 8};
  const std::size_t unit = 128 * 1024;

  core::Codec codec(params);
  // A Codec starts from the tuned shape this search tends to find; the
  // baseline is the untuned schedule a tuning session must beat.
  codec.set_schedule(tensor::default_schedule());
  std::printf("autotuning k=%zu r=%zu w=%u encode at %zu KB units, "
              "%zu trials, policy=model-guided\n",
              params.k, params.r, params.w, unit / 1024, trials);

  // Baseline: default schedule throughput.
  tensor::AlignedBuffer<std::uint8_t> data(params.k * unit);
  tensor::AlignedBuffer<std::uint8_t> parity(params.r * unit);
  std::mt19937_64 rng(3);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(rng());
  codec.encode(data.span(), parity.span(), unit);  // warm up
  const double default_secs = tune::measure_seconds_median(
      [&] { codec.encode(data.span(), parity.span(), unit); }, 9);
  const double default_gbps =
      static_cast<double>(params.k * unit) / default_secs / 1e9;
  std::printf("default schedule  %-22s : %6.2f GB/s\n",
              codec.encoder().schedule().to_string().c_str(), default_gbps);

  tune::TuneOptions opt;
  opt.policy = tune::Policy::ModelGuided;
  opt.trials = trials;
  const tune::TuneResult result = codec.tune(unit, opt, /*max_threads=*/4);

  std::printf("\ntuning curve (best GB/s after N trials):\n");
  for (std::size_t n = 8; n <= trials; n += 8)
    std::printf("  %4zu trials : %6.2f GB/s\n", n,
                result.best_after(n) / 1e9);

  std::printf("\nbest schedule     %-22s : %6.2f GB/s re-measured  "
              "(%.2fx over default)\n",
              result.best_schedule.to_string().c_str(),
              result.best_throughput / 1e9,
              result.best_throughput / 1e9 / default_gbps);

  std::printf("\ntop 5 schedules visited:\n");
  auto history = result.history;
  std::sort(history.begin(), history.end(),
            [](const auto& a, const auto& b) {
              return a.throughput > b.throughput;
            });
  for (std::size_t i = 0; i < 5 && i < history.size(); ++i)
    std::printf("  %-22s : %6.2f GB/s\n",
                history[i].schedule.to_string().c_str(),
                history[i].throughput / 1e9);

  // `parity` still holds the untuned schedule's output.
  tensor::AlignedBuffer<std::uint8_t> tuned_parity(params.r * unit);
  codec.encode(data.span(), tuned_parity.span(), unit);
  if (std::memcmp(tuned_parity.data(), parity.data(), parity.size()) != 0) {
    std::fprintf(stderr, "FAIL: tuned parity differs from untuned parity\n");
    return 1;
  }

  if (argc > 2) {
    const std::string log = argv[2];
    const tune::TaskShape shape = codec.encoder().task_shape(unit);
    tune::ScheduleCache cache;
    cache.install(shape, {result.best_schedule, result.best_throughput});
    cache.save(log);
    tune::ScheduleCache reloaded;
    reloaded.load(log);
    const auto entry = reloaded.lookup(shape);
    if (reloaded.size() != 1 || !entry ||
        entry->schedule != result.best_schedule) {
      std::fprintf(stderr, "FAIL: %s does not reload to the pick\n",
                   log.c_str());
      return 1;
    }
    std::printf("\nsaved the pick to %s\n", log.c_str());
  }
  return 0;
}
