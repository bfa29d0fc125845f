#pragma once

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "core/backends.h"
#include "core/gemm_coder.h"
#include "ec/encoder.h"
#include "serve/stats.h"
#include "tensor/buffer.h"
#include "tune/tuner.h"

/// Shared measurement helpers for the per-figure benchmark binaries.
///
/// Each binary combines google-benchmark output (for machine-readable
/// per-op timing) with a printed paper-style table reproducing the rows
/// or series of the corresponding figure in the paper; EXPERIMENTS.md
/// records the tables next to the paper's claims.
namespace tvmec::benchutil {

inline tensor::AlignedBuffer<std::uint8_t> random_data(std::size_t size,
                                                       std::uint64_t seed) {
  tensor::AlignedBuffer<std::uint8_t> buf(size);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < size; ++i)
    buf[i] = static_cast<std::uint8_t>(rng());
  return buf;
}

/// Median encode throughput of `coder` in GB/s over `reps` runs
/// (throughput convention as in the paper: data bytes consumed per
/// second, i.e. k * unit_size per apply).
inline double median_encode_gbps(const ec::MatrixCoder& coder,
                                 std::span<const std::uint8_t> in,
                                 std::span<std::uint8_t> out,
                                 std::size_t unit_size, std::size_t reps) {
  coder.apply(in, out, unit_size);  // warm-up
  const double secs = tune::measure_seconds_median(
      [&] { coder.apply(in, out, unit_size); }, reps);
  return static_cast<double>(in.size()) / secs / 1e9;
}

/// Drift-resistant comparison: measures several coders round-robin over
/// `rounds` passes (so slow frequency/neighbor drift affects every coder
/// equally) and returns the per-coder median GB/s. Each sample times
/// `inner` back-to-back applies right after a warm-up apply of the same
/// coder, so no coder is timed straight after another's (slower or
/// single-threaded) runs.
inline std::vector<double> interleaved_median_gbps(
    const std::vector<const ec::MatrixCoder*>& coders,
    std::span<const std::uint8_t> in, std::size_t unit_size,
    std::size_t rounds = 9, std::size_t inner = 3) {
  std::vector<std::vector<double>> samples(coders.size());
  std::vector<tensor::AlignedBuffer<std::uint8_t>> outs;
  outs.reserve(coders.size());
  for (const auto* c : coders) outs.emplace_back(c->out_units() * unit_size);
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < coders.size(); ++i) {
      coders[i]->apply(in, outs[i].span(), unit_size);  // warm-up
      const double secs = tune::measure_seconds_median(
          [&] { coders[i]->apply(in, outs[i].span(), unit_size); }, inner);
      samples[i].push_back(static_cast<double>(in.size()) / secs / 1e9);
    }
  }
  std::vector<double> medians(coders.size());
  for (std::size_t i = 0; i < coders.size(); ++i)
    medians[i] = serve::sample_median(samples[i]);
  return medians;
}

/// Autotunes a GemmCoder for the given unit size and leaves it running
/// the pick (the paper's §6.1 setup with a configurable budget): the
/// benches' one search setting, model-guided with a fixed seed, through
/// GemmCoder::tune, whose finalist re-measure makes the pick.
inline void tune_gemm(core::GemmCoder& coder, std::size_t unit_size,
                      std::size_t trials, int max_threads) {
  tune::TuneOptions opt;
  opt.policy = tune::Policy::ModelGuided;
  opt.trials = trials;
  opt.seed = 0xEC;
  coder.tune(unit_size, opt, max_threads);
}

inline void print_header(const char* experiment, const char* paper_claim) {
  std::printf("\n=== %s ===\n", experiment);
  std::printf("paper: %s\n\n", paper_claim);
}

}  // namespace tvmec::benchutil
