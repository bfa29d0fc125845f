#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "tensor/schedule.h"
#include "tune/cost_model.h"
#include "tune/search_space.h"

/// Autotuning drivers, standing in for TVM's Autoscheduler (§6.1 of the
/// paper: "TVM-EC uses TVM's learning-based Autoscheduler ... tunes for
/// 20000 trials, and uses the best configuration found").
///
/// A *trial* is one measured execution of a candidate schedule. Four
/// policies are provided so the benefit of learned search can itself be
/// evaluated (bench E5): exhaustive grid, uniform random, evolutionary,
/// and cost-model-guided (Ansor-style sample -> predict -> measure ->
/// retrain).
namespace tvmec::tune {

/// Measures a candidate schedule; returns achieved throughput (any
/// consistent higher-is-better unit; encoders use bytes/second).
using MeasureFn = std::function<double(const tensor::Schedule&)>;

enum class Policy { Grid, Random, Evolutionary, ModelGuided };

const char* to_string(Policy p) noexcept;

struct TuneOptions {
  Policy policy = Policy::ModelGuided;
  std::size_t trials = 128;       ///< measurement budget
  std::uint64_t seed = 42;        ///< rng seed (deterministic search)
};

struct TrialRecord {
  tensor::Schedule schedule;
  double throughput = 0.0;
  /// The MeasureFn threw, or returned NaN/Inf/<= 0 — a failed trial.
  /// Failed trials still consume budget but never become the best and
  /// are never fed to the cost model.
  bool failed = false;
};

struct TuneResult {
  tensor::Schedule best_schedule;
  double best_throughput = 0.0;
  std::vector<TrialRecord> history;  ///< in measurement order
  std::size_t failed_trials = 0;     ///< trials whose measurement failed

  /// Best throughput among the first `n` trials (tuning-curve helper).
  double best_after(std::size_t n) const;
};

/// Runs the requested search policy for `options.trials` measurements.
/// Throws std::invalid_argument on a zero trial budget.
///
/// Measurement is fallible: a MeasureFn that throws or returns a
/// non-finite or non-positive value marks that trial failed (recorded in
/// failed_trials and per-record `failed`) and the search continues — a
/// flaky measurement environment degrades tuning quality, it does not
/// abort it or poison the cost model. If every trial fails, the first
/// candidate tried is returned as best_schedule (a valid point of the
/// space) with best_throughput 0.
TuneResult tune(const SearchSpace& space, const MeasureFn& measure,
                const TuneOptions& options);

/// The pick that follows a search. A best trial is one sample, so on a
/// noisy host it ranks luck as much as schedules. This takes the top 6
/// distinct schedules among `search`'s successful trials (every one
/// when fewer succeeded) and samples them round-robin for 7 rounds;
/// best_schedule and best_throughput become the highest median (ties go
/// to the better search trial), while history and failed_trials stay the
/// search's. `sample` is fallible like a MeasureFn: a throw or an
/// unusable rate drops that finalist. With no successful trial the
/// search's fallback stands (its first candidate, throughput 0); when
/// every finalist is dropped, best_throughput becomes 0.
TuneResult remeasure_finalists(TuneResult search, const MeasureFn& sample);

/// Times `fn` (already-warm) `repeats` times and returns the *median*
/// seconds per invocation — the standard robust estimator for
/// microbenchmark-style measurement.
double measure_seconds_median(const std::function<void()>& fn,
                              std::size_t repeats);

}  // namespace tvmec::tune
