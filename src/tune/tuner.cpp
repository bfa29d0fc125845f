#include "tune/tuner.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace tvmec::tune {

const char* to_string(Policy p) noexcept {
  switch (p) {
    case Policy::Grid:
      return "grid";
    case Policy::Random:
      return "random";
    case Policy::Evolutionary:
      return "evolutionary";
    case Policy::ModelGuided:
      return "model-guided";
  }
  return "?";
}

double TuneResult::best_after(std::size_t n) const {
  double best = 0.0;
  const std::size_t limit = std::min(n, history.size());
  for (std::size_t i = 0; i < limit; ++i)
    best = std::max(best, history[i].throughput);
  return best;
}

namespace {

// Fixed sizes of the searches and of the finalist re-measure.
constexpr std::size_t kPopulation = 16;          ///< evolutionary pool
constexpr std::size_t kCandidatesPerRound = 64;  ///< proposals the model scores
constexpr std::size_t kMeasurePerRound = 8;      ///< top predictions measured
constexpr std::size_t kFinalists = 6;
constexpr std::size_t kRemeasureRounds = 7;

/// A rate the tuner can rank: finite and positive.
bool usable(double rate) { return std::isfinite(rate) && rate > 0.0; }

/// The upper median (index size/2) of a non-empty sample; reorders it.
double median(std::vector<double>& samples) {
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

/// Shared measurement bookkeeping: records the trial (absorbing
/// measurement failures as failed trials) and tracks the best.
class Recorder {
 public:
  Recorder(const MeasureFn& measure, std::size_t budget)
      : measure_(measure), budget_(budget) {}

  bool exhausted() const noexcept { return result_.history.size() >= budget_; }

  const TrialRecord& run(const tensor::Schedule& s) {
    TrialRecord rec{s, 0.0, false};
    try {
      rec.throughput = measure_(s);
    } catch (...) {
      rec.failed = true;  // a crashed measurement is a failed trial
    }
    if (!rec.failed && !usable(rec.throughput)) {
      rec.failed = true;  // NaN/Inf/non-positive: unusable measurement
      rec.throughput = 0.0;
    }
    if (rec.failed) ++result_.failed_trials;
    result_.history.push_back(rec);
    if (result_.history.size() == 1) result_.best_schedule = s;
    if (!rec.failed && rec.throughput > result_.best_throughput) {
      result_.best_throughput = rec.throughput;
      result_.best_schedule = s;
    }
    return result_.history.back();
  }

  TuneResult take() && { return std::move(result_); }

 private:
  const MeasureFn& measure_;
  std::size_t budget_;
  TuneResult result_;
};

void run_grid(const SearchSpace& space, Recorder& rec) {
  for (std::size_t i = 0; i < space.size() && !rec.exhausted(); ++i)
    rec.run(space.at(i));
}

void run_random(const SearchSpace& space, Recorder& rec,
                std::mt19937_64& rng) {
  while (!rec.exhausted()) rec.run(space.sample(rng));
}

void run_evolutionary(const SearchSpace& space, Recorder& rec,
                      std::mt19937_64& rng) {
  std::vector<TrialRecord> pool;
  for (std::size_t i = 0; i < kPopulation && !rec.exhausted(); ++i) {
    const tensor::Schedule s = space.sample(rng);
    // Failed trials enter the pool at throughput 0, so selection culls
    // them on the next generation.
    pool.push_back(rec.run(s));
  }
  while (!rec.exhausted()) {
    // Keep the fitter half, refill by mutating survivors.
    std::sort(pool.begin(), pool.end(),
              [](const TrialRecord& a, const TrialRecord& b) {
                return a.throughput > b.throughput;
              });
    pool.resize(kPopulation / 2);
    const std::size_t survivors = pool.size();
    for (std::size_t i = 0; pool.size() < kPopulation && !rec.exhausted();
         ++i) {
      const tensor::Schedule child =
          space.mutate(pool[i % survivors].schedule, rng);
      pool.push_back(rec.run(child));
    }
  }
}

void run_model_guided(const SearchSpace& space, Recorder& rec,
                      std::mt19937_64& rng) {
  CostModel model;
  // Bootstrap with random measurements so the model has signal.
  for (std::size_t i = 0; i < kMeasurePerRound && !rec.exhausted(); ++i) {
    const tensor::Schedule s = space.sample(rng);
    const TrialRecord& trial = rec.run(s);
    // Failed trials are skipped, not fed to the model: a NaN or zero
    // sample would poison the ridge fit for the whole session.
    if (!trial.failed) model.add_sample(s, space.shape(), trial.throughput);
  }
  while (!rec.exhausted()) {
    model.fit();
    // Propose candidates, score them with the model...
    std::vector<tensor::Schedule> candidates;
    candidates.reserve(kCandidatesPerRound);
    for (std::size_t i = 0; i < kCandidatesPerRound; ++i)
      candidates.push_back(space.sample(rng));
    std::sort(candidates.begin(), candidates.end(),
              [&](const tensor::Schedule& a, const tensor::Schedule& b) {
                return model.predict(a, space.shape()) >
                       model.predict(b, space.shape());
              });
    // ...then spend real measurements only on the most promising ones.
    for (std::size_t i = 0; i < kMeasurePerRound && !rec.exhausted(); ++i) {
      const TrialRecord& trial = rec.run(candidates[i]);
      if (!trial.failed)
        model.add_sample(candidates[i], space.shape(), trial.throughput);
    }
  }
}

}  // namespace

TuneResult tune(const SearchSpace& space, const MeasureFn& measure,
                const TuneOptions& options) {
  if (options.trials == 0)
    throw std::invalid_argument("tune: zero trial budget");
  Recorder rec(measure, options.trials);
  std::mt19937_64 rng(options.seed);
  switch (options.policy) {
    case Policy::Grid:
      run_grid(space, rec);
      break;
    case Policy::Random:
      run_random(space, rec, rng);
      break;
    case Policy::Evolutionary:
      run_evolutionary(space, rec, rng);
      break;
    case Policy::ModelGuided:
      run_model_guided(space, rec, rng);
      break;
  }
  return std::move(rec).take();
}

TuneResult remeasure_finalists(TuneResult search, const MeasureFn& sample) {
  // Successful trials, best first; the stable sort keeps the earlier
  // trial ahead on equal rates, so the pick is deterministic.
  std::vector<const TrialRecord*> ranked;
  for (const TrialRecord& rec : search.history)
    if (!rec.failed) ranked.push_back(&rec);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const TrialRecord* a, const TrialRecord* b) {
                     return a->throughput > b->throughput;
                   });
  std::vector<tensor::Schedule> finalists;
  for (const TrialRecord* rec : ranked) {
    if (finalists.size() == kFinalists) break;
    if (std::find(finalists.begin(), finalists.end(), rec->schedule) ==
        finalists.end())
      finalists.push_back(rec->schedule);
  }
  if (finalists.empty()) return search;

  // Round-robin, so drift during the re-measure hits every finalist
  // alike. A failed sample drops its finalist.
  std::vector<std::vector<double>> samples(finalists.size());
  std::vector<bool> dropped(finalists.size(), false);
  for (std::size_t round = 0; round < kRemeasureRounds; ++round) {
    for (std::size_t i = 0; i < finalists.size(); ++i) {
      if (dropped[i]) continue;
      try {
        samples[i].push_back(sample(finalists[i]));
        dropped[i] = !usable(samples[i].back());
      } catch (...) {
        dropped[i] = true;
      }
    }
  }
  search.best_throughput = 0.0;
  for (std::size_t i = 0; i < finalists.size(); ++i) {
    if (dropped[i]) continue;
    const double rate = median(samples[i]);
    if (rate > search.best_throughput) {
      search.best_throughput = rate;
      search.best_schedule = finalists[i];
    }
  }
  return search;
}

double measure_seconds_median(const std::function<void()>& fn,
                              std::size_t repeats) {
  if (repeats == 0)
    throw std::invalid_argument("measure_seconds_median: zero repeats");
  std::vector<double> samples;
  samples.reserve(repeats);
  for (std::size_t i = 0; i < repeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto end = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double>(end - start).count());
  }
  return median(samples);
}

}  // namespace tvmec::tune
