#include "tune/tuner.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tvmec::tune {

const char* to_string(Policy p) noexcept {
  switch (p) {
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

/// One search's trials: at most min(trials, space.size()), each timing
/// a schedule of the space no earlier trial timed. Every random draw
/// comes without replacement from the untimed schedules, under the
/// search's seeded rng; a failed trial spends its schedule too.
class Search {
 public:
  Search(const SearchSpace& space, const MeasureFn& measure,
         const TuneOptions& options)
      : measure_(measure),
        budget_(std::min(options.trials, space.size())),
        untimed_(space.all()),
        rng_(options.seed) {}

  std::mt19937_64& rng() noexcept { return rng_; }
  bool exhausted() const noexcept { return result_.history.size() >= budget_; }

  /// Up to `count` distinct untimed schedules, drawn uniformly at
  /// random (first in untimed_); they stay untimed until run.
  std::vector<tensor::Schedule> draw(std::size_t count) {
    count = std::min(count, untimed_.size());
    for (std::size_t i = 0; i < count; ++i) {
      std::uniform_int_distribution<std::size_t> d(i, untimed_.size() - 1);
      std::swap(untimed_[i], untimed_[d(rng_)]);
    }
    return {untimed_.begin(), untimed_.begin() + count};
  }

  /// Times `s`, or a fresh draw in its place when `s` is not an untimed
  /// schedule of the space (a mutant a trial already timed); absorbs a
  /// failed measurement as a failed trial and tracks the best.
  const TrialRecord& run(tensor::Schedule s) {
    auto it = std::find(untimed_.begin(), untimed_.end(), s);
    if (it == untimed_.end()) {
      s = draw(1).front();
      it = untimed_.begin();
    }
    *it = untimed_.back();
    untimed_.pop_back();
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
  std::vector<tensor::Schedule> untimed_;
  std::mt19937_64 rng_;
  TuneResult result_;
};

void run_random(Search& search) {
  while (!search.exhausted()) search.run(search.draw(1).front());
}

void run_evolutionary(const SearchSpace& space, Search& search) {
  std::vector<TrialRecord> pool;
  for (const tensor::Schedule& s : search.draw(kPopulation)) {
    if (search.exhausted()) break;
    // Failed trials enter the pool at throughput 0, so selection culls
    // them on the next generation.
    pool.push_back(search.run(s));
  }
  while (!search.exhausted()) {
    // Keep the fitter half, refill by mutating survivors.
    std::sort(pool.begin(), pool.end(),
              [](const TrialRecord& a, const TrialRecord& b) {
                return a.throughput > b.throughput;
              });
    pool.resize(kPopulation / 2);
    const std::size_t survivors = pool.size();
    for (std::size_t i = 0; pool.size() < kPopulation && !search.exhausted();
         ++i) {
      pool.push_back(search.run(
          space.mutate(pool[i % survivors].schedule, search.rng())));
    }
  }
}

void run_model_guided(const SearchSpace& space, Search& search) {
  CostModel model;
  const auto measure = [&](const tensor::Schedule& s) {
    const TrialRecord& trial = search.run(s);
    // Failed trials are skipped, not fed to the model: a NaN or zero
    // sample would poison the ridge fit for the whole session.
    if (!trial.failed)
      model.add_sample(trial.schedule, space.shape(), trial.throughput);
  };
  // Bootstrap with random measurements so the model has signal.
  for (const tensor::Schedule& s : search.draw(kMeasurePerRound)) {
    if (search.exhausted()) break;
    measure(s);
  }
  while (!search.exhausted()) {
    model.fit();
    // Propose candidates, score them with the model...
    std::vector<tensor::Schedule> candidates =
        search.draw(kCandidatesPerRound);
    std::sort(candidates.begin(), candidates.end(),
              [&](const tensor::Schedule& a, const tensor::Schedule& b) {
                return model.predict(a, space.shape()) >
                       model.predict(b, space.shape());
              });
    // ...then spend real measurements only on the most promising ones;
    // the rest stay untimed.
    const std::size_t best = std::min(kMeasurePerRound, candidates.size());
    for (std::size_t i = 0; i < best && !search.exhausted(); ++i)
      measure(candidates[i]);
  }
}

}  // namespace

TuneResult tune(const SearchSpace& space, const MeasureFn& measure,
                const TuneOptions& options) {
  if (options.trials == 0)
    throw std::invalid_argument("tune: zero trial budget");
  Search search(space, measure, options);
  switch (options.policy) {
    case Policy::Random:
      run_random(search);
      break;
    case Policy::Evolutionary:
      run_evolutionary(space, search);
      break;
    case Policy::ModelGuided:
      run_model_guided(space, search);
      break;
  }
  return std::move(search).take();
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
    TrialRecord rec{finalists[i], 0.0, dropped[i]};
    if (!rec.failed) rec.throughput = median(samples[i]);
    if (rec.throughput > search.best_throughput) {
      search.best_throughput = rec.throughput;
      search.best_schedule = rec.schedule;
    }
    search.finalists.push_back(rec);
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
