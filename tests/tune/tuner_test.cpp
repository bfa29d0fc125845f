#include "tune/tuner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "../test_util.h"

namespace tvmec::tune {
namespace {

TaskShape shape() { return {32, 2048, 80}; }

/// A deterministic synthetic objective with a unique known optimum, so
/// search behaviour can be asserted without timing noise.
double synthetic_objective(const tensor::Schedule& s) {
  double score = 100.0;
  score += 10.0 * s.tile_m + 12.0 * s.tile_n;
  score -= 0.5 * std::abs(static_cast<double>(s.block_k) - 32.0);
  score += 20.0 * std::log2(static_cast<double>(s.num_threads));
  return score;
}

/// Forced Scalar: the landscapes below reward tile_m and block_k, knobs
/// only a tiled tier's space offers.
class PolicyTest : public ::testing::TestWithParam<Policy> {
  const testutil::ForceRestorer scalar_{tensor::KernelVariant::Scalar};
};

TEST_P(PolicyTest, RespectsTrialBudget) {
  const SearchSpace space(shape(), 4);
  TuneOptions opt;
  opt.policy = GetParam();
  opt.trials = 37;
  const TuneResult result = tune(space, synthetic_objective, opt);
  EXPECT_EQ(result.history.size(), 37u);
}

TEST_P(PolicyTest, BestMatchesHistoryMaximum) {
  const SearchSpace space(shape(), 4);
  TuneOptions opt;
  opt.policy = GetParam();
  opt.trials = 60;
  const TuneResult result = tune(space, synthetic_objective, opt);
  double max_seen = 0;
  for (const auto& rec : result.history)
    max_seen = std::max(max_seen, rec.throughput);
  EXPECT_DOUBLE_EQ(result.best_throughput, max_seen);
  EXPECT_DOUBLE_EQ(synthetic_objective(result.best_schedule),
                   result.best_throughput);
}

TEST_P(PolicyTest, DeterministicUnderSeed) {
  const SearchSpace space(shape(), 4);
  TuneOptions opt;
  opt.policy = GetParam();
  opt.trials = 40;
  opt.seed = 123;
  const TuneResult a = tune(space, synthetic_objective, opt);
  const TuneResult b = tune(space, synthetic_objective, opt);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i)
    EXPECT_EQ(a.history[i].schedule, b.history[i].schedule);
}

TEST_P(PolicyTest, FindsNearOptimalWithModestBudget) {
  const SearchSpace space(shape(), 4);
  // Exhaustive optimum for reference.
  double best = 0;
  for (const auto& s : space.all())
    best = std::max(best, synthetic_objective(s));

  TuneOptions opt;
  opt.policy = GetParam();
  opt.trials = 150;
  const TuneResult result = tune(space, synthetic_objective, opt);
  // Within 10% of the global optimum on this easy landscape.
  EXPECT_GT(result.best_throughput, 0.9 * best)
      << "policy " << to_string(GetParam());
}

TEST_P(PolicyTest, SurvivesThrowingMeasurements) {
  const SearchSpace space(shape(), 4);
  TuneOptions opt;
  opt.policy = GetParam();
  opt.trials = 50;
  std::size_t calls = 0;
  // Every 5th measurement crashes: 20% failed trials.
  const MeasureFn flaky = [&calls](const tensor::Schedule& s) {
    if (++calls % 5 == 0) throw std::runtime_error("segfaulted candidate");
    return synthetic_objective(s);
  };
  const TuneResult result = tune(space, flaky, opt);
  EXPECT_EQ(result.history.size(), 50u);  // full budget despite failures
  EXPECT_EQ(result.failed_trials, 10u);
  std::size_t failed_seen = 0;
  for (const auto& rec : result.history) {
    if (rec.failed) {
      ++failed_seen;
      EXPECT_EQ(rec.throughput, 0.0);
    }
  }
  EXPECT_EQ(failed_seen, 10u);
  EXPECT_GT(result.best_throughput, 0.0);
  EXPECT_DOUBLE_EQ(synthetic_objective(result.best_schedule),
                   result.best_throughput);
}

TEST_P(PolicyTest, SurvivesNaNMeasurements) {
  const SearchSpace space(shape(), 4);
  TuneOptions opt;
  opt.policy = GetParam();
  opt.trials = 40;
  std::size_t calls = 0;
  const MeasureFn flaky = [&calls](const tensor::Schedule& s) {
    ++calls;
    if (calls % 5 == 1) return std::nan("");
    if (calls % 5 == 2) return -3.0;
    return synthetic_objective(s);
  };
  const TuneResult result = tune(space, flaky, opt);
  EXPECT_EQ(result.history.size(), 40u);
  EXPECT_EQ(result.failed_trials, 16u);
  EXPECT_GT(result.best_throughput, 0.0);
  // NaN never leaks into the result.
  for (const auto& rec : result.history)
    EXPECT_TRUE(std::isfinite(rec.throughput));
}

TEST_P(PolicyTest, FlakyMeasurementIsDeterministic) {
  const SearchSpace space(shape(), 4);
  TuneOptions opt;
  opt.policy = GetParam();
  opt.trials = 30;
  opt.seed = 7;
  const auto run = [&] {
    std::size_t calls = 0;
    const MeasureFn flaky = [&calls](const tensor::Schedule& s) {
      if (++calls % 5 == 0) throw std::runtime_error("flake");
      return synthetic_objective(s);
    };
    return tune(space, flaky, opt);
  };
  const TuneResult a = run();
  const TuneResult b = run();
  ASSERT_EQ(a.history.size(), b.history.size());
  EXPECT_EQ(a.failed_trials, b.failed_trials);
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].schedule, b.history[i].schedule);
    EXPECT_EQ(a.history[i].failed, b.history[i].failed);
  }
}

TEST_P(PolicyTest, AllTrialsFailingStillReturnsValidSchedule) {
  const SearchSpace space(shape(), 4);
  TuneOptions opt;
  opt.policy = GetParam();
  opt.trials = 20;
  const MeasureFn broken = [](const tensor::Schedule&) -> double {
    throw std::runtime_error("measurement rig is down");
  };
  const TuneResult result = tune(space, broken, opt);
  EXPECT_EQ(result.history.size(), 20u);
  EXPECT_EQ(result.failed_trials, 20u);
  EXPECT_EQ(result.best_throughput, 0.0);
  // The documented fallback: the first candidate tried becomes the best.
  EXPECT_EQ(result.best_schedule, result.history.front().schedule);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyTest,
                         ::testing::Values(Policy::Random,
                                           Policy::Evolutionary,
                                           Policy::ModelGuided),
                         [](const auto& info) {
                           switch (info.param) {
                             case Policy::Random:
                               return "Random";
                             case Policy::Evolutionary:
                               return "Evolutionary";
                             default:
                               return "ModelGuided";
                           }
                         });

TEST(Tuner, EveryPolicyTimesEachScheduleOnce) {
  // A tiled tier's serial space, and the Gfni road's where the host has
  // that tier; a partial budget on each tier's threaded space.
  std::vector<tensor::KernelVariant> tiers = {tensor::KernelVariant::Scalar};
  if (tensor::variant_available(tensor::KernelVariant::Gfni))
    tiers.push_back(tensor::KernelVariant::Gfni);
  const auto keys = [](const auto& schedules) {
    std::set<std::string> out;
    for (const tensor::Schedule& s : schedules) out.insert(s.to_string());
    return out;
  };
  const auto timed = [](const TuneResult& result) {
    std::vector<tensor::Schedule> out;
    for (const TrialRecord& rec : result.history) out.push_back(rec.schedule);
    return out;
  };
  for (const tensor::KernelVariant tier : tiers) {
    const testutil::ForceRestorer force(tier);
    const SearchSpace serial(shape(), 1);
    const SearchSpace threaded(shape(), 4);
    for (const Policy policy :
         {Policy::Random, Policy::Evolutionary, Policy::ModelGuided}) {
      const std::string label =
          std::string(to_string(policy)) + " on " + tensor::to_string(tier);
      TuneOptions opt;
      opt.policy = policy;
      opt.trials = 2 * serial.size();
      std::size_t calls = 0;
      const TuneResult full = tune(
          serial,
          [&calls](const tensor::Schedule& s) {
            ++calls;
            return synthetic_objective(s);
          },
          opt);
      EXPECT_EQ(calls, serial.size()) << label;
      EXPECT_EQ(full.history.size(), serial.size()) << label;
      EXPECT_TRUE(keys(timed(full)) == keys(serial.all()))
          << label << ": " << keys(timed(full)).size() << " distinct of "
          << serial.size();

      opt.trials = 96;
      const std::set<std::string> partial =
          keys(timed(tune(threaded, synthetic_objective, opt)));
      EXPECT_EQ(partial.size(), 96u) << label << " timed a schedule twice";
      const std::set<std::string> listed = keys(threaded.all());
      for (const std::string& key : partial)
        EXPECT_TRUE(listed.contains(key)) << key;
    }
  }
}

TEST(Tuner, ZeroTrialsThrows) {
  const SearchSpace space(shape(), 2);
  TuneOptions opt;
  opt.trials = 0;
  EXPECT_THROW(tune(space, synthetic_objective, opt), std::invalid_argument);
}

TEST(Tuner, BestAfterIsMonotone) {
  const SearchSpace space(shape(), 4);
  TuneOptions opt;
  opt.policy = Policy::Random;
  opt.trials = 80;
  const TuneResult result = tune(space, synthetic_objective, opt);
  double prev = 0;
  for (std::size_t n = 1; n <= 80; n += 8) {
    const double cur = result.best_after(n);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
  EXPECT_DOUBLE_EQ(result.best_after(1000), result.best_throughput);
}

/// Model-guided search should reach a given quality bar in no more
/// measured trials than pure random search on a landscape the linear
/// model can capture (this is Ansor's whole premise).
TEST(Tuner, ModelGuidedBeatsRandomOnLearnableLandscape) {
  const testutil::ForceRestorer scalar(tensor::KernelVariant::Scalar);
  const SearchSpace space(shape(), 8);
  double best = 0;
  for (const auto& s : space.all())
    best = std::max(best, synthetic_objective(s));
  const double bar = 0.95 * best;

  const auto trials_to_bar = [&](Policy policy) {
    TuneOptions opt;
    opt.policy = policy;
    opt.trials = 200;
    opt.seed = 7;
    const TuneResult r = tune(space, synthetic_objective, opt);
    for (std::size_t n = 1; n <= opt.trials; ++n)
      if (r.best_after(n) >= bar) return n;
    return opt.trials + 1;
  };
  EXPECT_LE(trials_to_bar(Policy::ModelGuided),
            trials_to_bar(Policy::Random));
}

/// Distinct schedules for hand-built search results.
tensor::Schedule nth(std::size_t i) {
  return {.tile_m = 8, .tile_n = 16, .block_n = 64 * (i + 1)};
}

TEST(Tuner, RemeasureOverrulesTheLuckiestSearchTrial) {
  TuneResult search;
  search.history = {{nth(0), 100.0}, {nth(1), 90.0}, {nth(2), 85.0},
                    {nth(3), 80.0}, {nth(4), 75.0}};
  search.best_schedule = nth(0);
  search.best_throughput = 100.0;
  std::vector<std::size_t> calls(5, 0);  // per finalist, by nth index
  const MeasureFn sample = [&](const tensor::Schedule& s) -> double {
    const std::size_t round = calls[s.block_n / 64 - 1]++;
    // The luckiest search trial re-measures slow.
    if (s == nth(0)) return 50.0;
    // 70, 71, ..., 76: median 73.
    if (s == nth(1)) return 70.0 + static_cast<double>(round);
    // One lucky sample cannot lift a median of 40.
    if (s == nth(2)) return round == 0 ? 1000.0 : 40.0;
    // The fastest until its sampling fails: dropped.
    if (s == nth(3)) {
      if (round == 3) throw std::runtime_error("lost the device");
      return 500.0;
    }
    // The fastest but for one unusable rate: dropped.
    return round == 2 ? 0.0 : 500.0;
  };
  const TuneResult picked = remeasure_finalists(search, sample);
  EXPECT_EQ(picked.best_schedule, nth(1));
  EXPECT_DOUBLE_EQ(picked.best_throughput, 73.0);
  EXPECT_EQ(calls, (std::vector<std::size_t>{7, 7, 7, 4, 3}));
  // Every finalist stays on file in search rank, with its median; a
  // dropped one is failed.
  ASSERT_EQ(picked.finalists.size(), 5u);
  const std::vector<double> medians = {50.0, 73.0, 40.0, 0.0, 0.0};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(picked.finalists[i].schedule, nth(i));
    EXPECT_DOUBLE_EQ(picked.finalists[i].throughput, medians[i]);
    EXPECT_EQ(picked.finalists[i].failed, i >= 3);
  }
  // The search's record stays the search's.
  ASSERT_EQ(picked.history.size(), 5u);
  EXPECT_EQ(picked.history[0].throughput, 100.0);
  EXPECT_DOUBLE_EQ(picked.best_after(1), 100.0);
}

TEST(Tuner, FinalistsAreTheTopSixDistinctSuccessfulTrials) {
  const auto finalists_of = [](const TuneResult& search) {
    std::vector<tensor::Schedule> calls;
    remeasure_finalists(search, [&](const tensor::Schedule& s) {
      calls.push_back(s);
      return 1.0;
    });
    // Round-robin: each of the 7 rounds samples every finalist once, in
    // rank order, so the first round ends at the first repeat.
    std::vector<tensor::Schedule> finalists;
    for (const tensor::Schedule& s : calls) {
      if (std::find(finalists.begin(), finalists.end(), s) != finalists.end())
        break;
      finalists.push_back(s);
    }
    EXPECT_EQ(calls.size(), 7 * finalists.size());
    for (std::size_t i = 0; i < calls.size(); ++i)
      EXPECT_EQ(calls[i], finalists[i % finalists.size()]);
    return finalists;
  };

  // Eight distinct successes rated 10..80, the best one repeated below
  // the rest, and a failed trial: the top six, the repeat counted once.
  TuneResult many;
  for (std::size_t i = 0; i < 8; ++i)
    many.history.push_back({nth(i), 10.0 * static_cast<double>(i + 1)});
  many.history.push_back({nth(7), 5.0});
  many.history.push_back({nth(8), 0.0, true});
  EXPECT_EQ(finalists_of(many), (std::vector<tensor::Schedule>{
                                    nth(7), nth(6), nth(5), nth(4), nth(3),
                                    nth(2)}));

  // Fewer than six distinct successes: every one is a finalist, and no
  // failed trial is, though it outnumbers them.
  TuneResult few;
  few.history = {{nth(0), 0.0, true}, {nth(1), 30.0}, {nth(2), 0.0, true},
                 {nth(1), 35.0},      {nth(3), 20.0}, {nth(4), 0.0, true},
                 {nth(5), 0.0, true}, {nth(6), 0.0, true}};
  EXPECT_EQ(finalists_of(few),
            (std::vector<tensor::Schedule>{nth(1), nth(3)}));
}

TEST(Tuner, RemeasureKeepsTheAllFailedFallback) {
  const SearchSpace space(shape(), 4);
  TuneOptions opt;
  opt.trials = 5;
  const TuneResult search = tune(
      space,
      [](const tensor::Schedule&) -> double {
        throw std::runtime_error("measurement rig is down");
      },
      opt);
  const TuneResult picked =
      remeasure_finalists(search, [](const tensor::Schedule&) -> double {
        ADD_FAILURE() << "a failed trial was re-measured";
        return 1.0;
      });
  EXPECT_EQ(picked.failed_trials, 5u);
  EXPECT_EQ(picked.best_throughput, 0.0);
  EXPECT_EQ(picked.best_schedule, search.history.front().schedule);
  EXPECT_TRUE(picked.finalists.empty());

  // Successful trials whose every re-measure fails leave no winner.
  TuneResult flaky;
  flaky.history = {{nth(0), 10.0}, {nth(1), 20.0}};
  const TuneResult none = remeasure_finalists(
      flaky, [](const tensor::Schedule&) { return std::nan(""); });
  EXPECT_EQ(none.best_throughput, 0.0);
  ASSERT_EQ(none.finalists.size(), 2u);
  for (const TrialRecord& rec : none.finalists) {
    EXPECT_TRUE(rec.failed);
    EXPECT_EQ(rec.throughput, 0.0);
  }
}

TEST(MeasureSecondsMedian, ReturnsPlausibleDuration) {
  const double secs = measure_seconds_median(
      [] {
        volatile int sink = 0;
        for (int i = 0; i < 10000; ++i) sink = sink + i;
      },
      5);
  EXPECT_GT(secs, 0.0);
  EXPECT_LT(secs, 1.0);
  EXPECT_THROW(measure_seconds_median([] {}, 0), std::invalid_argument);
}

}  // namespace
}  // namespace tvmec::tune
