#include "tune/cost_model.h"

#include <gtest/gtest.h>

#include <random>

namespace tvmec::tune {
namespace {

TaskShape shape() { return {32, 2048, 80}; }

/// A uniformly random schedule of `space`.
tensor::Schedule draw(const SearchSpace& space, std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> index(0, space.size() - 1);
  return space.at(index(rng));
}

TEST(Featurize, ProducesFixedDimension) {
  const SearchSpace space(shape(), 4);
  std::mt19937_64 rng(1);
  for (int i = 0; i < 20; ++i) {
    const auto f = featurize(draw(space, rng), shape());
    EXPECT_EQ(f.size(), kNumFeatures);
    for (const double v : f) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Featurize, DistinguishesSchedules) {
  tensor::Schedule a, b;
  a.tile_m = 1;
  a.tile_n = 1;
  b.tile_m = 8;
  b.tile_n = 8;
  EXPECT_NE(featurize(a, shape()), featurize(b, shape()));
}

TEST(CostModel, UnfittedPredictsZero) {
  const CostModel model;
  EXPECT_EQ(model.predict(tensor::default_schedule(), shape()), 0.0);
  EXPECT_FALSE(model.fitted());
}

TEST(CostModel, RejectsNegativeThroughput) {
  CostModel model;
  EXPECT_THROW(model.add_sample(tensor::default_schedule(), shape(), -1.0),
               std::invalid_argument);
}

TEST(CostModel, FitNoopWithOneSample) {
  CostModel model;
  model.add_sample(tensor::default_schedule(), shape(), 5.0);
  model.fit();
  EXPECT_FALSE(model.fitted());
}

/// The model must learn a synthetic linear relationship well enough to
/// rank schedules — that is all the tuner needs from it.
TEST(CostModel, LearnsSyntheticRanking) {
  const SearchSpace space(shape(), 8);
  // Ground truth: bigger register tiles and more threads are better.
  const auto truth = [](const tensor::Schedule& s) {
    return 10.0 * s.tile_m * s.tile_n + 50.0 * s.num_threads;
  };
  CostModel model(1e-6);
  std::mt19937_64 rng(2);
  for (int i = 0; i < 150; ++i) {
    const tensor::Schedule s = draw(space, rng);
    model.add_sample(s, shape(), truth(s));
  }
  model.fit();
  ASSERT_TRUE(model.fitted());

  // Check pairwise ranking accuracy on fresh samples with a clear gap.
  int correct = 0, total = 0;
  for (int i = 0; i < 300; ++i) {
    const tensor::Schedule a = draw(space, rng);
    const tensor::Schedule b = draw(space, rng);
    const double gap = truth(a) - truth(b);
    if (std::abs(gap) < 100.0) continue;  // skip near-ties
    ++total;
    const double pred_gap = model.predict(a, shape()) - model.predict(b, shape());
    if ((gap > 0) == (pred_gap > 0)) ++correct;
  }
  ASSERT_GT(total, 30);
  EXPECT_GT(static_cast<double>(correct) / total, 0.8)
      << correct << "/" << total;
}

TEST(CostModel, SampleCountTracksAdds) {
  CostModel model;
  EXPECT_EQ(model.num_samples(), 0u);
  model.add_sample(tensor::default_schedule(), shape(), 1.0);
  model.add_sample(tensor::default_schedule(), shape(), 2.0);
  EXPECT_EQ(model.num_samples(), 2u);
}

}  // namespace
}  // namespace tvmec::tune
