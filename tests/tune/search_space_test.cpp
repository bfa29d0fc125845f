#include "tune/search_space.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "../test_util.h"
#include "tensor/kernel.h"

namespace tvmec::tune {
namespace {

TaskShape typical_shape() { return {32, 2048, 80}; }

TEST(SearchSpace, RejectsBadInputs) {
  EXPECT_THROW(SearchSpace(TaskShape{0, 1, 1}, 1), std::invalid_argument);
  EXPECT_THROW(SearchSpace(typical_shape(), 0), std::invalid_argument);
}

TEST(SearchSpace, EverySchedulePresentAndValid) {
  const SearchSpace space(typical_shape(), 4);
  EXPECT_GT(space.size(), 100u);
  for (std::size_t i = 0; i < space.size(); ++i)
    EXPECT_TRUE(space.at(i).valid()) << "index " << i;
  EXPECT_THROW(space.at(space.size()), std::out_of_range);
}

TEST(SearchSpace, AllEnumeratesDistinctSchedules) {
  const SearchSpace space(typical_shape(), 2);
  const auto schedules = space.all();
  EXPECT_EQ(schedules.size(), space.size());
  std::set<std::string> keys;
  for (const auto& s : schedules) keys.insert(s.to_string());
  EXPECT_EQ(keys.size(), schedules.size()) << "duplicate schedule in space";
}

TEST(SearchSpace, BlocksNeverExceedProblem) {
  const TaskShape small{8, 128, 16};
  const SearchSpace space(small, 1);
  for (const auto& s : space.all()) {
    EXPECT_LT(s.block_k, small.k) << "block_k must be < k or 0";
    EXPECT_LT(s.block_n, small.n);
  }
}

TEST(SearchSpace, ThreadOptionsArePowersOfTwoUpToMax) {
  const SearchSpace space(typical_shape(), 8);
  EXPECT_EQ(space.thread_options(), (std::vector<int>{1, 2, 4, 8}));
  const SearchSpace serial(typical_shape(), 1);
  EXPECT_EQ(serial.thread_options(), (std::vector<int>{1}));
}

TEST(SearchSpace, SampleIsDeterministicUnderSeed) {
  const SearchSpace space(typical_shape(), 4);
  std::mt19937_64 rng1(7), rng2(7);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(space.sample(rng1), space.sample(rng2));
}

TEST(SearchSpace, SampleStaysInsideSpace) {
  const SearchSpace space(typical_shape(), 4);
  std::set<std::string> all_keys;
  for (const auto& s : space.all()) all_keys.insert(s.to_string());
  std::mt19937_64 rng(8);
  for (int i = 0; i < 200; ++i)
    EXPECT_TRUE(all_keys.contains(space.sample(rng).to_string()));
}

TEST(SearchSpace, MutateChangesAtMostOneKnob) {
  const SearchSpace space(typical_shape(), 4);
  std::mt19937_64 rng(9);
  const tensor::Schedule base = space.sample(rng);
  for (int i = 0; i < 100; ++i) {
    const tensor::Schedule m = space.mutate(base, rng);
    int changed = 0;
    changed += m.tile_m != base.tile_m;
    changed += m.tile_n != base.tile_n;
    changed += m.block_k != base.block_k;
    changed += m.block_n != base.block_n;
    changed += m.num_threads != base.num_threads;
    changed += m.par_axis != base.par_axis;
    changed += m.par_grain != base.par_grain;
    changed += m.variant != base.variant;
    EXPECT_LE(changed, 1);
    EXPECT_TRUE(m.valid());
  }
}

TEST(SearchSpace, ParallelAxisKnobsOfferedWithThreads) {
  // Forced Scalar: the axis is a knob of the tiled road.
  const testutil::ForceRestorer scalar(tensor::KernelVariant::Scalar);
  const SearchSpace space(typical_shape(), 4);
  EXPECT_EQ(space.par_axis_options().size(), 3u);
  EXPECT_EQ(space.grain_options(), (std::vector<std::size_t>{0, 1, 4}));
  // The space must contain an N-partitioned multithreaded schedule — the
  // configuration the paper's multi-core wins depend on.
  bool found = false;
  for (const auto& s : space.all())
    found |= s.par_axis == tensor::ParAxis::N && s.num_threads > 1;
  EXPECT_TRUE(found);
}

TEST(SearchSpace, SerialSpaceHasNoParallelAxisDuplicates) {
  // With one thread the axis/grain knobs are perf-identical; the space
  // collapses them so serial tuning budgets are not wasted.
  const SearchSpace space(typical_shape(), 1);
  EXPECT_EQ(space.par_axis_options().size(), 1u);
  EXPECT_EQ(space.grain_options().size(), 1u);
}

TEST(SearchSpace, EverySchedulePinsTheTierCallsRunOn) {
  // Unforced, then each available tier forced: every trial must time
  // the tier its record names, never Auto, which a host with another
  // best tier would resolve differently. A tiled tier keeps every knob.
  std::vector<std::optional<tensor::KernelVariant>> forces = {std::nullopt};
  for (const tensor::KernelVariant v : tensor::available_variants())
    forces.push_back(v);
  for (const auto& force : forces) {
    const testutil::ForceRestorer guard(force);
    const tensor::KernelVariant runs = tensor::resolve_variant();
    ASSERT_NE(runs, tensor::KernelVariant::Auto);
    for (const int threads : {1, 4}) {
      const SearchSpace space(typical_shape(), threads);
      for (const auto& s : space.all())
        ASSERT_EQ(s.variant, runs) << s.to_string();
      if (tensor::tiled_road(runs)) {
        EXPECT_EQ(space.size(), threads == 1 ? 400u : 10800u)
            << tensor::to_string(runs);
      }
    }
  }
}

TEST(SearchSpace, GfniSpaceHoldsOnlyKnobsItsRoadReads) {
  if (!tensor::variant_available(tensor::KernelVariant::Gfni))
    GTEST_SKIP() << "host lacks the Gfni tier";
  const testutil::ForceRestorer gfni(tensor::KernelVariant::Gfni);
  // The road reads block_n (4 values here), the thread count and grain,
  // and tile_n as the unit of a threaded N split (5 values): 180
  // schedules with threads, 4 serially.
  const auto check = [](int max_threads, std::size_t schedules) {
    const SearchSpace space(typical_shape(), max_threads);
    EXPECT_EQ(space.size(), schedules) << "max_threads " << max_threads;
    EXPECT_EQ(space.tile_m_options().size(), 1u);
    EXPECT_EQ(space.block_k_options().size(), 1u);
    for (const auto& s : space.all())
      EXPECT_EQ(s.par_axis, tensor::ParAxis::N) << s.to_string();
  };
  check(4, 180);
  check(1, 4);
}

TEST(SearchSpace, MutateReachesParallelAxisKnobs) {
  // Forced Scalar: the axis is a knob of the tiled road.
  const testutil::ForceRestorer scalar(tensor::KernelVariant::Scalar);
  const SearchSpace space(typical_shape(), 4);
  std::mt19937_64 rng(10);
  tensor::Schedule base = space.sample(rng);
  base.par_axis = tensor::ParAxis::M;
  bool axis_changed = false, grain_changed = false;
  for (int i = 0; i < 500 && !(axis_changed && grain_changed); ++i) {
    const tensor::Schedule m = space.mutate(base, rng);
    axis_changed |= m.par_axis != base.par_axis;
    grain_changed |= m.par_grain != base.par_grain;
  }
  EXPECT_TRUE(axis_changed);
  EXPECT_TRUE(grain_changed);
}

}  // namespace
}  // namespace tvmec::tune
