#include "tune/search_space.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <string>

#include "../test_util.h"
#include "tensor/kernel.h"

namespace tvmec::tune {
namespace {

TaskShape typical_shape() { return {32, 2048, 80}; }

/// The knobs a schedule's call reads, by tensor::tiled_road and
/// gemm_scheduled: the Gfni road reads neither tile_m, block_k nor
/// par_axis, a one-thread call neither par_axis nor par_grain, and a
/// one-thread call on the Gfni road not tile_n either.
struct Reads {
  bool tile_m, tile_n, block_k, par_axis, par_grain;
};

Reads reads(const tensor::Schedule& s) {
  const bool tiled = tensor::tiled_road(s.variant);
  const bool threaded = s.num_threads > 1;
  return {tiled, tiled || threaded, tiled, tiled && threaded, threaded};
}

/// What a schedule's call reads, as text: an unread knob prints as "-".
std::string read_knobs(const tensor::Schedule& s) {
  const Reads r = reads(s);
  const auto knob = [](bool read, auto value) {
    return read ? std::to_string(value) : std::string("-");
  };
  return knob(r.tile_m, s.tile_m) + " " + knob(r.tile_n, s.tile_n) + " " +
         knob(r.block_k, s.block_k) + " " + std::to_string(s.block_n) + " " +
         std::to_string(s.num_threads) + " " +
         (r.par_axis ? tensor::to_string(s.par_axis) : "-") + " " +
         knob(r.par_grain, s.par_grain);
}

/// Unforced, then each available tier forced.
std::vector<std::optional<tensor::KernelVariant>> every_force() {
  std::vector<std::optional<tensor::KernelVariant>> forces = {std::nullopt};
  for (const tensor::KernelVariant v : tensor::available_variants())
    forces.push_back(v);
  return forces;
}

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
  const auto thread_counts = [](int max_threads) {
    const SearchSpace space(typical_shape(), max_threads);
    std::set<int> counts;
    for (const auto& s : space.all()) counts.insert(s.num_threads);
    return counts;
  };
  EXPECT_EQ(thread_counts(8), (std::set<int>{1, 2, 4, 8}));
  EXPECT_EQ(thread_counts(1), (std::set<int>{1}));
}

TEST(SearchSpace, ThreadKnobStopsAtTheScheduleCap) {
  // Building a space starts no thread. Fatal first: a menu that runs
  // past the cap cannot be trusted to stop at INT_MAX either.
  const SearchSpace wide(typical_shape(), 512);
  int most = 0;
  for (const auto& s : wide.all()) {
    ASSERT_TRUE(s.valid()) << s.to_string();
    most = std::max(most, s.num_threads);
  }
  ASSERT_EQ(most, tensor::kMaxScheduleThreads);
  // Doubling up to a cap past 2^30 would overflow an int.
  const SearchSpace widest(typical_shape(), std::numeric_limits<int>::max());
  EXPECT_EQ(widest.all(), wide.all());
}

TEST(SearchSpace, MutateChangesAtMostOneKnob) {
  // Counted over the knobs the mutant's call reads: one that moves to
  // or from one thread also drops or regains its parallel knobs.
  const SearchSpace space(typical_shape(), 4);
  std::mt19937_64 rng(9);
  for (const std::size_t i : {std::size_t{0}, space.size() / 2,
                              space.size() - 1}) {
    const tensor::Schedule base = space.all()[i];
    for (int j = 0; j < 100; ++j) {
      const tensor::Schedule m = space.mutate(base, rng);
      const Reads r = reads(m);
      int changed = 0;
      changed += r.tile_m && m.tile_m != base.tile_m;
      changed += r.tile_n && m.tile_n != base.tile_n;
      changed += r.block_k && m.block_k != base.block_k;
      changed += m.block_n != base.block_n;
      changed += m.num_threads != base.num_threads;
      changed += r.par_axis && m.par_axis != base.par_axis;
      changed += r.par_grain && m.par_grain != base.par_grain;
      changed += m.variant != base.variant;
      EXPECT_LE(changed, 1) << base.to_string() << " -> " << m.to_string();
      EXPECT_TRUE(m.valid());
    }
  }
}

TEST(SearchSpace, ParallelAxisKnobsOfferedWithThreads) {
  // Forced Scalar: the axis is a knob of the tiled road.
  const testutil::ForceRestorer scalar(tensor::KernelVariant::Scalar);
  const SearchSpace space(typical_shape(), 4);
  std::set<tensor::ParAxis> axes;
  std::set<std::size_t> grains;
  for (const auto& s : space.all()) {
    axes.insert(s.par_axis);
    grains.insert(s.par_grain);
  }
  EXPECT_EQ(axes.size(), 3u);
  EXPECT_EQ(grains, (std::set<std::size_t>{0, 1, 4}));
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
  for (const auto& s : space.all()) {
    EXPECT_EQ(s.par_axis, tensor::ParAxis::N) << s.to_string();
    EXPECT_EQ(s.par_grain, 0u) << s.to_string();
  }
}

TEST(SearchSpace, ListsEachScheduleThatRunsDifferentlyOnce) {
  // Per schedule, a knob its call does not read holds one value: a
  // threaded space's one-thread schedules are the serial space, and no
  // two schedules differ only in knobs their calls do not read.
  for (const auto& force : every_force()) {
    const testutil::ForceRestorer guard(force);
    const tensor::KernelVariant runs = tensor::resolve_variant();
    const SearchSpace serial(typical_shape(), 1);
    const SearchSpace threaded(typical_shape(), 4);
    std::vector<tensor::Schedule> one_thread;
    std::set<std::string> behaviours;
    for (const auto& s : threaded.all()) {
      if (s.num_threads == 1) one_thread.push_back(s);
      behaviours.insert(read_knobs(s));
    }
    EXPECT_EQ(behaviours.size(), threaded.size()) << tensor::to_string(runs);
    EXPECT_TRUE(one_thread == serial.all())
        << tensor::to_string(runs) << ": " << one_thread.size()
        << " one-thread schedules, " << serial.size() << " serial";
    EXPECT_EQ(threaded.size(), tensor::tiled_road(runs) ? 9500u : 155u)
        << tensor::to_string(runs);
  }
}

TEST(SearchSpace, EverySchedulePinsTheTierCallsRunOn) {
  // Unforced, then each available tier forced: every trial must time
  // the tier its record names, never Auto, which a host with another
  // best tier would resolve differently. A tiled tier keeps every knob.
  for (const auto& force : every_force()) {
    const testutil::ForceRestorer guard(force);
    const tensor::KernelVariant runs = tensor::resolve_variant();
    ASSERT_NE(runs, tensor::KernelVariant::Auto);
    for (const int threads : {1, 4}) {
      const SearchSpace space(typical_shape(), threads);
      for (const auto& s : space.all())
        ASSERT_EQ(s.variant, runs) << s.to_string();
      if (tensor::tiled_road(runs)) {
        EXPECT_EQ(space.size(), threads == 1 ? 500u : 9500u)
            << tensor::to_string(runs);
      }
    }
  }
}

TEST(SearchSpace, GfniSpaceHoldsOnlyKnobsItsRoadReads) {
  if (!tensor::variant_available(tensor::KernelVariant::Gfni))
    GTEST_SKIP() << "host lacks the Gfni tier";
  const testutil::ForceRestorer gfni(tensor::KernelVariant::Gfni);
  // The road reads block_n (5 values here), the thread count and, with
  // threads, the grain (3 values) and tile_n as the unit of the N split
  // (5 values): 5 serial schedules and 2 * 3 * 5 * 5 threaded ones.
  const tensor::Schedule fixed = tensor::default_schedule();
  const auto check = [&fixed](int max_threads, std::size_t schedules) {
    const SearchSpace space(typical_shape(), max_threads);
    EXPECT_EQ(space.size(), schedules) << "max_threads " << max_threads;
    for (const auto& s : space.all()) {
      EXPECT_EQ(s.tile_m, fixed.tile_m) << s.to_string();
      EXPECT_EQ(s.block_k, fixed.block_k) << s.to_string();
      EXPECT_EQ(s.par_axis, tensor::ParAxis::N) << s.to_string();
    }
  };
  check(4, 155);
  check(1, 5);
}

TEST(SearchSpace, MutateReachesParallelAxisKnobs) {
  // Forced Scalar: the axis is a knob of the tiled road.
  const testutil::ForceRestorer scalar(tensor::KernelVariant::Scalar);
  const SearchSpace space(typical_shape(), 4);
  std::mt19937_64 rng(10);
  const auto threaded_m = [](const tensor::Schedule& s) {
    return s.num_threads > 1 && s.par_axis == tensor::ParAxis::M;
  };
  const auto it = std::find_if(space.all().begin(), space.all().end(),
                               threaded_m);
  ASSERT_NE(it, space.all().end());
  const tensor::Schedule base = *it;
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
