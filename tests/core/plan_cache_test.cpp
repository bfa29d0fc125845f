#include "core/plan_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "../test_util.h"
#include "core/tvmec.h"
#include "gf/gf.h"
#include "gf/gf_matrix.h"

namespace tvmec::core {
namespace {

/// Stand-in code identities: the cache only compares them.
const std::vector<std::uint32_t> kCodeA = {8, 14, 10, 0, 1, 2, 3};
const std::vector<std::uint32_t> kCodeB = {8, 14, 10, 0, 1, 2, 4};

PlanKey key_for(std::vector<std::size_t> erased,
                const std::vector<std::uint32_t>& code = kCodeA,
                std::vector<std::size_t> preferred = {}) {
  return PlanKey{code, std::move(erased), std::move(preferred)};
}

/// A real builder against a real generator, counting invocations.
struct CountingBuilder {
  gf::Matrix generator;
  std::vector<std::size_t> erased;
  int calls = 0;

  std::optional<ec::DecodePlan> operator()() {
    ++calls;
    return ec::make_decode_plan(generator, erased);
  }
};

gf::Matrix test_generator(std::size_t k, std::size_t r) {
  ec::ReedSolomon rs(ec::CodeParams{k, r, 8});
  return rs.generator();
}

TEST(PlanCache, MissBuildsThenHitsReturnSamePlan) {
  PlanCache cache;
  const auto gen = test_generator(10, 4);
  CountingBuilder build{gen, {1, 5}};

  const auto first = cache.get_or_build(key_for({1, 5}), std::ref(build));
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(build.calls, 1);

  const auto second = cache.get_or_build(key_for({1, 5}), std::ref(build));
  EXPECT_EQ(second.get(), first.get());  // shared, not rebuilt
  EXPECT_EQ(build.calls, 1);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PlanCache, NegativeResultIsCached) {
  PlanCache cache;
  int calls = 0;
  const auto build = [&]() -> std::optional<ec::DecodePlan> {
    ++calls;
    return std::nullopt;  // unrecoverable pattern
  };
  EXPECT_EQ(cache.get_or_build(key_for({0, 1, 2, 3, 4}), build), nullptr);
  EXPECT_EQ(cache.get_or_build(key_for({0, 1, 2, 3, 4}), build), nullptr);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCache, DistinctKeysDoNotAlias) {
  PlanCache cache;
  const auto gen = test_generator(10, 4);
  CountingBuilder build{gen, {2}};
  CountingBuilder other{gen, {3}};

  const auto a = cache.get_or_build(key_for({2}), std::ref(build));
  const auto b = cache.get_or_build(key_for({2}, kCodeB), std::ref(build));
  const auto c = cache.get_or_build(key_for({3}), std::ref(other));
  const auto d =
      cache.get_or_build(key_for({2}, kCodeA, {1, 0, 3, 4, 5, 6, 7, 8, 9, 10}),
                         std::ref(build));
  EXPECT_NE(a.get(), b.get());  // the code identity separates entries
  EXPECT_NE(a.get(), c.get());
  EXPECT_NE(a.get(), d.get());  // so does the survivor preference
  EXPECT_EQ(cache.stats().entries, 4u);
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(PlanCache, EvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  const auto gen = test_generator(10, 4);
  CountingBuilder b0{gen, {0}};
  CountingBuilder b1{gen, {1}};
  CountingBuilder b2{gen, {2}};

  cache.get_or_build(key_for({0}), std::ref(b0));
  cache.get_or_build(key_for({1}), std::ref(b1));
  cache.get_or_build(key_for({0}), std::ref(b0));  // touch {0}: now MRU
  cache.get_or_build(key_for({2}), std::ref(b2));  // evicts {1}

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);

  cache.get_or_build(key_for({0}), std::ref(b0));  // still cached
  EXPECT_EQ(b0.calls, 1);
  cache.get_or_build(key_for({1}), std::ref(b1));  // was evicted: rebuilds
  EXPECT_EQ(b1.calls, 2);
}

TEST(PlanCache, ClearEmptiesEntries) {
  PlanCache cache;
  const auto gen = test_generator(10, 4);
  CountingBuilder build{gen, {7}};
  cache.get_or_build(key_for({7}), std::ref(build));
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  cache.get_or_build(key_for({7}), std::ref(build));
  EXPECT_EQ(build.calls, 2);
}

TEST(PlanCache, RejectsZeroCapacity) {
  EXPECT_THROW(PlanCache(0), std::invalid_argument);
}

TEST(PlanCache, ConcurrentGetOrBuildIsSafe) {
  PlanCache cache;
  const auto gen = test_generator(10, 4);
  std::atomic<int> builds{0};
  constexpr int kThreads = 8;
  constexpr int kIters = 200;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t id = static_cast<std::size_t>((t + i) % 6);
        const auto plan = cache.get_or_build(key_for({id}), [&] {
          ++builds;
          return ec::make_decode_plan(gen, std::vector<std::size_t>{id});
        });
        ASSERT_NE(plan, nullptr);
        ASSERT_EQ(plan->erased.size(), 1u);
        ASSERT_EQ(plan->erased[0], id);
      }
    });
  }
  for (auto& th : threads) th.join();

  // The mutex serializes builders, so each of the 6 patterns is built
  // exactly once no matter how the threads interleave.
  EXPECT_EQ(builds.load(), 6);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kIters);
}

/// Two codecs over the same code sharing one cache: the second codec's
/// decode hits the plans the first one built — the cross-consumer sharing
/// the serve workers and the scrubber rely on.
TEST(PlanCache, SharedAcrossCodecInstances) {
  const auto cache = std::make_shared<PlanCache>();
  constexpr std::size_t kUnit = 1024;
  const ec::CodeParams params{6, 3, 8};

  Codec first(params);
  first.set_plan_cache(cache);
  Codec second(params);
  second.set_plan_cache(cache);

  const auto data = testutil::random_bytes(params.k * kUnit, 404);
  tensor::AlignedBuffer<std::uint8_t> stripe(params.n() * kUnit);
  std::copy(data.span().begin(), data.span().end(), stripe.data());
  first.encode(std::span<const std::uint8_t>(stripe.data(), params.k * kUnit),
               std::span<std::uint8_t>(stripe.data() + params.k * kUnit,
                                       params.r * kUnit),
               kUnit);

  const std::vector<std::size_t> pattern = {1, 4};
  tensor::AlignedBuffer<std::uint8_t> damaged(stripe.size());

  std::copy(stripe.span().begin(), stripe.span().end(), damaged.data());
  for (const std::size_t id : pattern)
    std::fill_n(damaged.data() + id * kUnit, kUnit, 0xEE);
  first.decode(damaged.span(), pattern, kUnit);
  const auto after_first = cache->stats();
  EXPECT_GE(after_first.misses, 1u);

  std::copy(stripe.span().begin(), stripe.span().end(), damaged.data());
  for (const std::size_t id : pattern)
    std::fill_n(damaged.data() + id * kUnit, kUnit, 0xEE);
  second.decode(damaged.span(), pattern, kUnit);
  ASSERT_TRUE(std::equal(stripe.span().begin(), stripe.span().end(),
                         damaged.span().begin()));

  const auto after_second = cache->stats();
  EXPECT_GT(after_second.hits, after_first.hits);
  EXPECT_EQ(after_second.misses, after_first.misses);
}

}  // namespace
}  // namespace tvmec::core
