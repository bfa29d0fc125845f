#include "tensor/kernel.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "tensor/buffer.h"
#include "tensor/cancel.h"
#include "tensor/scattered.h"
#include "tensor/schedule.h"

#include "../test_util.h"

namespace tvmec::tensor {
namespace {

struct Shape {
  std::size_t m, n, k;
};

AlignedBuffer<std::uint64_t> random_words(std::size_t count,
                                          std::uint64_t seed) {
  AlignedBuffer<std::uint64_t> buf(count);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < count; ++i) buf[i] = rng();
  return buf;
}

/// Masks matrix for the XorAnd semiring: entries are 0 or ~0.
AlignedBuffer<std::uint64_t> random_masks(std::size_t count,
                                          std::uint64_t seed) {
  AlignedBuffer<std::uint64_t> buf(count);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < count; ++i)
    buf[i] = (rng() & 1) ? ~std::uint64_t{0} : 0;
  return buf;
}

/// Sweep: every schedule in a representative grid must agree with the
/// naive kernel on awkward (non-tile-aligned) shapes.
class XorAndScheduleTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(XorAndScheduleTest, MatchesNaiveOnUnevenShapes) {
  const auto [tile_m, tile_n, block_k, threads] = GetParam();
  Schedule s;
  s.tile_m = tile_m;
  s.tile_n = tile_n;
  s.block_k = static_cast<std::size_t>(block_k);
  s.block_n = 48;
  s.num_threads = threads;
  ASSERT_TRUE(s.valid());

  for (const Shape shape : {Shape{7, 53, 19}, Shape{16, 64, 32},
                            Shape{1, 1, 1}, Shape{33, 130, 80}}) {
    const auto a = random_masks(shape.m * shape.k, 1000 + shape.m);
    const auto b = random_words(shape.k * shape.n, 2000 + shape.n);
    AlignedBuffer<std::uint64_t> c(shape.m * shape.n);
    AlignedBuffer<std::uint64_t> ref(shape.m * shape.n);

    const MatView<const std::uint64_t> av{a.data(), shape.m, shape.k, shape.k};
    const MatView<const std::uint64_t> bv{b.data(), shape.k, shape.n, shape.n};
    gemm_xorand(av, bv, {c.data(), shape.m, shape.n, shape.n}, s);
    gemm_naive_xorand(av, bv, {ref.data(), shape.m, shape.n, shape.n});
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_EQ(c[i], ref[i]) << "shape " << shape.m << "x" << shape.n << "x"
                              << shape.k << " at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ScheduleGrid, XorAndScheduleTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),   // tile_m
                       ::testing::Values(1, 4, 8),      // tile_n
                       ::testing::Values(0, 16),        // block_k
                       ::testing::Values(1, 3)),        // threads
    [](const auto& info) {
      return "tm" + std::to_string(std::get<0>(info.param)) + "tn" +
             std::to_string(std::get<1>(info.param)) + "bk" +
             std::to_string(std::get<2>(info.param)) + "t" +
             std::to_string(std::get<3>(info.param));
    });

/// Multithreaded equivalence: every parallel-axis mode must match the
/// naive kernel on ragged shapes (M not divisible by tile_m, N not by
/// tile_n), across thread counts and grains.
class ParAxisTest
    : public ::testing::TestWithParam<std::tuple<ParAxis, int, int>> {};

TEST_P(ParAxisTest, MatchesNaiveOnRaggedShapes) {
  const auto [axis, threads, grain] = GetParam();
  std::mt19937_64 rng(0xA57 + static_cast<unsigned>(threads));
  for (int trial = 0; trial < 12; ++trial) {
    // Ragged by construction: one past a tile multiple, or prime-ish.
    const std::size_t m = 1 + rng() % 37;
    const std::size_t n = 1 + rng() % 300;
    const std::size_t k = 1 + rng() % 90;
    Schedule s;
    s.tile_m = 8;  // m % tile_m != 0 for most draws
    s.tile_n = 16;
    s.block_k = (trial % 2) ? 16 : 0;
    s.block_n = (trial % 3) ? 96 : 0;
    s.num_threads = threads;
    s.par_axis = axis;
    s.par_grain = static_cast<std::size_t>(grain);
    ASSERT_TRUE(s.valid());

    const auto a = random_masks(m * k, rng());
    const auto b = random_words(k * n, rng());
    AlignedBuffer<std::uint64_t> c(m * n), ref(m * n);
    const MatView<const std::uint64_t> av{a.data(), m, k, k};
    const MatView<const std::uint64_t> bv{b.data(), k, n, n};
    gemm_xorand(av, bv, {c.data(), m, n, n}, s);
    gemm_naive_xorand(av, bv, {ref.data(), m, n, n});
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_EQ(c[i], ref[i])
          << "axis " << to_string(axis) << " shape " << m << "x" << n << "x"
          << k << " schedule " << s.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AxisGrid, ParAxisTest,
    ::testing::Combine(::testing::Values(ParAxis::M, ParAxis::N, ParAxis::MN),
                       ::testing::Values(2, 3, 8),  // threads
                       ::testing::Values(0, 1, 4)),  // grain
    [](const auto& info) {
      return std::string("p") + to_string(std::get<0>(info.param)) + "t" +
             std::to_string(std::get<1>(info.param)) + "g" +
             std::to_string(std::get<2>(info.param));
    });

TEST(ParAxis, MoreThreadsThanTilesIsCorrect) {
  // M smaller than one tile and fewer N tiles than threads: extra workers
  // must idle, not touch out-of-range rows/columns.
  const std::size_t m = 3, n = 10, k = 5;
  auto a = random_masks(m * k, 21);
  auto b = random_words(k * n, 22);
  AlignedBuffer<std::uint64_t> c(m * n), ref(m * n);
  const MatView<const std::uint64_t> av{a.data(), m, k, k};
  const MatView<const std::uint64_t> bv{b.data(), k, n, n};
  gemm_naive_xorand(av, bv, {ref.data(), m, n, n});
  for (const ParAxis axis : {ParAxis::M, ParAxis::N, ParAxis::MN}) {
    Schedule s;
    s.tile_m = 8;
    s.tile_n = 8;
    s.num_threads = 16;
    s.par_axis = axis;
    gemm_xorand(av, bv, {c.data(), m, n, n}, s);
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_EQ(c[i], ref[i]) << "axis " << to_string(axis);
  }
}

TEST(ParAxis, GrainLargerThanTileCountIsCorrect) {
  // par_grain far above the available tile count collapses the whole
  // axis into one chunk: the dispatch must degrade to a single worker
  // doing everything, never round chunk counts down to zero.
  const std::size_t m = 5, n = 17, k = 9;
  auto a = random_masks(m * k, 31);
  auto b = random_words(k * n, 32);
  AlignedBuffer<std::uint64_t> c(m * n), ref(m * n);
  const MatView<const std::uint64_t> av{a.data(), m, k, k};
  const MatView<const std::uint64_t> bv{b.data(), k, n, n};
  gemm_naive_xorand(av, bv, {ref.data(), m, n, n});
  for (const ParAxis axis : {ParAxis::M, ParAxis::N, ParAxis::MN}) {
    Schedule s;
    s.tile_m = 4;
    s.tile_n = 4;
    s.num_threads = 4;
    s.par_axis = axis;
    s.par_grain = 1000;  // >> number of tiles on any axis
    ASSERT_TRUE(s.valid());
    gemm_xorand(av, bv, {c.data(), m, n, n}, s);
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_EQ(c[i], ref[i]) << "axis " << to_string(axis);
  }
}

TEST(SumProdKernel, MatchesNaive) {
  const std::size_t m = 9, n = 31, k = 17;
  AlignedBuffer<std::int64_t> a(m * k), b(k * n), c(m * n), ref(m * n);
  std::mt19937_64 rng(3);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<std::int64_t>(rng() % 1000) - 500;
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<std::int64_t>(rng() % 1000) - 500;

  Schedule s;
  s.tile_m = 4;
  s.tile_n = 8;
  const MatView<const std::int64_t> av{a.data(), m, k, k};
  const MatView<const std::int64_t> bv{b.data(), k, n, n};
  gemm_sumprod_i64(av, bv, {c.data(), m, n, n}, s);
  gemm_naive_sumprod_i64(av, bv, {ref.data(), m, n, n});
  for (std::size_t i = 0; i < c.size(); ++i) ASSERT_EQ(c[i], ref[i]);
}

TEST(SumProdKernel, FloatMatchesNaive) {
  const std::size_t m = 13, n = 37, k = 21;
  AlignedBuffer<float> a(m * k), b(k * n), c(m * n), ref(m * n);
  std::mt19937_64 rng(4);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = dist(rng);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = dist(rng);

  const MatView<const float> av{a.data(), m, k, k};
  const MatView<const float> bv{b.data(), k, n, n};
  gemm_naive_sumprod_f32(av, bv, {ref.data(), m, n, n});
  for (const int tile : {1, 4, 16}) {
    Schedule s;
    s.tile_m = 4;
    s.tile_n = tile;
    s.block_k = 8;
    gemm_sumprod_f32(av, bv, {c.data(), m, n, n}, s);
    // Blocked execution keeps the k-summation order, but allow for FP
    // contraction differences between the two compilations.
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_NEAR(c[i], ref[i], 1e-4f) << "tile " << tile;
  }
}

/// Randomized fuzz across shapes and schedules: schedules must never
/// change results, only speed. 150 random (shape, schedule) pairs.
TEST(KernelFuzz, RandomShapesAndSchedulesMatchNaive) {
  std::mt19937_64 rng(99);
  const int tile_ms[] = {1, 2, 4, 8};
  const int tile_ns[] = {1, 2, 4, 8, 16, 32, 64};
  for (int trial = 0; trial < 150; ++trial) {
    const std::size_t m = 1 + rng() % 40;
    const std::size_t n = 1 + rng() % 150;
    const std::size_t k = 1 + rng() % 100;
    Schedule s;
    s.tile_m = tile_ms[rng() % 4];
    s.tile_n = tile_ns[rng() % 7];
    s.block_k = (rng() % 2) ? 0 : 1 + rng() % k;
    s.block_n = (rng() % 2) ? 0 : 1 + rng() % n;
    s.num_threads = 1 + static_cast<int>(rng() % 4);
    const ParAxis axes[] = {ParAxis::M, ParAxis::N, ParAxis::MN};
    s.par_axis = axes[rng() % 3];
    s.par_grain = rng() % 5;

    auto a = random_masks(m * k, rng());
    auto b = random_words(k * n, rng());
    AlignedBuffer<std::uint64_t> c(m * n), ref(m * n);
    const MatView<const std::uint64_t> av{a.data(), m, k, k};
    const MatView<const std::uint64_t> bv{b.data(), k, n, n};
    gemm_xorand(av, bv, {c.data(), m, n, n}, s);
    gemm_naive_xorand(av, bv, {ref.data(), m, n, n});
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_EQ(c[i], ref[i])
          << "trial " << trial << " shape " << m << "x" << n << "x" << k
          << " schedule " << s.to_string();
  }
}

TEST(Kernel, StridedViewsWork) {
  // Operate on views embedded in larger allocations (stride > cols).
  const std::size_t m = 6, n = 20, k = 12;
  const std::size_t stride = 40;
  auto a = random_masks(m * stride, 7);
  auto b = random_words(k * stride, 8);
  AlignedBuffer<std::uint64_t> c(m * stride), ref(m * n);
  const MatView<const std::uint64_t> av{a.data(), m, k, stride};
  const MatView<const std::uint64_t> bv{b.data(), k, n, stride};
  Schedule s = default_schedule();
  gemm_xorand(av, bv, {c.data(), m, n, stride}, s);

  // Reference with compacted operands.
  AlignedBuffer<std::uint64_t> ac(m * k), bc(k * n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < k; ++j) ac[i * k + j] = a[i * stride + j];
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < n; ++j) bc[i * n + j] = b[i * stride + j];
  gemm_naive_xorand({ac.data(), m, k, k}, {bc.data(), k, n, n},
                    {ref.data(), m, n, n});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_EQ(c[i * stride + j], ref[i * n + j]);
}

TEST(Kernel, ShapeMismatchThrows) {
  AlignedBuffer<std::uint64_t> a(12), b(12), c(12);
  const MatView<const std::uint64_t> av{a.data(), 3, 4, 4};
  const MatView<const std::uint64_t> bv{b.data(), 3, 4, 4};  // K mismatch
  Schedule s = default_schedule();
  EXPECT_THROW(gemm_xorand(av, bv, {c.data(), 3, 4, 4}, s),
               std::invalid_argument);
}

TEST(Kernel, InvalidScheduleThrows) {
  AlignedBuffer<std::uint64_t> a(16), b(16), c(16);
  const MatView<const std::uint64_t> av{a.data(), 4, 4, 4};
  const MatView<const std::uint64_t> bv{b.data(), 4, 4, 4};
  Schedule s;
  s.tile_m = 3;  // unsupported tile
  EXPECT_THROW(gemm_xorand(av, bv, {c.data(), 4, 4, 4}, s),
               std::invalid_argument);
}

TEST(Kernel, OverwritesPreviousOutput) {
  // C must be overwritten, not accumulated into.
  auto a = random_masks(16, 11);
  auto b = random_words(16, 12);
  AlignedBuffer<std::uint64_t> c(16), ref(16);
  for (std::size_t i = 0; i < 16; ++i) c[i] = 0xDEADBEEF;
  const MatView<const std::uint64_t> av{a.data(), 4, 4, 4};
  const MatView<const std::uint64_t> bv{b.data(), 4, 4, 4};
  Schedule s = default_schedule();
  gemm_xorand(av, bv, {c.data(), 4, 4, 4}, s);
  gemm_naive_xorand(av, bv, {ref.data(), 4, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) ASSERT_EQ(c[i], ref[i]);
}

TEST(KernelCancel, PreCancelledSerialThrowsBeforeWriting) {
  auto a = random_masks(16, 21);
  auto b = random_words(16, 22);
  AlignedBuffer<std::uint64_t> c(16);
  for (std::size_t i = 0; i < 16; ++i) c[i] = 0xABAB;
  Schedule s = default_schedule();
  s.num_threads = 1;
  CancelSource source;
  source.request_cancel();
  const MatView<const std::uint64_t> av{a.data(), 4, 4, 4};
  const MatView<const std::uint64_t> bv{b.data(), 4, 4, 4};
  EXPECT_THROW(gemm_xorand(av, bv, {c.data(), 4, 4, 4}, s, source.token()),
               Cancelled);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(c[i], 0xABAB);
}

TEST(KernelCancel, PreCancelledParallelThrows) {
  auto a = random_masks(64 * 64, 23);
  auto b = random_words(64 * 64, 24);
  AlignedBuffer<std::uint64_t> c(64 * 64);
  Schedule s = default_schedule();
  s.num_threads = 4;
  s.par_axis = ParAxis::N;
  CancelSource source;
  source.request_cancel();
  const MatView<const std::uint64_t> av{a.data(), 64, 64, 64};
  const MatView<const std::uint64_t> bv{b.data(), 64, 64, 64};
  EXPECT_THROW(gemm_xorand(av, bv, {c.data(), 64, 64, 64}, s, source.token()),
               Cancelled);
}

TEST(KernelCancel, InvalidTokenComputesNormally) {
  auto a = random_masks(16, 25);
  auto b = random_words(16, 26);
  AlignedBuffer<std::uint64_t> c(16), ref(16);
  Schedule s = default_schedule();
  const MatView<const std::uint64_t> av{a.data(), 4, 4, 4};
  const MatView<const std::uint64_t> bv{b.data(), 4, 4, 4};
  gemm_xorand(av, bv, {c.data(), 4, 4, 4}, s, CancelToken{});
  gemm_naive_xorand(av, bv, {ref.data(), 4, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) ASSERT_EQ(c[i], ref[i]);
}

TEST(KernelCancel, BatchedPreCancelledThrows) {
  auto a = random_masks(8 * 8, 27);
  auto b0 = random_words(8 * 32, 28);
  auto b1 = random_words(8 * 32, 29);
  AlignedBuffer<std::uint64_t> c0(8 * 32), c1(8 * 32);
  Schedule s = default_schedule();
  s.num_threads = 1;
  const std::vector<testutil::GemmItem> items{
      {{b0.data(), 8, 32, 32}, {c0.data(), 8, 32, 32}},
      {{b1.data(), 8, 32, 32}, {c1.data(), 8, 32, 32}}};
  const auto [wide_b, wide_c] = testutil::wide_n(items);
  CancelSource source;
  source.request_cancel();
  EXPECT_THROW(gemm_xorand_scattered({a.data(), 8, 8, 8}, wide_b, wide_c, s,
                                     source.token()),
               Cancelled);
}

TEST(KernelCancel, UncancelledTokenMatchesNaive) {
  // A live-but-never-fired token must not change results (the overhead
  // path: one relaxed load per tile chunk).
  auto a = random_masks(16 * 24, 31);
  auto b = random_words(24 * 40, 32);
  AlignedBuffer<std::uint64_t> c(16 * 40), ref(16 * 40);
  Schedule s = default_schedule();
  s.num_threads = 2;
  s.par_axis = ParAxis::N;
  CancelSource source;
  const MatView<const std::uint64_t> av{a.data(), 16, 24, 24};
  const MatView<const std::uint64_t> bv{b.data(), 24, 40, 40};
  gemm_xorand(av, bv, {c.data(), 16, 40, 40}, s, source.token());
  gemm_naive_xorand(av, bv, {ref.data(), 16, 40, 40});
  for (std::size_t i = 0; i < c.size(); ++i) ASSERT_EQ(c[i], ref[i]);
}

TEST(Schedule, ValidityAndToString) {
  Schedule s = default_schedule();
  EXPECT_TRUE(s.valid());
  EXPECT_FALSE((Schedule{3, 4, 0, 0, 1}).valid());
  EXPECT_FALSE((Schedule{4, 4, 0, 0, 0}).valid());
  EXPECT_NE(s.to_string().find("mt4x4"), std::string::npos);
  EXPECT_TRUE(is_supported_tile(8, 1));
  EXPECT_FALSE(is_supported_tile(8, 5));
}

}  // namespace
}  // namespace tvmec::tensor
