#include "core/gemm_coder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "../test_util.h"
#include "baselines/naive.h"
#include "ec/reed_solomon.h"

namespace tvmec::core {
namespace {

using testutil::random_bytes;

struct GemmCase {
  ec::CodeParams params;
  std::size_t unit;
};

class GemmCoderTest : public ::testing::TestWithParam<GemmCase> {};

/// The GEMM path must agree byte-for-byte with the naive bitmatrix
/// reference (itself proven against GF arithmetic under the bitpacket
/// embedding) for every code shape in the paper's evaluation space.
TEST_P(GemmCoderTest, MatchesBitmatrixReference) {
  const auto& [params, unit] = GetParam();
  const ec::ReedSolomon rs(params);
  const GemmCoder coder(rs.parity_matrix());
  EXPECT_EQ(coder.in_units(), params.k);
  EXPECT_EQ(coder.out_units(), params.r);
  EXPECT_EQ(coder.w(), params.w);

  const auto data = random_bytes(params.k * unit, params.k * 1000 + unit);
  tensor::AlignedBuffer<std::uint8_t> got(params.r * unit);
  tensor::AlignedBuffer<std::uint8_t> expect(params.r * unit);
  coder.apply(data.span(), got.span(), unit);
  baseline::NaiveBitmatrixCoder(rs.parity_matrix())
      .apply(data.span(), expect.span(), unit);
  ASSERT_TRUE(std::equal(expect.span().begin(), expect.span().end(),
                         got.span().begin()));
}

/// And the anchor itself: the GEMM path equals first-principles GF
/// arithmetic under the bitpacket embedding (small unit: the reference
/// is O(bits * w)).
TEST(GemmCoderReference, MatchesBitpacketGfArithmetic) {
  const ec::CodeParams params{6, 3, 8};
  const std::size_t unit = 2048;
  const ec::ReedSolomon rs(params);
  const GemmCoder coder(rs.parity_matrix());
  const auto data = random_bytes(params.k * unit, 2024);
  tensor::AlignedBuffer<std::uint8_t> got(params.r * unit);
  std::vector<std::uint8_t> expect(params.r * unit);
  coder.apply(data.span(), got.span(), unit);
  ec::apply_matrix_reference_bitpacket(rs.parity_matrix(), data.span(),
                                       expect, unit);
  ASSERT_TRUE(std::equal(expect.begin(), expect.end(), got.span().begin()));
}

INSTANTIATE_TEST_SUITE_P(
    PaperShapes, GemmCoderTest,
    ::testing::Values(GemmCase{{8, 2, 8}, 128 * 1024},
                      GemmCase{{9, 3, 8}, 128 * 1024},
                      GemmCase{{10, 4, 8}, 128 * 1024},
                      GemmCase{{10, 4, 8}, 64}, GemmCase{{4, 2, 4}, 4096},
                      GemmCase{{6, 3, 16}, 8192}),
    [](const auto& info) {
      return "k" + std::to_string(info.param.params.k) + "r" +
             std::to_string(info.param.params.r) + "w" +
             std::to_string(info.param.params.w) + "u" +
             std::to_string(info.param.unit);
    });

TEST(GemmCoder, EverySearchSpaceScheduleIsCorrect) {
  // Property: the schedule changes performance, never results.
  const ec::CodeParams params{6, 3, 8};
  const std::size_t unit = 1024;
  const ec::ReedSolomon rs(params);
  GemmCoder coder(rs.parity_matrix());
  const auto data = random_bytes(params.k * unit, 777);
  std::vector<std::uint8_t> expect(params.r * unit);
  ec::apply_matrix_reference_bitpacket(rs.parity_matrix(), data.span(),
                                       expect, unit);

  // A space holds the schedules of one tier: the one calls resolve to.
  tensor::AlignedBuffer<std::uint8_t> got(params.r * unit);
  for (const tensor::KernelVariant v : tensor::available_variants()) {
    const testutil::ForceRestorer force(v);
    const tune::SearchSpace space(coder.task_shape(unit), 4);
    for (std::size_t i = 0; i < space.size(); ++i) {
      coder.set_schedule(space.at(i));
      got.fill_zero();
      coder.apply(data.span(), got.span(), unit);
      ASSERT_TRUE(
          std::equal(expect.begin(), expect.end(), got.span().begin()))
          << "schedule " << space.at(i).to_string();
    }
  }
}

TEST(GemmCoder, TaskShapeMatchesBitmatrixGemm) {
  const ec::ReedSolomon rs(ec::CodeParams{10, 4, 8});
  const GemmCoder coder(rs.parity_matrix());
  const tune::TaskShape shape = coder.task_shape(128 * 1024);
  EXPECT_EQ(shape.m, 32u);          // r * w
  EXPECT_EQ(shape.k, 80u);          // k * w
  EXPECT_EQ(shape.n, 2048u);        // unit / w / 8
}

TEST(GemmCoder, RejectsInvalidSchedule) {
  const ec::ReedSolomon rs(ec::CodeParams{4, 2, 8});
  GemmCoder coder(rs.parity_matrix());
  tensor::Schedule bad;
  bad.tile_m = 5;
  EXPECT_THROW(coder.set_schedule(bad), std::invalid_argument);
  EXPECT_THROW(GemmCoder(rs.parity_matrix(), bad), std::invalid_argument);
}

TEST(GemmCoder, SizeAndAlignmentValidation) {
  const ec::ReedSolomon rs(ec::CodeParams{4, 2, 8});
  const GemmCoder coder(rs.parity_matrix());
  tensor::AlignedBuffer<std::uint8_t> data(4 * 64 + 1), parity(2 * 64);
  // 60 is not a multiple of w = 8: still rejected.
  EXPECT_THROW(coder.apply(data.span().subspan(0, 4 * 60), parity.span(), 60),
               std::invalid_argument);
  // Regression: a +1-offset (misaligned) input used to throw. It is now
  // staged through aligned scratch and matches the aligned result.
  for (std::size_t i = 0; i < data.span().size(); ++i)
    data.span()[i] = static_cast<std::uint8_t>(i * 131 + 7);
  const auto in_off = data.span().subspan(1, 4 * 64);
  tensor::AlignedBuffer<std::uint8_t> data_aligned(4 * 64);
  std::copy(in_off.begin(), in_off.end(), data_aligned.span().begin());
  tensor::AlignedBuffer<std::uint8_t> expect(2 * 64);
  coder.apply(data_aligned.span(), expect.span(), 64);
  EXPECT_NO_THROW(coder.apply(in_off, parity.span(), 64));
  EXPECT_TRUE(std::equal(parity.span().begin(), parity.span().end(),
                         expect.span().begin()));
}

TEST(GemmCoder, ScheduleCacheSuppliesKernelShapeNotThreads) {
  const ec::ReedSolomon rs(ec::CodeParams{4, 2, 8});
  const std::size_t unit = 64 * 1024;
  tensor::Schedule own = default_coder_schedule();
  own.num_threads = 2;
  GemmCoder coder(rs.parity_matrix(), own);
  const tensor::Schedule tuned{.tile_m = 4,
                               .tile_n = 16,
                               .block_k = 8,
                               .block_n = 256,
                               .num_threads = 4,
                               .par_axis = tensor::ParAxis::MN,
                               .par_grain = 3,
                               .variant = tensor::KernelVariant::Scalar};
  auto cache = std::make_shared<tune::ScheduleCache>();
  cache->install(coder.task_shape(unit), {tuned, 1.0e9});
  coder.set_schedule_cache(cache);

  const tensor::Schedule got = coder.schedule_for(unit);
  EXPECT_EQ(got.tile_m, tuned.tile_m);
  EXPECT_EQ(got.tile_n, tuned.tile_n);
  EXPECT_EQ(got.block_k, tuned.block_k);
  EXPECT_EQ(got.block_n, tuned.block_n);
  EXPECT_EQ(got.variant, tuned.variant);
  // The thread knobs stay the coder's own.
  EXPECT_EQ(got.num_threads, own.num_threads);
  EXPECT_EQ(got.par_axis, own.par_axis);
  EXPECT_EQ(got.par_grain, own.par_grain);

  const auto data = random_bytes(4 * unit, 41);
  tensor::AlignedBuffer<std::uint8_t> out(2 * unit), expect(2 * unit);
  coder.apply(data.span(), out.span(), unit);
  baseline::NaiveBitmatrixCoder(rs.parity_matrix())
      .apply(data.span(), expect.span(), unit);
  ASSERT_TRUE(std::equal(expect.span().begin(), expect.span().end(),
                         out.span().begin()));
}

TEST(GemmCoder, TuneIgnoresAttachedScheduleCache) {
  const ec::ReedSolomon rs(ec::CodeParams{4, 2, 8});
  const std::size_t unit = 4096;
  GemmCoder coder(rs.parity_matrix());
  // An entry the kernel rejects (no 5-row microkernel): any call that
  // reads it throws.
  tensor::Schedule rejected = default_coder_schedule();
  rejected.tile_m = 5;
  auto cache = std::make_shared<tune::ScheduleCache>();
  cache->install(coder.task_shape(unit), {rejected, 1.0e12});
  coder.set_schedule_cache(cache);

  tune::TuneOptions opt;
  opt.policy = tune::Policy::Random;
  opt.trials = 4;
  const tune::TuneResult result = coder.tune(unit, opt, 1);
  EXPECT_EQ(result.failed_trials, 0u);  // every trial ran its own schedule
  EXPECT_EQ(cache->stats().hits + cache->stats().misses, 0u);

  const auto data = random_bytes(4 * unit, 42);
  tensor::AlignedBuffer<std::uint8_t> out(2 * unit);
  EXPECT_THROW(coder.apply(data.span(), out.span(), unit),
               std::invalid_argument);
  EXPECT_EQ(cache->stats().hits, 1u);
}

TEST(GemmCoder, TuneInstallsBestScheduleAndImproves) {
  const ec::CodeParams params{10, 4, 8};
  const std::size_t unit = 32 * 1024;
  const ec::ReedSolomon rs(params);
  GemmCoder coder(rs.parity_matrix());

  tune::TuneOptions opt;
  opt.policy = tune::Policy::Random;
  opt.trials = 12;
  opt.seed = 3;
  const tune::TuneResult result = coder.tune(unit, opt, 1);
  EXPECT_EQ(result.history.size(), 12u);
  EXPECT_GT(result.best_throughput, 0.0);
  EXPECT_EQ(coder.schedule(), result.best_schedule);

  // Tuned coder still encodes correctly.
  const auto data = random_bytes(params.k * unit, 31);
  tensor::AlignedBuffer<std::uint8_t> got(params.r * unit);
  tensor::AlignedBuffer<std::uint8_t> expect(params.r * unit);
  coder.apply(data.span(), got.span(), unit);
  baseline::NaiveBitmatrixCoder(rs.parity_matrix())
      .apply(data.span(), expect.span(), unit);
  ASSERT_TRUE(std::equal(expect.span().begin(), expect.span().end(),
                         got.span().begin()));
}

TEST(GemmCoder, NameIsTvmEc) {
  const ec::ReedSolomon rs(ec::CodeParams{4, 2, 8});
  EXPECT_EQ(GemmCoder(rs.parity_matrix()).name(), "tvm-ec");
}

}  // namespace
}  // namespace tvmec::core
