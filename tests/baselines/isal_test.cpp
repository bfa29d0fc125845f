#include "baselines/isal_like.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "ec/reed_solomon.h"
#include "tensor/variant.h"

namespace tvmec::baseline {
namespace {

using testutil::ForceRestorer;
using testutil::random_bytes;

struct IsalCase {
  ec::CodeParams params;
  std::size_t unit;
};

class IsalTest : public ::testing::TestWithParam<IsalCase> {};

TEST_P(IsalTest, MatchesGfReference) {
  const auto& [params, unit] = GetParam();
  const ec::ReedSolomon rs(params, ec::RsFamily::VandermondeSystematic);
  const IsalCoder coder(rs.parity_matrix());
  const auto data = random_bytes(params.k * unit, 13 * params.k + unit);
  tensor::AlignedBuffer<std::uint8_t> got(params.r * unit);
  std::vector<std::uint8_t> expect(params.r * unit);
  coder.apply(data.span(), got.span(), unit);
  rs.encode_reference(data.span(), expect, unit);
  ASSERT_TRUE(std::equal(expect.begin(), expect.end(), got.span().begin()));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IsalTest,
    ::testing::Values(IsalCase{{4, 2, 8}, 1024}, IsalCase{{10, 4, 8}, 4096},
                      // Sizes that exercise the scalar tail after the
                      // 32-byte vector loop: not multiples of 32.
                      IsalCase{{6, 3, 8}, 1000}, IsalCase{{8, 2, 8}, 17},
                      IsalCase{{3, 2, 8}, 31}),
    [](const auto& info) {
      return "k" + std::to_string(info.param.params.k) + "r" +
             std::to_string(info.param.params.r) + "u" +
             std::to_string(info.param.unit);
    });

TEST(Isal, RequiresGf8) {
  const ec::ReedSolomon rs4(ec::CodeParams{4, 2, 4});
  EXPECT_THROW(IsalCoder coder(rs4.parity_matrix()), std::invalid_argument);
  const ec::ReedSolomon rs16(ec::CodeParams{4, 2, 16});
  EXPECT_THROW(IsalCoder coder(rs16.parity_matrix()), std::invalid_argument);
}

TEST(Isal, ArbitraryUnitSizesAccepted) {
  // Unlike bitmatrix backends, ISA-L handles any byte length.
  const ec::ReedSolomon rs(ec::CodeParams{4, 2, 8});
  const IsalCoder coder(rs.parity_matrix());
  for (const std::size_t unit : {1u, 7u, 33u, 100u}) {
    const auto data = random_bytes(4 * unit, unit);
    tensor::AlignedBuffer<std::uint8_t> parity(2 * unit);
    std::vector<std::uint8_t> expect(2 * unit);
    coder.apply(data.span(), parity.span(), unit);
    rs.encode_reference(data.span(), expect, unit);
    ASSERT_TRUE(
        std::equal(expect.begin(), expect.end(), parity.span().begin()))
        << "unit=" << unit;
  }
}

TEST(Isal, SizeValidation) {
  const ec::ReedSolomon rs(ec::CodeParams{4, 2, 8});
  const IsalCoder coder(rs.parity_matrix());
  tensor::AlignedBuffer<std::uint8_t> data(4 * 64), parity(2 * 64);
  EXPECT_THROW(coder.apply(data.span(), parity.span(), 0),
               std::invalid_argument);
  EXPECT_THROW(coder.apply(data.span().subspan(0, 3 * 64), parity.span(), 64),
               std::invalid_argument);
}

TEST(Isal, SimdPathReportsRuntimeDispatch) {
  // has_simd_path() is a runtime statement about this host + this force
  // state, not about the flags the library was compiled with.
  ForceRestorer restore;
  tensor::set_forced_variant(std::nullopt);
  const IsalPath path = IsalCoder::active_path();
  EXPECT_EQ(IsalCoder::has_simd_path(), path != IsalPath::Scalar);
  if (path == IsalPath::Gfni) {
    EXPECT_TRUE(tensor::cpu_features().gfni);
    EXPECT_TRUE(tensor::cpu_features().avx2);
  }
  if (path == IsalPath::Vpshufb) {
    EXPECT_TRUE(tensor::cpu_features().avx2);
  }

  tensor::set_forced_variant(tensor::KernelVariant::Scalar);
  EXPECT_EQ(IsalCoder::active_path(), IsalPath::Scalar);
  EXPECT_FALSE(IsalCoder::has_simd_path());
}

TEST(Isal, EveryDispatchPathProducesIdenticalParity) {
  // Cross-path differential: force each tier this host offers and demand
  // byte-identical parity. Unit sizes straddle the 32-byte vector width
  // so both the vector loop and the software tail are compared.
  ForceRestorer restore;
  const ec::ReedSolomon rs(ec::CodeParams{10, 4, 8});
  const IsalCoder coder(rs.parity_matrix());
  for (const std::size_t unit : {31u, 32u, 100u, 4096u}) {
    const auto data = random_bytes(10 * unit, 97 + unit);

    tensor::set_forced_variant(tensor::KernelVariant::Scalar);
    ASSERT_EQ(IsalCoder::active_path(), IsalPath::Scalar);
    tensor::AlignedBuffer<std::uint8_t> scalar_out(4 * unit);
    coder.apply(data.span(), scalar_out.span(), unit);

    for (const tensor::KernelVariant v : tensor::available_variants()) {
      if (v == tensor::KernelVariant::Scalar) continue;
      tensor::set_forced_variant(v);
      tensor::AlignedBuffer<std::uint8_t> out(4 * unit);
      coder.apply(data.span(), out.span(), unit);
      ASSERT_TRUE(std::equal(scalar_out.span().begin(),
                             scalar_out.span().end(), out.span().begin()))
          << "unit=" << unit << " variant=" << tensor::to_string(v)
          << " path=" << to_string(IsalCoder::active_path());
    }
  }
}

TEST(Isal, IdentityCoefficientsCopyData) {
  const gf::Field& f = gf::Field::of(8);
  const IsalCoder coder(gf::Matrix::identity(f, 3));
  const auto data = random_bytes(3 * 96, 21);
  tensor::AlignedBuffer<std::uint8_t> out(3 * 96);
  coder.apply(data.span(), out.span(), 96);
  ASSERT_TRUE(std::equal(data.span().begin(), data.span().end(),
                         out.span().begin()));
}

}  // namespace
}  // namespace tvmec::baseline
