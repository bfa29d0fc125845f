#include <gtest/gtest.h>

#include <numeric>

#include "../test_util.h"
#include "core/tvmec.h"
#include "ec/lrc.h"

/// LRCs through the one codec: the paper's §8 commitment ("we plan to
/// include other classes of codes in our prototype, such as local
/// reconstruction codes") on the same Codec, plan cache and GEMM path as
/// Reed-Solomon.
namespace tvmec::core {
namespace {

using Stripe = tensor::AlignedBuffer<std::uint8_t>;

constexpr std::size_t kUnit = 2048;

ec::LrcParams azure() { return ec::LrcParams{12, 2, 2, 8}; }

Stripe make_stripe(Codec& codec, std::uint64_t seed,
                   std::size_t unit = kUnit) {
  const auto& p = codec.params();
  Stripe stripe(p.n() * unit);
  const auto data = testutil::random_bytes(p.k * unit, seed);
  std::copy(data.span().begin(), data.span().end(), stripe.data());
  codec.encode(data.span(),
               std::span<std::uint8_t>(stripe.data() + p.k * unit,
                                       p.r * unit),
               unit);
  return stripe;
}

/// Erases `pattern` in a copy of `pristine`, decodes the copy in place,
/// and reports whether it came back byte-identical. Decode errors
/// propagate.
bool decodes_exactly(Codec& codec, const Stripe& pristine,
                     const std::vector<std::size_t>& pattern,
                     std::size_t unit = kUnit) {
  Stripe stripe = pristine;
  for (const std::size_t id : pattern)
    std::fill_n(stripe.data() + id * unit, unit, 0xEE);
  codec.decode(stripe.span(), pattern, unit);
  return std::equal(pristine.span().begin(), pristine.span().end(),
                    stripe.span().begin());
}

TEST(Codec, LrcEncodeMatchesBitmatrixReference) {
  const ec::LrcParams p = azure();
  Codec codec(p);
  EXPECT_EQ(codec.params().r, p.l + p.g);
  const auto data = testutil::random_bytes(p.k * kUnit, 1);
  Stripe parity((p.l + p.g) * kUnit);
  codec.encode(data.span(), parity.span(), kUnit);

  std::vector<std::uint8_t> expect((p.l + p.g) * kUnit);
  ec::apply_matrix_reference_bitpacket(ec::Lrc(p).parity_matrix(),
                                       data.span(), expect, kUnit);
  EXPECT_TRUE(
      std::equal(expect.begin(), expect.end(), parity.span().begin()));
}

TEST(Codec, LrcSingleLossReadsOnlyGroupAndRestoresExactly) {
  const ec::LrcParams p = azure();
  Codec codec(p);
  const Stripe pristine = make_stripe(codec, 2);
  for (const std::size_t failed : {0u, 5u, 7u, 11u, 12u, 13u}) {
    ASSERT_TRUE(decodes_exactly(codec, pristine, {failed})) << failed;
    // Locality: k/l reads, not k.
    EXPECT_EQ(codec.plan({failed})->survivors.size(), p.group_size());
  }
}

TEST(Codec, LrcGlobalParityLossReadsKUnits) {
  const ec::LrcParams p = azure();
  Codec codec(p);
  const Stripe pristine = make_stripe(codec, 3);
  // A global parity has no local group: its plan reads k units.
  for (const std::size_t global : {14u, 15u}) {
    ASSERT_TRUE(decodes_exactly(codec, pristine, {global})) << global;
    EXPECT_EQ(codec.plan({global})->survivors.size(), p.k);
  }
  Stripe stripe = pristine;
  const std::vector<std::size_t> out_of_range = {99};
  EXPECT_THROW(codec.plan(out_of_range), std::invalid_argument);
  EXPECT_THROW(codec.decode(stripe.span(), out_of_range, kUnit),
               std::invalid_argument);
}

TEST(Codec, LrcMultiFailureDecode) {
  Codec codec(azure());
  const Stripe pristine = make_stripe(codec, 4);
  // Up-to-g failures are always decodable; try data+global mixes.
  for (const std::vector<std::size_t>& pattern :
       {std::vector<std::size_t>{0, 6}, {3, 14}, {14, 15}, {2}, {12, 15}})
    ASSERT_TRUE(decodes_exactly(codec, pristine, pattern));
}

TEST(Codec, LrcUnrecoverablePatternThrows) {
  Codec codec(ec::LrcParams{4, 2, 1, 8});
  const Stripe pristine = make_stripe(codec, 5);
  // Both units of group 0, its local parity, and the global: 4 erasures
  // with only 3 parities overall -> unrecoverable.
  EXPECT_THROW(decodes_exactly(codec, pristine, {0, 1, 4, 6}),
               std::runtime_error);
  // Within the parity count but not recoverable either: group 0's two
  // data units and its local parity (the LRC is not MDS).
  EXPECT_EQ(codec.plan({0, 1, 4}), nullptr);
  EXPECT_THROW(decodes_exactly(codec, pristine, {0, 1, 4}),
               std::runtime_error);
}

class CodecLrcConfigTest : public ::testing::TestWithParam<ec::LrcParams> {};

/// Encode + single-loss decode of every data and local-parity unit + a
/// g-failure decode, across group shapes and field sizes.
TEST_P(CodecLrcConfigTest, FullCycleAcrossConfigs) {
  const ec::LrcParams p = GetParam();
  Codec codec(p);
  const std::size_t unit = 8 * p.w * 4;
  const Stripe pristine = make_stripe(codec, p.k * p.l, unit);

  // Every data and local-parity unit decodes from its group alone.
  for (std::size_t u = 0; u < p.k + p.l; ++u) {
    ASSERT_TRUE(decodes_exactly(codec, pristine, {u}, unit)) << "unit " << u;
    EXPECT_EQ(codec.plan({u})->survivors.size(), p.group_size());
  }

  // A g-sized failure burst of data units.
  std::vector<std::size_t> burst(p.g);
  std::iota(burst.begin(), burst.end(), std::size_t{0});
  ASSERT_TRUE(decodes_exactly(codec, pristine, burst, unit));
}

// k12l4g2w4 has k + l + g = 18 units over GF(16): an LRC needs only
// k + g distinct field points, so it is not an MDS CodeParams shape.
INSTANTIATE_TEST_SUITE_P(
    Configs, CodecLrcConfigTest,
    ::testing::Values(ec::LrcParams{12, 2, 2, 8}, ec::LrcParams{12, 3, 2, 8},
                      ec::LrcParams{8, 4, 3, 8}, ec::LrcParams{6, 2, 2, 4},
                      ec::LrcParams{10, 5, 2, 16},
                      ec::LrcParams{12, 4, 2, 4}),
    [](const auto& info) {
      return "k" + std::to_string(info.param.k) + "l" +
             std::to_string(info.param.l) + "g" +
             std::to_string(info.param.g) + "w" +
             std::to_string(info.param.w);
    });

TEST(Codec, LrcScheduleChangeKeepsResults) {
  Codec codec(azure());
  const Stripe pristine = make_stripe(codec, 6);
  tensor::Schedule s;
  s.tile_m = 8;
  s.tile_n = 16;
  s.block_n = 512;
  codec.set_schedule(s);
  EXPECT_TRUE(decodes_exactly(codec, pristine, {0}));
  // Re-encode under the new schedule matches too.
  const Stripe again = make_stripe(codec, 6);
  EXPECT_TRUE(std::equal(pristine.span().begin(), pristine.span().end(),
                         again.span().begin()));
}

/// An LRC and an RS code of the same shape share one plan cache. Every
/// LRC pattern of at most l + g losses decodes byte-exactly exactly when
/// the LRC planner finds a plan, and RS decodes of the same patterns stay
/// exact: the code identity keeps the two codes' entries apart. The
/// second pass runs on fresh codecs, so every plan — negative entries
/// included — comes from the shared cache.
TEST(Codec, LrcAndRsShareOnePlanCache) {
  const ec::LrcParams lp{8, 2, 2, 8};
  const ec::Lrc lrc(lp);
  const auto cache = std::make_shared<PlanCache>();
  constexpr std::size_t unit = 256;
  std::vector<std::vector<std::size_t>> patterns;
  for (std::size_t e = 1; e <= lp.l + lp.g; ++e)
    for (auto& pattern : testutil::erasure_patterns(lp.n(), e))
      patterns.push_back(std::move(pattern));

  for (std::size_t pass = 0; pass < 2; ++pass) {
    Codec lrc_codec(lp);
    Codec rs_codec(ec::CodeParams{8, 4, 8});
    lrc_codec.set_plan_cache(cache);
    rs_codec.set_plan_cache(cache);
    const Stripe lrc_pristine = make_stripe(lrc_codec, 7, unit);
    const Stripe rs_pristine = make_stripe(rs_codec, 8, unit);
    std::size_t recoverable = 0;
    for (const auto& pattern : patterns) {
      if (lrc.decode_plan(pattern)) {
        ++recoverable;
        ASSERT_TRUE(decodes_exactly(lrc_codec, lrc_pristine, pattern, unit));
      } else {
        ASSERT_THROW(decodes_exactly(lrc_codec, lrc_pristine, pattern, unit),
                     std::runtime_error);
      }
      ASSERT_TRUE(decodes_exactly(rs_codec, rs_pristine, pattern, unit));
    }
    EXPECT_GT(recoverable, 0u);
    EXPECT_LT(recoverable, patterns.size());  // the LRC is not MDS

    // Pass 0 misses once per code and pattern; pass 1 only hits.
    const PlanCacheStats stats = cache->stats();
    EXPECT_EQ(stats.misses, 2 * patterns.size());
    EXPECT_EQ(stats.hits, pass * 2 * patterns.size());
    EXPECT_EQ(stats.entries, 2 * patterns.size());
  }
}

}  // namespace
}  // namespace tvmec::core
