#include "ec/decoder.h"

#include <gtest/gtest.h>

#include "ec/reed_solomon.h"

namespace tvmec::ec {
namespace {

const gf::Matrix& generator_10_4() {
  static const ReedSolomon rs(CodeParams{10, 4, 8});
  return rs.generator();
}

TEST(DecodePlan, ValidatesErasedIds) {
  const auto& gen = generator_10_4();
  EXPECT_THROW(make_decode_plan(gen, std::vector<std::size_t>{}),
               std::invalid_argument);
  EXPECT_THROW(make_decode_plan(gen, std::vector<std::size_t>{14}),
               std::invalid_argument);
  EXPECT_THROW(make_decode_plan(gen, std::vector<std::size_t>{1, 1}),
               std::invalid_argument);
}

TEST(DecodePlan, SurvivorsExcludeErased) {
  const auto& gen = generator_10_4();
  const std::vector<std::size_t> erased = {2, 7, 13};
  const auto plan = make_decode_plan(gen, erased);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->survivors.size(), 10u);
  for (const std::size_t s : plan->survivors)
    for (const std::size_t e : erased) EXPECT_NE(s, e);
  EXPECT_EQ(plan->erased, erased);
  EXPECT_EQ(plan->recovery.rows(), 3u);
  EXPECT_EQ(plan->recovery.cols(), 10u);
}

TEST(DecodePlan, MdsPicksFirstKSurvivors) {
  const auto& gen = generator_10_4();
  const std::vector<std::size_t> erased = {0, 5};
  const auto plan = make_decode_plan(gen, erased);
  ASSERT_TRUE(plan.has_value());
  // For an MDS code every survivor adds rank, so the greedy choice is
  // simply the first k survivors in id order.
  const std::vector<std::size_t> expect = {1, 2, 3, 4, 6, 7, 8, 9, 10, 11};
  EXPECT_EQ(plan->survivors, expect);
}

TEST(DecodePlan, TooManyErasuresUnrecoverable) {
  const auto& gen = generator_10_4();
  const std::vector<std::size_t> erased = {0, 1, 2, 3, 4};  // 5 > r=4
  EXPECT_FALSE(make_decode_plan(gen, erased).has_value());
}

/// Algebraic identity: recovery * G[survivors] must equal G[erased]
/// (both map data -> erased units), for every erasure pattern size.
TEST(DecodePlan, RecoveryMatrixIsAlgebraicallyConsistent) {
  const auto& gen = generator_10_4();
  for (const std::vector<std::size_t>& erased :
       {std::vector<std::size_t>{0}, {13}, {0, 13}, {1, 2, 3}, {9, 10, 11, 12}}) {
    const auto plan = make_decode_plan(gen, erased);
    ASSERT_TRUE(plan.has_value());
    const gf::Matrix survivor_rows = gen.select_rows(plan->survivors);
    const gf::Matrix erased_rows = gen.select_rows(plan->erased);
    EXPECT_EQ(plan->recovery.mul(survivor_rows), erased_rows);
  }
}

TEST(DecodePlan, ParityOnlyErasureRecoversViaReencode) {
  // Erasing only parities: the recovery rows must equal the parity rows
  // of the generator restricted to surviving data (here all data lives).
  const auto& gen = generator_10_4();
  const std::vector<std::size_t> erased = {10, 12};
  const auto plan = make_decode_plan(gen, erased);
  ASSERT_TRUE(plan.has_value());
  // Survivors 0..9 are exactly the data units; the recovery matrix must
  // then be the corresponding parity coefficient rows.
  EXPECT_EQ(plan->recovery, gen.select_rows(erased));
}

/// A survivor preference restricts the plan to the preferred ids, taken
/// in the caller's order, and never widens it: a set too small to
/// recover the pattern yields no plan rather than a different one.
TEST(DecodePlan, PreferenceRestrictsAndOrdersSurvivors) {
  const auto& gen = generator_10_4();
  const std::vector<std::size_t> erased = {0};
  // Erased and repeated ids are skipped; the first k usable ones win and
  // come back ascending.
  const std::vector<std::size_t> pref = {13, 0, 12, 12, 11, 10, 9,
                                         8,  7, 6,  5,  4,  3,  2, 1};
  const auto plan = make_decode_plan(gen, erased, pref);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->survivors,
            (std::vector<std::size_t>{4, 5, 6, 7, 8, 9, 10, 11, 12, 13}));
  EXPECT_EQ(plan->recovery.mul(gen.select_rows(plan->survivors)),
            gen.select_rows(plan->erased));

  // Nine usable ids cannot recover a k=10 code.
  const std::vector<std::size_t> short_pref = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_FALSE(make_decode_plan(gen, erased, short_pref).has_value());
  EXPECT_THROW(make_decode_plan(gen, erased, std::vector<std::size_t>{14}),
               std::invalid_argument);
}

TEST(DecodePlan, WorksOnRankDeficientGenerators) {
  // A generator with a duplicated row (non-MDS): the tracker must skip
  // the dependent row and still find an invertible set when one exists.
  const gf::Field& f = gf::Field::of(8);
  gf::Matrix gen(f, 5, 3);
  // rows: e0, e1, e1 (duplicate), e2, sum
  gen.set(0, 0, 1);
  gen.set(1, 1, 1);
  gen.set(2, 1, 1);
  gen.set(3, 2, 1);
  gen.set(4, 0, 1);
  gen.set(4, 1, 1);
  gen.set(4, 2, 1);

  // Erase unit 0: survivors {1,2,3,4}; rows 1 and 2 are dependent, so the
  // plan must use rows {1,3,4}.
  const auto plan = make_decode_plan(gen, std::vector<std::size_t>{0});
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->survivors, (std::vector<std::size_t>{1, 3, 4}));

  // Erase units 0 and 4: survivors {1,2,3} have rank 2 -> unrecoverable.
  EXPECT_FALSE(
      make_decode_plan(gen, std::vector<std::size_t>{0, 4}).has_value());
}

}  // namespace
}  // namespace tvmec::ec
