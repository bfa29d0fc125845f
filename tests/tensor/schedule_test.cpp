#include "tensor/schedule.h"

#include <gtest/gtest.h>

namespace tvmec::tensor {
namespace {

TEST(ScheduleParse, RoundTripsEverySupportedSchedule) {
  for (const int tm : {1, 2, 4, 8}) {
    for (const int tn : {1, 2, 4, 8, 16, 32, 64}) {
      for (const std::size_t bk : {0u, 16u, 64u}) {
        for (const int t : {1, 4}) {
          Schedule s;
          s.tile_m = tm;
          s.tile_n = tn;
          s.block_k = bk;
          s.block_n = 2048;
          s.num_threads = t;
          EXPECT_EQ(Schedule::parse(s.to_string()), s) << s.to_string();
        }
      }
    }
  }
}

TEST(ScheduleParse, RoundTripsParallelAxisKnobs) {
  for (const ParAxis axis : {ParAxis::M, ParAxis::N, ParAxis::MN}) {
    for (const std::size_t grain : {0u, 1u, 4u, 64u}) {
      for (const int t : {1, 2, 8}) {
        Schedule s;
        s.tile_m = 8;
        s.tile_n = 16;
        s.block_n = 512;
        s.num_threads = t;
        s.par_axis = axis;
        s.par_grain = grain;
        EXPECT_EQ(Schedule::parse(s.to_string()), s) << s.to_string();
      }
    }
  }
}

TEST(ScheduleParse, RoundTripsVariantKnob) {
  for (const KernelVariant v :
       {KernelVariant::Auto, KernelVariant::Scalar, KernelVariant::Avx2,
        KernelVariant::Avx512, KernelVariant::Neon, KernelVariant::Gfni}) {
    Schedule s;
    s.tile_m = 4;
    s.tile_n = 16;
    s.variant = v;
    EXPECT_EQ(Schedule::parse(s.to_string()), s) << s.to_string();
  }
}

TEST(ScheduleParse, LegacyFiveFieldFormStillParses) {
  // Pre-parallel-axis logs partitioned rows of C; the legacy form maps
  // to exactly that so old tuning logs keep their meaning.
  const Schedule s = Schedule::parse("mt4x8 kb64 nb2048 t4");
  EXPECT_EQ(s.tile_m, 4);
  EXPECT_EQ(s.tile_n, 8);
  EXPECT_EQ(s.block_k, 64u);
  EXPECT_EQ(s.block_n, 2048u);
  EXPECT_EQ(s.num_threads, 4);
  EXPECT_EQ(s.par_axis, ParAxis::M);
  EXPECT_EQ(s.par_grain, 0u);
  EXPECT_EQ(s.variant, KernelVariant::Auto);
}

TEST(ScheduleParse, LegacySevenFieldFormMapsToAutoVariant) {
  // Pre-variant logs ran whatever ISA the build was compiled for; Auto
  // ("best this host offers") is the faithful replay of that.
  const Schedule s = Schedule::parse("mt4x8 kb64 nb2048 t4 pn g2");
  EXPECT_EQ(s.par_axis, ParAxis::N);
  EXPECT_EQ(s.par_grain, 2u);
  EXPECT_EQ(s.variant, KernelVariant::Auto);
}

TEST(ScheduleParse, RejectsBadVariant) {
  EXPECT_THROW(Schedule::parse("mt4x8 kb0 nb0 t4 pn g0 vsse9"),
               std::invalid_argument);
  EXPECT_THROW(Schedule::parse("mt4x8 kb0 nb0 t4 pn g0 v"),
               std::invalid_argument);
}

TEST(ScheduleParse, RejectsBadParallelAxis) {
  EXPECT_THROW(Schedule::parse("mt4x8 kb0 nb0 t4 pz g0"),
               std::invalid_argument);
  EXPECT_THROW(Schedule::parse("mt4x8 kb0 nb0 t4 pn"), std::invalid_argument);
  EXPECT_THROW(Schedule::parse("mt4x8 kb0 nb0 t4 pn g0 junk"),
               std::invalid_argument);
}

TEST(ScheduleValidity, GrainCapEnforced) {
  Schedule s = default_schedule();
  s.par_grain = std::size_t{1} << 20;
  EXPECT_TRUE(s.valid());
  s.par_grain = (std::size_t{1} << 20) + 1;
  EXPECT_FALSE(s.valid());
}

TEST(Schedule, DefaultPartitionsTheLongAxis) {
  EXPECT_EQ(default_schedule().par_axis, ParAxis::N);
}

TEST(ScheduleParse, RejectsMalformedText) {
  EXPECT_THROW(Schedule::parse(""), std::invalid_argument);
  EXPECT_THROW(Schedule::parse("mt4x4"), std::invalid_argument);
  EXPECT_THROW(Schedule::parse("tile4x4 kb0 nb0 t1"), std::invalid_argument);
  EXPECT_THROW(Schedule::parse("garbage"), std::invalid_argument);
}

TEST(ScheduleParse, RejectsInvalidSchedules) {
  // Parses syntactically but fails validity (tile 3 unsupported).
  EXPECT_THROW(Schedule::parse("mt3x4 kb0 nb0 t1"), std::invalid_argument);
  EXPECT_THROW(Schedule::parse("mt4x4 kb0 nb0 t0"), std::invalid_argument);
}

TEST(ScheduleValidity, WideTilesSupported) {
  Schedule s;
  s.tile_m = 8;
  s.tile_n = 64;
  EXPECT_TRUE(s.valid());
  s.tile_n = 48;  // not in the menu
  EXPECT_FALSE(s.valid());
}

}  // namespace
}  // namespace tvmec::tensor
