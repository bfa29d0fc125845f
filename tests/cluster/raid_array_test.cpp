#include "cluster/raid_array.h"

#include <gtest/gtest.h>

#include <random>

#include "../test_util.h"

namespace tvmec::cluster {
namespace {

constexpr std::size_t kBlock = 512;

RaidArray make_array(std::size_t stripes = 16) {
  return RaidArray(ec::CodeParams{4, 2, 8}, kBlock, stripes);
}

TEST(RaidArray, Geometry) {
  RaidArray raid = make_array(10);
  EXPECT_EQ(raid.cluster().num_nodes(), 6u);
  EXPECT_EQ(raid.capacity_blocks(), 40u);
  EXPECT_EQ(raid.block_size(), kBlock);
  EXPECT_THROW(RaidArray(ec::CodeParams{4, 2, 8}, 100, 4),
               std::invalid_argument);
  EXPECT_THROW(RaidArray(ec::CodeParams{4, 2, 8}, kBlock, 0),
               std::invalid_argument);
}

TEST(RaidArray, FreshArrayReadsZeros) {
  RaidArray raid = make_array();
  const auto block = raid.read_block(7);
  EXPECT_EQ(block.size(), kBlock);
  for (const auto b : block) EXPECT_EQ(b, 0);
  EXPECT_EQ(raid.verify(), 0u);
}

TEST(RaidArray, WriteReadRoundTrip) {
  RaidArray raid = make_array();
  const auto data = testutil::random_vector(kBlock, 1);
  raid.write_block(5, data);
  EXPECT_EQ(raid.read_block(5), data);
  EXPECT_EQ(raid.verify(), 0u);
  // The healthy-path write must have used the small-write patch.
  EXPECT_EQ(raid.cluster().stats().small_write_patches, 1u);
  EXPECT_EQ(raid.cluster().stats().full_stripe_writes, 0u);
}

TEST(RaidArray, Validation) {
  RaidArray raid = make_array();
  const auto data = testutil::random_vector(kBlock, 2);
  EXPECT_THROW(raid.write_block(1000, data), std::invalid_argument);
  EXPECT_THROW(raid.read_block(1000), std::invalid_argument);
  const auto shorty = testutil::random_vector(kBlock / 2, 3);
  EXPECT_THROW(raid.write_block(0, shorty), std::invalid_argument);
  EXPECT_THROW(raid.cluster().fail_node(99), std::invalid_argument);
}

TEST(RaidArray, DegradedReadAfterTwoFailures) {
  RaidArray raid = make_array();
  std::vector<std::vector<std::uint8_t>> written;
  for (std::size_t lba = 0; lba < raid.capacity_blocks(); ++lba) {
    written.push_back(testutil::random_vector(kBlock, 100 + lba));
    raid.write_block(lba, written.back());
  }
  raid.cluster().fail_node(0);
  raid.cluster().fail_node(3);
  for (std::size_t lba = 0; lba < raid.capacity_blocks(); ++lba)
    ASSERT_EQ(raid.read_block(lba), written[lba]) << "lba " << lba;
  EXPECT_GT(raid.cluster().stats().degraded_reads, 0u);
}

TEST(RaidArray, WritesWhileDegradedUseFullStripePath) {
  RaidArray raid = make_array();
  raid.cluster().fail_node(2);
  const auto data = testutil::random_vector(kBlock, 4);
  for (std::size_t lba = 0; lba < 8; ++lba) raid.write_block(lba, data);
  EXPECT_GT(raid.cluster().stats().full_stripe_writes, 0u);
  for (std::size_t lba = 0; lba < 8; ++lba)
    ASSERT_EQ(raid.read_block(lba), data);
}

TEST(RaidArray, RebuildRestoresRedundancy) {
  RaidArray raid = make_array();
  std::vector<std::vector<std::uint8_t>> written;
  for (std::size_t lba = 0; lba < raid.capacity_blocks(); ++lba) {
    written.push_back(testutil::random_vector(kBlock, 200 + lba));
    raid.write_block(lba, written.back());
  }
  raid.cluster().fail_node(1);
  raid.cluster().revive_node(1);
  const std::size_t rebuilt = raid.cluster().repair();
  EXPECT_GT(rebuilt, 0u);
  EXPECT_EQ(raid.verify(), 0u);

  // Redundancy is back: a different double failure is survivable.
  raid.cluster().fail_node(0);
  raid.cluster().fail_node(4);
  for (std::size_t lba = 0; lba < raid.capacity_blocks(); ++lba)
    ASSERT_EQ(raid.read_block(lba), written[lba]);
}

TEST(RaidArray, RebuildIsIdempotent) {
  RaidArray raid = make_array();
  raid.write_block(0, testutil::random_vector(kBlock, 5));
  raid.cluster().fail_node(2);
  raid.cluster().revive_node(2);
  EXPECT_GT(raid.cluster().repair(), 0u);
  EXPECT_EQ(raid.cluster().repair(), 0u);
}

TEST(RaidArray, TripleFailureIsFatalForReads) {
  RaidArray raid = make_array();
  raid.write_block(0, testutil::random_vector(kBlock, 6));
  raid.cluster().fail_node(0);
  raid.cluster().fail_node(1);
  raid.cluster().fail_node(2);
  // Some stripe placement puts >2 of these on one stripe -> unrecoverable.
  bool any_failure = false;
  for (std::size_t lba = 0; lba < raid.capacity_blocks(); ++lba) {
    try {
      raid.read_block(lba);
    } catch (const std::runtime_error&) {
      any_failure = true;
    }
  }
  EXPECT_TRUE(any_failure);
}

struct RaidGeometry {
  ec::CodeParams params;
  std::size_t block;
};

class RaidGeometryTest : public ::testing::TestWithParam<RaidGeometry> {};

/// Full write-fail-rebuild cycle across code shapes and field sizes.
TEST_P(RaidGeometryTest, WriteFailRebuildCycle) {
  const auto& [params, block] = GetParam();
  RaidArray raid(params, block, 6);
  std::vector<std::vector<std::uint8_t>> written;
  for (std::size_t lba = 0; lba < raid.capacity_blocks(); ++lba) {
    written.push_back(testutil::random_vector(block, 1000 + lba));
    raid.write_block(lba, written.back());
  }
  EXPECT_EQ(raid.verify(), 0u);

  // Fail r devices, read and verify everything degraded (some stripe
  // has all r parities down), rebuild, verify.
  for (std::size_t d = 0; d < params.r; ++d) raid.cluster().fail_node(d);
  for (std::size_t lba = 0; lba < raid.capacity_blocks(); ++lba)
    ASSERT_EQ(raid.read_block(lba), written[lba]);
  EXPECT_EQ(raid.verify(), 0u);
  for (std::size_t d = 0; d < params.r; ++d) raid.cluster().revive_node(d);
  EXPECT_GT(raid.cluster().repair(), 0u);
  EXPECT_EQ(raid.verify(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RaidGeometryTest,
    ::testing::Values(RaidGeometry{{4, 2, 8}, 512},
                      RaidGeometry{{3, 3, 8}, 256},
                      RaidGeometry{{4, 1, 8}, 1024},   // RAID-5-like
                      RaidGeometry{{4, 2, 4}, 320},
                      RaidGeometry{{3, 2, 16}, 1024}),
    [](const auto& info) {
      return "k" + std::to_string(info.param.params.k) + "r" +
             std::to_string(info.param.params.r) + "w" +
             std::to_string(info.param.params.w);
    });

/// Model-based fuzz: random writes, reads, failures, replacements and
/// rebuilds against a flat in-memory oracle. Invariant: while at most r
/// devices are failed, every read matches the oracle.
TEST(RaidArray, RandomizedWorkloadMatchesOracle) {
  const ec::CodeParams params{5, 2, 8};
  const std::size_t stripes = 12;
  RaidArray raid(params, kBlock, stripes);
  std::vector<std::vector<std::uint8_t>> oracle(
      raid.capacity_blocks(), std::vector<std::uint8_t>(kBlock, 0));

  std::mt19937_64 rng(2024);
  std::vector<std::size_t> failed;
  for (int step = 0; step < 600; ++step) {
    const int op = static_cast<int>(rng() % 100);
    if (op < 50) {  // write
      const std::size_t lba = rng() % raid.capacity_blocks();
      std::vector<std::uint8_t> data(kBlock);
      for (auto& b : data) b = static_cast<std::uint8_t>(rng());
      raid.write_block(lba, data);
      oracle[lba] = std::move(data);
    } else if (op < 85) {  // read
      const std::size_t lba = rng() % raid.capacity_blocks();
      ASSERT_EQ(raid.read_block(lba), oracle[lba]) << "step " << step;
    } else if (op < 93) {  // fail a device (keep <= r failed)
      if (failed.size() < params.r) {
        const std::size_t dev = rng() % raid.cluster().num_nodes();
        if (!raid.cluster().node_failed(dev)) {
          raid.cluster().fail_node(dev);
          failed.push_back(dev);
        }
      }
    } else {  // replace + rebuild one failed device
      if (!failed.empty()) {
        const std::size_t dev = failed.back();
        failed.pop_back();
        raid.cluster().revive_node(dev);
        raid.cluster().repair();
      }
    }
  }
  // Drain failures and do a final full verification.
  for (const std::size_t dev : failed) raid.cluster().revive_node(dev);
  raid.cluster().repair();
  EXPECT_EQ(raid.verify(), 0u);
  for (std::size_t lba = 0; lba < raid.capacity_blocks(); ++lba)
    ASSERT_EQ(raid.read_block(lba), oracle[lba]);
}

}  // namespace
}  // namespace tvmec::cluster
