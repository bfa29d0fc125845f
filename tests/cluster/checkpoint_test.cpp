#include "cluster/checkpoint.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "cluster/repair.h"

namespace tvmec::cluster {
namespace {

using storage::FaultInjector;
using storage::FaultPolicy;

constexpr std::size_t kCapacity = 1024;

CheckpointManager make_manager() {
  return CheckpointManager(ec::CodeParams{4, 2, 8}, kCapacity);
}

std::vector<std::vector<std::uint8_t>> make_shards(std::size_t k,
                                                   std::uint64_t seed,
                                                   std::size_t size = kCapacity) {
  std::vector<std::vector<std::uint8_t>> shards;
  for (std::size_t i = 0; i < k; ++i)
    shards.push_back(testutil::random_vector(size, seed + i));
  return shards;
}

std::vector<std::span<const std::uint8_t>> spans_of(
    const std::vector<std::vector<std::uint8_t>>& shards) {
  return {shards.begin(), shards.end()};
}

/// The cluster's own view of the checkpoint stripe: units that are
/// missing, corrupt or on an unusable node.
std::size_t erased_units(CheckpointManager& mgr) {
  Cluster& cl = mgr.cluster();
  return cl.repairer().stripe_health(cl.object_names().front(), 0).erased;
}

TEST(CheckpointManager, Construction) {
  EXPECT_NO_THROW(make_manager());
  // 1001 is not a multiple of w = 8, so it is not a valid shard size.
  EXPECT_THROW(CheckpointManager(ec::CodeParams{4, 2, 8}, 1001),
               std::invalid_argument);
}

TEST(CheckpointManager, VersionsIncrease) {
  CheckpointManager mgr = make_manager();
  EXPECT_FALSE(mgr.latest_version().has_value());
  const auto shards = make_shards(4, 1);
  const auto v1 = mgr.checkpoint(spans_of(shards));
  // Version v stores unit u on node (u + v - 1) % n.
  const std::string name = mgr.cluster().object_names().front();
  for (std::size_t u = 0; u < 6; ++u)
    EXPECT_EQ(mgr.cluster().placement(name, 0)[u], u);
  const auto v2 = mgr.checkpoint(spans_of(shards));
  for (std::size_t u = 0; u < 6; ++u)
    EXPECT_EQ(mgr.cluster().placement(name, 0)[u], (u + 1) % 6);
  EXPECT_LT(v1, v2);
  EXPECT_EQ(mgr.latest_version(), v2);
}

TEST(CheckpointManager, RecoverWithoutLossReturnsOriginal) {
  CheckpointManager mgr = make_manager();
  const auto shards = make_shards(4, 2);
  mgr.checkpoint(spans_of(shards));
  for (std::size_t rank = 0; rank < 4; ++rank)
    EXPECT_EQ(mgr.recover_shard(rank), shards[rank]);
}

TEST(CheckpointManager, RecoversLostRanks) {
  CheckpointManager mgr = make_manager();
  const auto shards = make_shards(4, 3);
  mgr.checkpoint(spans_of(shards));

  mgr.lose_rank(1);
  mgr.lose_rank(3);
  EXPECT_EQ(erased_units(mgr), 2u);
  EXPECT_EQ(mgr.cluster().stats().units_lost_on_revive, 2u);

  for (std::size_t rank = 0; rank < 4; ++rank)
    EXPECT_EQ(mgr.recover_shard(rank), shards[rank]) << "rank " << rank;
}

TEST(CheckpointManager, VariableShardSizesPreserved) {
  CheckpointManager mgr = make_manager();
  std::vector<std::vector<std::uint8_t>> shards;
  shards.push_back(testutil::random_vector(100, 10));
  shards.push_back(testutil::random_vector(kCapacity, 11));
  shards.push_back(testutil::random_vector(0, 12));  // empty shard
  shards.push_back(testutil::random_vector(777, 13));
  mgr.checkpoint(spans_of(shards));
  mgr.lose_rank(0);
  mgr.lose_rank(3);
  for (std::size_t rank = 0; rank < 4; ++rank)
    EXPECT_EQ(mgr.recover_shard(rank), shards[rank]) << "rank " << rank;
}

TEST(CheckpointManager, TooManyLossesThrow) {
  CheckpointManager mgr = make_manager();
  const auto shards = make_shards(4, 4);
  mgr.checkpoint(spans_of(shards));
  mgr.lose_rank(0);
  mgr.lose_rank(1);
  mgr.lose_rank(2);  // r = 2
  EXPECT_THROW(mgr.recover_shard(0), std::runtime_error);
}

TEST(CheckpointManager, Validation) {
  CheckpointManager mgr = make_manager();
  EXPECT_THROW(mgr.lose_rank(0), std::logic_error);  // nothing checkpointed
  EXPECT_THROW(mgr.recover_shard(0), std::logic_error);

  auto shards = make_shards(3, 5);  // wrong count
  EXPECT_THROW(mgr.checkpoint(spans_of(shards)), std::invalid_argument);

  auto oversize = make_shards(4, 6, kCapacity + 8);
  EXPECT_THROW(mgr.checkpoint(spans_of(oversize)), std::invalid_argument);

  mgr.checkpoint(spans_of(make_shards(4, 7)));
  EXPECT_THROW(mgr.lose_rank(4), std::invalid_argument);
  EXPECT_THROW(mgr.recover_shard(4), std::invalid_argument);
}

TEST(CheckpointManager, NewCheckpointResetsLosses) {
  CheckpointManager mgr = make_manager();
  const auto shards1 = make_shards(4, 8);
  mgr.checkpoint(spans_of(shards1));
  mgr.lose_rank(0);

  const auto shards2 = make_shards(4, 9);
  mgr.checkpoint(spans_of(shards2));
  EXPECT_EQ(erased_units(mgr), 0u);
  EXPECT_EQ(mgr.recover_shard(0), shards2[0]);
}

TEST(CheckpointManager, RepeatedRecoveryIsStable) {
  CheckpointManager mgr = make_manager();
  const auto shards = make_shards(4, 10);
  mgr.checkpoint(spans_of(shards));
  mgr.lose_rank(2);
  EXPECT_EQ(mgr.recover_shard(2), shards[2]);
  EXPECT_EQ(mgr.recover_shard(2), shards[2]);
  EXPECT_EQ(mgr.recover_shard(1), shards[1]);
}

TEST(CheckpointManager, TooManyLossesMessageIsActionable) {
  CheckpointManager mgr = make_manager();
  mgr.checkpoint(spans_of(make_shards(4, 20)));
  mgr.lose_rank(0);
  mgr.lose_rank(1);
  mgr.lose_rank(2);  // r = 2
  try {
    mgr.recover_shard(3);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("recover_shard"), std::string::npos) << msg;
    EXPECT_NE(msg.find("3"), std::string::npos) << msg;    // how many lost
    EXPECT_NE(msg.find("r=2"), std::string::npos) << msg;  // the tolerance
  }
}

TEST(CheckpointManager, RecoveryHealsTheStripeInPlace) {
  CheckpointManager mgr = make_manager();
  const ClusterStats& stats = mgr.cluster().stats();
  const auto shards = make_shards(4, 21);
  mgr.checkpoint(spans_of(shards));
  mgr.lose_rank(0);
  mgr.lose_rank(2);
  EXPECT_EQ(mgr.recover_shard(0), shards[0]);
  // The first recovery rebuilt *both* lost units.
  EXPECT_EQ(stats.units_repaired, 2u);
  EXPECT_EQ(erased_units(mgr), 0u);
  EXPECT_EQ(mgr.recover_shard(2), shards[2]);
  EXPECT_EQ(stats.units_repaired, 2u);  // nothing left to repair
}

TEST(CheckpointManager, RankCrashDuringCheckpointIsSurvivable) {
  CheckpointManager mgr = make_manager();
  Cluster& cl = mgr.cluster();
  FaultInjector inj;
  cl.attach_fault_injector(&inj);
  inj.crash_node(1);  // rank 1's node dies before the checkpoint lands
  const auto shards = make_shards(4, 22);
  mgr.checkpoint(spans_of(shards));
  // Its unit was never stored. With no spare node it cannot be rebuilt
  // yet, but every shard still comes back through a degraded read.
  for (std::size_t rank = 0; rank < 4; ++rank)
    EXPECT_EQ(mgr.recover_shard(rank), shards[rank]) << "rank " << rank;
  EXPECT_GE(cl.stats().degraded_reads, 1u);
  EXPECT_EQ(cl.stats().units_repaired, 0u);
  // The replacement node joins empty: the next recovery rebuilds onto it.
  cl.revive_node(1);
  EXPECT_EQ(mgr.recover_shard(1), shards[1]);
  EXPECT_GE(cl.stats().units_repaired, 1u);
  EXPECT_EQ(erased_units(mgr), 0u);
}

TEST(CheckpointManager, SilentShardCorruptionIsDetectedAndHealed) {
  CheckpointManager mgr = make_manager();
  // Seed chosen so 1-2 (<= r) of the 6 units get flipped this checkpoint.
  FaultInjector inj(FaultPolicy{}, 2);
  mgr.cluster().attach_fault_injector(&inj);
  FaultPolicy faults;
  faults.write_bit_flip = 0.25;
  inj.set_policy(faults);
  const auto shards = make_shards(4, 23);
  mgr.checkpoint(spans_of(shards));
  inj.set_policy(FaultPolicy{});
  ASSERT_GE(inj.stats().writes_corrupted, 1u);
  ASSERT_LE(inj.stats().writes_corrupted, 2u);

  for (std::size_t rank = 0; rank < 4; ++rank)
    EXPECT_EQ(mgr.recover_shard(rank), shards[rank]) << "rank " << rank;
  const ClusterStats& stats = mgr.cluster().stats();
  EXPECT_EQ(stats.corruptions_detected, inj.stats().writes_corrupted);
  EXPECT_EQ(stats.units_repaired, inj.stats().writes_corrupted);
}

TEST(CheckpointManager, TransientReadErrorsAreRetriedAway) {
  CheckpointManager mgr = make_manager();
  Cluster& cl = mgr.cluster();
  FaultInjector inj;
  cl.attach_fault_injector(&inj);
  storage::RetryPolicy retry;
  retry.max_attempts = 6;
  cl.set_retry_policy(retry);
  const auto shards = make_shards(4, 24);
  mgr.checkpoint(spans_of(shards));

  FaultPolicy faults;
  // Short bursts against a generous attempt budget (and a seed checked to
  // stay under it): retries always win, reconstruction never triggers.
  faults.transient_read = 0.4;
  faults.transient_failures = 1;
  inj.set_policy(faults);
  for (std::size_t rank = 0; rank < 4; ++rank)
    EXPECT_EQ(mgr.recover_shard(rank), shards[rank]) << "rank " << rank;
  EXPECT_GT(cl.retry_stats().retries, 0u);
  EXPECT_EQ(cl.retry_stats().exhausted, 0u);
  EXPECT_EQ(cl.stats().units_repaired, 0u);  // nothing was actually lost
}

}  // namespace
}  // namespace tvmec::cluster
