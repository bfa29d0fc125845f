#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <tuple>

#include "../test_util.h"
#include "cluster/checkpoint.h"
#include "cluster/cluster.h"
#include "cluster/raid_array.h"
#include "cluster/scrubber.h"
#include "storage/crc32c.h"

/// End-to-end chaos: drive the storage stack through a seeded
/// fault-injection campaign — silent write corruption, transient read
/// errors, node crashes — then scrub, heal, and assert that (a) every
/// byte survives, (b) the stats books balance exactly against the
/// injector's own accounting, and (c) the whole ordeal is bit-for-bit
/// reproducible from the seed.
namespace tvmec::storage {
namespace {

using cluster::CheckpointManager;
using cluster::Cluster;
using cluster::RaidArray;
using cluster::Scrubber;
using cluster::ScrubStats;

constexpr std::size_t kUnit = 512;
constexpr std::size_t kStripeData = 4 * kUnit;  // k = 4

/// Everything a chaos run observes, for run-vs-run comparison.
struct ChaosOutcome {
  std::vector<std::uint32_t> content_crcs;
  FaultStats faults;
  cluster::ClusterStats store;
  ScrubStats scrub;
  RetryStats retries;
  std::size_t degraded_under_transients = 0;
  std::size_t repaired_after_crash = 0;

  bool operator==(const ChaosOutcome& o) const {
    const auto fields = [](const ChaosOutcome& c) {
      return std::make_tuple(
          c.content_crcs, c.faults.reads, c.faults.writes,
          c.faults.write_bit_flips, c.faults.torn_writes,
          c.faults.writes_corrupted, c.faults.read_bit_flips,
          c.faults.transient_bursts, c.faults.transient_errors,
          c.faults.crashes, c.store.degraded_reads, c.store.units_repaired,
          c.store.corruptions_detected, c.store.units_lost_on_revive,
          c.scrub.stripes_scanned, c.scrub.crc_errors, c.scrub.units_repaired,
          c.scrub.unrecoverable_stripes, c.retries.attempts,
          c.retries.retries, c.retries.exhausted,
          c.degraded_under_transients, c.repaired_after_crash);
    };
    return fields(*this) == fields(o);
  }
};

/// The full object-store chaos scenario, parameterized only by seed.
ChaosOutcome cluster_chaos(std::uint64_t seed) {
  Cluster store(ec::CodeParams{4, 2, 8}, kUnit, {.num_nodes = 8});
  FaultInjector inj(FaultPolicy{}, seed);
  store.attach_fault_injector(&inj);
  RetryPolicy retry;
  retry.max_attempts = 6;
  store.set_retry_policy(retry);

  // Phase 1 — ingest under silent write corruption. Object sizes are
  // exact stripe multiples so every stored byte is checksummed payload.
  FaultPolicy write_faults;
  write_faults.write_bit_flip = 0.03;
  write_faults.torn_write = 0.02;
  inj.set_policy(write_faults);
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> objects;
  for (std::size_t i = 1; i <= 10; ++i) {
    const std::string name = "obj" + std::to_string(i);
    objects.emplace_back(name, testutil::random_vector(i * kStripeData, i));
    store.put(name, objects.back().second);
  }

  // Phase 2 — a clean scrub pass finds *exactly* the units the injector
  // corrupted, and heals every one of them.
  inj.set_policy(FaultPolicy{});
  Scrubber scrubber(store);
  ChaosOutcome out;
  // Small steps, to run the cursor through many resume points.
  while (scrubber.passes_completed() == 0) scrubber.step(3);
  out.scrub = scrubber.last_pass();

  // Phase 3 — transient read errors: retries absorb them with no
  // degraded reads and no spurious repairs.
  FaultPolicy transient;
  transient.transient_read = 0.2;
  transient.transient_failures = 1;
  inj.set_policy(transient);
  const std::size_t degraded_before = store.stats().degraded_reads;
  for (const auto& [name, content] : objects) {
    const auto got = store.get(name);
    if (!got || *got != content) ADD_FAILURE() << name << " under transients";
  }
  out.degraded_under_transients =
      store.stats().degraded_reads - degraded_before;
  inj.set_policy(FaultPolicy{});

  // Phase 4 — two node crashes (= r): reads route around them, the
  // revives record what the crashes destroyed, and repair() rebuilds it.
  inj.crash_node(2);
  inj.crash_node(5);
  for (const auto& [name, content] : objects) {
    const auto got = store.get(name);
    if (!got || *got != content) ADD_FAILURE() << name << " after crashes";
  }
  store.revive_node(2);
  store.revive_node(5);
  out.repaired_after_crash = store.repair();

  // Final state: fully healed, every byte intact.
  for (const auto& [name, content] : objects) {
    const auto got = store.get(name);
    if (!got || *got != content) ADD_FAILURE() << name << " after heal";
    out.content_crcs.push_back(crc32c(*got));
  }
  out.faults = inj.stats();
  out.store = store.stats();
  out.retries = store.retry_stats();
  return out;
}

// Campaign seeds are screened so the random corruption stays within
// every stripe's r-unit tolerance; an unlucky seed would (correctly)
// leave unrecoverable stripes, which is a different test.
constexpr std::uint64_t kCampaignSeed = 1;
constexpr std::uint64_t kAltCampaignSeed = 2;

TEST(Chaos, ClusterSurvivesTheCampaign) {
  const ChaosOutcome out = cluster_chaos(kCampaignSeed);

  // The injector corrupted writes; nothing else did. The scrub ran
  // before any read, so the store detected each corrupt unit exactly
  // once — the books must balance to the unit.
  ASSERT_GT(out.faults.writes_corrupted, 0u) << "campaign was a no-op";
  EXPECT_EQ(out.scrub.crc_errors, out.faults.writes_corrupted);
  EXPECT_EQ(out.scrub.units_repaired, out.faults.writes_corrupted);
  EXPECT_EQ(out.scrub.unrecoverable_stripes, 0u);
  EXPECT_EQ(out.scrub.stripes_scanned, 55u);  // sum 1..10 stripes
  EXPECT_EQ(out.store.corruptions_detected, out.faults.writes_corrupted);

  // Transients were retried away, never reconstructed around. The
  // scrub CRCs each stored copy on its node and does no retried reads,
  // so no retry budget runs out anywhere in the campaign.
  EXPECT_GT(out.faults.transient_errors, 0u);
  EXPECT_GT(out.retries.retries, 0u);
  EXPECT_EQ(out.retries.exhausted, 0u);
  EXPECT_EQ(out.degraded_under_transients, 0u);

  // The two crashes degraded reads, and repair() healed what they took.
  EXPECT_EQ(out.faults.crashes, 2u);
  EXPECT_GT(out.store.degraded_reads, 0u);
  EXPECT_GT(out.store.units_lost_on_revive, 0u);
  EXPECT_GT(out.repaired_after_crash, 0u);
  EXPECT_EQ(out.store.units_repaired,
            out.scrub.units_repaired + out.repaired_after_crash);
}

TEST(Chaos, ClusterCampaignIsDeterministic) {
  const ChaosOutcome a = cluster_chaos(kCampaignSeed);
  const ChaosOutcome b = cluster_chaos(kCampaignSeed);
  EXPECT_TRUE(a == b);

  const ChaosOutcome c = cluster_chaos(kAltCampaignSeed);
  // A different seed yields a different campaign (contents still intact).
  EXPECT_EQ(c.content_crcs, a.content_crcs);
  EXPECT_FALSE(c.faults.write_bit_flips == a.faults.write_bit_flips &&
               c.faults.torn_writes == a.faults.torn_writes &&
               c.faults.transient_errors == a.faults.transient_errors);
}

/// ClusterCampaignIsDeterministic compares two runs of one binary, so a
/// change to the order or number of injector calls would still pass it.
/// This pins the seed-1 outcome itself: a storage-path change that keeps
/// it replays every seeded campaign recorded before it. Phase 4's 48
/// degraded stripe reads fetch k = 4 units each: the live carried units
/// and one parity per lost one, 192 reads and retry attempts in all.
TEST(Chaos, ClusterCampaignSeed1OutcomeIsPinned) {
  const ChaosOutcome out = cluster_chaos(kCampaignSeed);
  EXPECT_EQ(out.faults.reads, 967u);
  EXPECT_EQ(out.faults.writes, 422u);
  EXPECT_EQ(out.faults.write_bit_flips, 7u);
  EXPECT_EQ(out.faults.torn_writes, 2u);
  EXPECT_EQ(out.faults.writes_corrupted, 9u);
  EXPECT_EQ(out.faults.read_bit_flips, 0u);
  EXPECT_EQ(out.faults.transient_bursts, 55u);
  EXPECT_EQ(out.faults.transient_errors, 55u);
  EXPECT_EQ(out.faults.crashes, 2u);

  EXPECT_EQ(out.store.degraded_reads, 48u);
  EXPECT_EQ(out.store.units_repaired, 92u);
  EXPECT_EQ(out.store.corruptions_detected, 9u);
  EXPECT_EQ(out.store.units_lost_on_revive, 83u);

  EXPECT_EQ(out.scrub.stripes_scanned, 55u);
  EXPECT_EQ(out.scrub.crc_errors, 9u);
  EXPECT_EQ(out.scrub.units_repaired, 9u);
  EXPECT_EQ(out.scrub.unrecoverable_stripes, 0u);

  EXPECT_EQ(out.retries.attempts, 1578u);
  EXPECT_EQ(out.retries.retries, 55u);
  EXPECT_EQ(out.retries.exhausted, 0u);

  EXPECT_EQ(out.degraded_under_transients, 0u);
  EXPECT_EQ(out.repaired_after_crash, 83u);
}

TEST(Chaos, RaidArrayReadFaultsAndLatentCorruption) {
  const auto run = [](std::uint64_t seed) {
    RaidArray raid(ec::CodeParams{4, 2, 8}, 256, 16);
    Cluster& cl = raid.cluster();
    FaultInjector inj(FaultPolicy{}, seed);
    cl.attach_fault_injector(&inj);
    RetryPolicy retry;
    retry.max_attempts = 8;
    cl.set_retry_policy(retry);

    // Clean ingest; the oracle is the block contents themselves.
    std::vector<std::vector<std::uint8_t>> oracle;
    for (std::size_t lba = 0; lba < raid.capacity_blocks(); ++lba) {
      oracle.push_back(testutil::random_vector(256, 1000 + lba));
      raid.write_block(lba, oracle.back());
    }

    // Read-side chaos: flips and transients on every block read. CRCs
    // catch the flips, retries re-read, and when a unit exhausts its
    // budget parity reconstruction (itself CRC-verified) steps in —
    // either way the caller sees correct bytes.
    FaultPolicy read_faults;
    read_faults.read_bit_flip = 0.2;
    read_faults.transient_read = 0.1;
    read_faults.transient_failures = 1;
    inj.set_policy(read_faults);
    for (std::size_t lba = 0; lba < raid.capacity_blocks(); ++lba)
      EXPECT_EQ(raid.read_block(lba), oracle[lba]) << "lba " << lba;
    EXPECT_GT(cl.retry_stats().retries, 0u);
    inj.set_policy(FaultPolicy{});

    // Latent corruption: up to r units per stripe, found by one scrub.
    std::mt19937_64 rng(seed);
    std::size_t planted = 0;
    for (std::size_t s = 0; s < raid.num_stripes(); s += 2) {
      // 1 or 2 (= r) *distinct* units — the corrupt hook toggles a bit,
      // so hitting the same unit twice would cancel out.
      const std::size_t first = rng() % 6;
      planted += raid.corrupt_unit(s, first) ? 1 : 0;
      if (rng() % 2 == 0)
        planted += raid.corrupt_unit(s, (first + 1 + rng() % 5) % 6) ? 1 : 0;
    }
    Scrubber scrubber(cl);
    const ScrubStats pass = scrubber.run();
    EXPECT_GT(planted, 0u);
    EXPECT_EQ(pass.crc_errors, planted);
    EXPECT_EQ(pass.units_repaired, planted);
    EXPECT_EQ(pass.unrecoverable_stripes, 0u);
    EXPECT_EQ(raid.verify(), 0u);

    // Crash a device mid-life; degraded reads serve, rebuild restores.
    inj.crash_node(3);
    const std::size_t degraded_before = cl.stats().degraded_reads;
    for (std::size_t lba = 0; lba < raid.capacity_blocks(); ++lba)
      EXPECT_EQ(raid.read_block(lba), oracle[lba]) << "lba " << lba;
    EXPECT_GT(cl.stats().degraded_reads, degraded_before);
    cl.revive_node(3);
    const std::size_t rebuilt = cl.repair();
    EXPECT_GT(rebuilt, 0u);
    EXPECT_EQ(raid.verify(), 0u);
    for (std::size_t lba = 0; lba < raid.capacity_blocks(); ++lba)
      EXPECT_EQ(raid.read_block(lba), oracle[lba]) << "lba " << lba;

    const auto& f = inj.stats();
    const auto& c = cl.stats();
    return std::make_tuple(f.reads, f.read_bit_flips, f.transient_errors,
                           f.crashes, c.degraded_reads, rebuilt,
                           c.corruptions_detected, c.units_repaired,
                           cl.retry_stats().attempts,
                           cl.retry_stats().retries);
  };
  const auto a = run(0xD15C);
  const auto b = run(0xD15C);
  EXPECT_EQ(a, b);
}

TEST(Chaos, CheckpointRecoveryUnderCombinedFaults) {
  const auto run = [](std::uint64_t seed) {
    CheckpointManager mgr(ec::CodeParams{4, 2, 8}, 1024);
    Cluster& cl = mgr.cluster();
    FaultInjector inj(FaultPolicy{}, seed);
    cl.attach_fault_injector(&inj);
    RetryPolicy retry;
    retry.max_attempts = 6;
    cl.set_retry_policy(retry);

    std::vector<std::vector<std::uint8_t>> shards;
    for (std::size_t i = 0; i < 4; ++i)
      shards.push_back(testutil::random_vector(1024, seed + i));
    const std::vector<std::span<const std::uint8_t>> spans{shards.begin(),
                                                           shards.end()};

    // A rank dies mid-checkpoint; the checkpoint still lands (degraded).
    inj.crash_node(1);
    mgr.checkpoint(spans);
    inj.repair_node(1);

    // Recovery under transient read errors: the budget absorbs them.
    FaultPolicy transient;
    transient.transient_read = 0.3;
    transient.transient_failures = 1;
    inj.set_policy(transient);
    for (std::size_t rank = 0; rank < 4; ++rank)
      EXPECT_EQ(mgr.recover_shard(rank), shards[rank]) << "rank " << rank;
    inj.set_policy(FaultPolicy{});

    // A later loss on the healed stripe still recovers.
    mgr.lose_rank(2);
    EXPECT_EQ(mgr.recover_shard(2), shards[2]);

    const auto& c = cl.stats();
    return std::make_tuple(*mgr.latest_version(), c.degraded_reads,
                           c.corruptions_detected, c.units_repaired,
                           inj.stats().transient_errors,
                           cl.retry_stats().retries,
                           cl.retry_stats().exhausted);
  };
  const auto a = run(0x5EED);
  EXPECT_EQ(std::get<6>(a), 0u);  // no retry budget exhausted
  EXPECT_GE(std::get<3>(a), 1u);  // the crashed rank's unit was rebuilt
  const auto b = run(0x5EED);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace tvmec::storage
