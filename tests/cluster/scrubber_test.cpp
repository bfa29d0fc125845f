#include "cluster/scrubber.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "cluster/healer.h"
#include "cluster/raid_array.h"
#include "cluster/repair.h"

namespace tvmec::cluster {
namespace {

constexpr std::size_t kUnit = 256;

Cluster make_store() {
  return Cluster(ec::CodeParams{4, 2, 8}, kUnit, {.num_nodes = 8});
}

/// `objects` objects of `stripes_each` stripes, named obj00, obj01, ...
void fill_store(Cluster& store, std::size_t objects,
                std::size_t stripes_each = 1) {
  for (std::size_t i = 0; i < objects; ++i) {
    const std::string name =
        "obj" + std::string(i < 10 ? "0" : "") + std::to_string(i);
    store.put(name, testutil::random_vector(stripes_each * 4 * kUnit, i));
  }
}

TEST(Scrubber, FullPassOverHealthyStore) {
  Cluster store = make_store();
  fill_store(store, 5, 2);
  Scrubber scrub(store);
  const ScrubStats pass = scrub.run();
  EXPECT_EQ(pass.stripes_scanned, 10u);
  EXPECT_EQ(pass.units_verified, 10u * 6);
  EXPECT_EQ(pass.bytes_verified, 10u * 6 * kUnit);
  EXPECT_EQ(pass.crc_errors, 0u);
  EXPECT_EQ(pass.units_repaired, 0u);
  EXPECT_EQ(scrub.passes_completed(), 1u);
  EXPECT_EQ(scrub.last_pass().stripes_scanned, 10u);
}

TEST(Scrubber, StepsAccumulateIntoOnePass) {
  Cluster store = make_store();
  fill_store(store, 4, 3);  // 12 stripes
  Scrubber scrub(store);
  std::size_t scanned = 0;
  std::size_t steps = 0;
  while (scrub.passes_completed() == 0) {
    const ScrubStats inc = scrub.step(5);
    scanned += inc.stripes_scanned;
    ++steps;
    ASSERT_LE(steps, 4u) << "cursor failed to advance";
  }
  EXPECT_EQ(scanned, 12u);
  EXPECT_EQ(steps, 3u);  // 5 + 5 + 2
  EXPECT_EQ(scrub.last_pass().stripes_scanned, 12u);
  EXPECT_EQ(scrub.current_pass().stripes_scanned, 0u);  // rewound
}

TEST(Scrubber, StepFindsCorruptionWhereverItHides) {
  Cluster store = make_store();
  fill_store(store, 6, 1);
  ASSERT_TRUE(store.corrupt_unit("obj00", 0, 1));
  ASSERT_TRUE(store.corrupt_unit("obj03", 0, 4));  // a parity unit
  ASSERT_TRUE(store.corrupt_unit("obj05", 0, 2));
  Scrubber scrub(store);
  ScrubStats total;
  while (scrub.passes_completed() == 0) {
    const ScrubStats inc = scrub.step(2);
    total.crc_errors += inc.crc_errors;
    total.units_repaired += inc.units_repaired;
  }
  EXPECT_EQ(total.crc_errors, 3u);
  EXPECT_EQ(total.units_repaired, 3u);
  // Second pass: everything was healed in place.
  EXPECT_EQ(scrub.run().crc_errors, 0u);
  EXPECT_EQ(scrub.passes_completed(), 2u);
}

TEST(Scrubber, CursorSurvivesObjectRemoval) {
  Cluster store = make_store();
  fill_store(store, 6, 2);
  Scrubber scrub(store);
  scrub.step(3);  // cursor now mid-store
  store.remove("obj02");
  store.remove("obj04");
  ScrubStats rest;
  while (scrub.passes_completed() == 0) {
    const ScrubStats inc = scrub.step(3);
    rest.stripes_scanned += inc.stripes_scanned;
    if (inc.stripes_scanned == 0) break;
  }
  EXPECT_EQ(scrub.passes_completed(), 1u);
  // Next full pass sees exactly the surviving 4 objects x 2 stripes.
  EXPECT_EQ(scrub.run().stripes_scanned, 8u);
}

TEST(Scrubber, CursorSeesObjectsAddedAheadOfIt) {
  Cluster store = make_store();
  fill_store(store, 3, 1);
  Scrubber scrub(store);
  scrub.step(1);  // scanned obj00
  store.put("obj99", testutil::random_vector(4 * kUnit, 99));  // after cursor
  ScrubStats rest = scrub.run();
  EXPECT_EQ(rest.stripes_scanned, 3u);  // obj01, obj02, obj99
  EXPECT_EQ(scrub.last_pass().stripes_scanned, 4u);
}

TEST(Scrubber, ResetCursorDiscardsPartialProgress) {
  Cluster store = make_store();
  fill_store(store, 4, 1);
  Scrubber scrub(store);
  scrub.step(2);
  EXPECT_EQ(scrub.current_pass().stripes_scanned, 2u);
  scrub.reset_cursor();
  EXPECT_EQ(scrub.current_pass().stripes_scanned, 0u);
  EXPECT_EQ(scrub.run().stripes_scanned, 4u);  // full pass from the top
  EXPECT_EQ(scrub.passes_completed(), 1u);
}

TEST(Scrubber, EmptyStoreCompletesTrivialPasses) {
  Cluster store = make_store();
  Scrubber scrub(store);
  const ScrubStats pass = scrub.run();
  EXPECT_EQ(pass.stripes_scanned, 0u);
  EXPECT_EQ(scrub.passes_completed(), 1u);
}

TEST(Scrubber, RaidArrayPassVerifiesAndRepairs) {
  RaidArray raid(ec::CodeParams{4, 2, 8}, kUnit, 8);
  for (std::size_t lba = 0; lba < raid.capacity_blocks(); ++lba) {
    const auto block = testutil::random_vector(kUnit, lba);
    raid.write_block(lba, block);
  }
  ASSERT_TRUE(raid.corrupt_unit(2, 1));
  ASSERT_TRUE(raid.corrupt_unit(5, 4));
  Scrubber scrub(raid.cluster());
  // Two increments that together cover the 8 stripes.
  const ScrubStats first = scrub.step(4);
  const ScrubStats second = scrub.step(8);
  EXPECT_EQ(first.stripes_scanned + second.stripes_scanned, 8u);
  EXPECT_EQ(first.crc_errors + second.crc_errors, 2u);
  EXPECT_EQ(first.units_repaired + second.units_repaired, 2u);
  EXPECT_EQ(scrub.passes_completed(), 1u);
  EXPECT_EQ(scrub.run().crc_errors, 0u);
  EXPECT_EQ(raid.verify(), 0u);
  for (std::size_t lba = 0; lba < raid.capacity_blocks(); ++lba)
    EXPECT_EQ(raid.read_block(lba), testutil::random_vector(kUnit, lba));
}

TEST(Scrubber, DegradedRaidArrayIsNotUnrecoverable) {
  // A RAID array has no spare device: with one down, every stripe
  // misses a unit that waits for the revive. Such a stripe is degraded,
  // not lost, and a latent corruption on a live device is still
  // rebuilt in place.
  RaidArray raid(ec::CodeParams{4, 2, 8}, kUnit, 8);
  for (std::size_t lba = 0; lba < raid.capacity_blocks(); ++lba)
    raid.write_block(lba, testutil::random_vector(kUnit, lba));
  Cluster& cl = raid.cluster();
  cl.fail_node(0);
  ASSERT_TRUE(raid.corrupt_unit(3, 0));  // on node (0 + 3) % 6, live
  Scrubber scrub(cl);
  const ScrubStats pass = scrub.run();
  EXPECT_EQ(pass.stripes_scanned, 8u);
  EXPECT_EQ(pass.units_verified, 8u * 5 - 1);
  EXPECT_EQ(pass.crc_errors, 1u);
  EXPECT_EQ(pass.units_repaired, 1u);
  EXPECT_EQ(pass.unrecoverable_stripes, 0u);
  EXPECT_TRUE(cl.repair_stats().identity_holds());
  for (std::size_t lba = 0; lba < raid.capacity_blocks(); ++lba)
    EXPECT_EQ(raid.read_block(lba), testutil::random_vector(kUnit, lba));

  // The device comes back empty; repair refills one unit per stripe.
  cl.revive_node(0);
  EXPECT_EQ(cl.repair(), 8u);
  EXPECT_EQ(raid.verify(), 0u);
  EXPECT_EQ(scrub.run().units_verified, 8u * 6);
}

TEST(Scrubber, UnrecoverableStripeIsCountedNotThrown) {
  Cluster store = make_store();
  fill_store(store, 2, 1);
  // Three corrupt units in one stripe beats r = 2.
  ASSERT_TRUE(store.corrupt_unit("obj00", 0, 0));
  ASSERT_TRUE(store.corrupt_unit("obj00", 0, 1));
  ASSERT_TRUE(store.corrupt_unit("obj00", 0, 2));
  Scrubber scrub(store);
  const ScrubStats pass = scrub.run();
  EXPECT_EQ(pass.unrecoverable_stripes, 1u);
  EXPECT_EQ(pass.units_repaired, 0u);
  // The healthy object is unaffected.
  EXPECT_EQ(store.get("obj01"), testutil::random_vector(4 * kUnit, 1));
}

TEST(Scrubber, FeedsTheHealerInsteadOfRepairingInline) {
  Cluster store = make_store();
  Healer healer(store, nullptr);
  fill_store(store, 5, 2);
  ASSERT_TRUE(store.corrupt_unit("obj00", 1, 0));
  ASSERT_TRUE(store.corrupt_unit("obj02", 0, 5));  // a parity unit
  ASSERT_TRUE(store.corrupt_unit("obj04", 1, 3));
  Scrubber scrub(store);
  ScrubStats total;
  while (scrub.passes_completed() == 0) {
    const ScrubStats inc = scrub.step(3);
    total.crc_errors += inc.crc_errors;
    total.units_repaired += inc.units_repaired;
  }
  // Each planted corruption is one finding on the healer's queue; the
  // scrubber itself rewrote nothing.
  EXPECT_EQ(total.crc_errors, 3u);
  EXPECT_EQ(total.units_repaired, 0u);
  EXPECT_EQ(healer.events_of(DamageKind::ScrubFinding), 3u);
  EXPECT_EQ(healer.stats().events_reported, 3u);
  EXPECT_EQ(healer.pending(), 3u);
  EXPECT_EQ(store.stats().units_repaired, 0u);

  ASSERT_TRUE(healer.run_until_idle(16));
  EXPECT_EQ(healer.stats().repaired, 3u);
  EXPECT_EQ(healer.stats().units_repaired, 3u);
  EXPECT_TRUE(healer.identity_holds());
  const ScrubStats clean = scrub.run();
  EXPECT_EQ(clean.crc_errors, 0u);
  EXPECT_EQ(clean.units_verified, 10u * 6);
  EXPECT_EQ(healer.pending(), 0u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(store.get("obj0" + std::to_string(i)),
              testutil::random_vector(2 * 4 * kUnit, i));
}

}  // namespace
}  // namespace tvmec::cluster
