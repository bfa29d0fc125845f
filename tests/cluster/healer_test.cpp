#include "cluster/healer.h"

#include <gtest/gtest.h>

#include <vector>

#include "../test_util.h"
#include "cluster/repair.h"
#include "storage/fault_injector.h"

namespace tvmec::cluster {
namespace {

constexpr std::size_t kUnit = 512;

ClusterConfig make_config(std::size_t nodes, std::size_t domains) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.num_domains = domains;
  return cfg;
}

void expect_identities(const Healer& healer) {
  EXPECT_TRUE(healer.identity_holds());
  const HealerStats& s = healer.stats();
  EXPECT_EQ(s.events_reported, s.events_enqueued + s.events_coalesced);
}

TEST(Healer, ScrubFindingsHealViaQueue) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  Healer healer(cluster, nullptr);
  const auto payload = testutil::random_vector(2 * 4 * kUnit, 11);
  cluster.put("obj", payload);
  ASSERT_TRUE(cluster.corrupt_unit("obj", 0, 1));
  ASSERT_TRUE(cluster.corrupt_unit("obj", 1, 4));

  // With a sink attached, scrub discovers and *reports* — nothing is
  // repaired inline.
  EXPECT_EQ(cluster.scrub(), 2u);
  EXPECT_EQ(healer.events_of(DamageKind::ScrubFinding), 2u);
  EXPECT_EQ(healer.pending(), 2u);
  EXPECT_EQ(cluster.stats().units_repaired, 0u);

  ASSERT_TRUE(healer.run_until_idle(16));
  EXPECT_EQ(healer.stats().repaired, 2u);
  EXPECT_EQ(cluster.stats().units_repaired, 2u);
  EXPECT_EQ(cluster.scrub(), 0u);
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  expect_identities(healer);
}

// Satellite: a CRC-corrupt unit discovered by a degraded get() must
// produce a damage event, not just a counter bump.
TEST(Healer, DegradedGetReportsReadCorruption) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  Healer healer(cluster, nullptr);
  const auto payload = testutil::random_vector(4 * kUnit, 23);
  cluster.put("obj", payload);
  ASSERT_TRUE(cluster.corrupt_unit("obj", 0, 0));  // persisted, a data unit

  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);  // decoded through survivors
  EXPECT_EQ(cluster.stats().degraded_reads, 1u);
  EXPECT_EQ(healer.events_of(DamageKind::ReadCorruption), 1u);
  EXPECT_EQ(healer.pending(), 1u);

  ASSERT_TRUE(healer.run_until_idle(16));
  EXPECT_EQ(healer.stats().repaired, 1u);
  EXPECT_EQ(cluster.scrub(), 0u);  // the persisted corruption is gone
  expect_identities(healer);
}

// A short stripe's padding has no stored copy: with no membership
// attached, a padding holder going down is no loss for the get, the
// scrub or the healer to find. A later parity loss is the stripe's only
// loss, rebuilt from its one carried unit.
TEST(Healer, GetReportsDownPaddingHolderWithoutMembership) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  storage::FaultInjector injector;  // quiet: counts the helper reads
  cluster.attach_fault_injector(&injector);
  Healer healer(cluster, nullptr);
  const auto payload = testutil::random_vector(kUnit, 41);  // unit 0 only
  cluster.put("obj", payload);

  // The holders of padding units 1 and 2 die one after the other. The
  // get after each stays undegraded, no event is raised and nothing is
  // repaired.
  for (const std::size_t u : {std::size_t{1}, std::size_t{2}}) {
    cluster.fail_node(cluster.placement("obj", 0)[u]);
    EXPECT_EQ(cluster.get("obj"), payload);
    EXPECT_EQ(cluster.stats().degraded_reads, 0u);
    EXPECT_EQ(cluster.scrub(), 0u);
    EXPECT_EQ(healer.stats().events_reported, 0u);
    ASSERT_TRUE(healer.run_until_idle(16));
    EXPECT_EQ(healer.stats().repaired, 0u);
  }
  // Then a parity holder: a get reads no parity, so the scrub finds it.
  // It is the stripe's only loss, and its DAG repair reads the one
  // carried unit.
  cluster.fail_node(cluster.placement("obj", 0)[4]);
  EXPECT_EQ(cluster.get("obj"), payload);
  EXPECT_EQ(cluster.scrub(), 1u);
  const std::uint64_t reads0 = injector.stats().reads;
  ASSERT_TRUE(healer.run_until_idle(16));
  EXPECT_EQ(injector.stats().reads - reads0, 1u);
  EXPECT_EQ(healer.parked_now(), 0u);
  EXPECT_EQ(healer.stats().repaired, 1u);
  EXPECT_EQ(cluster.stats().units_repaired, 1u);
  EXPECT_EQ(cluster.scrub(), 0u);

  // Two more losses are within r: the data survives them.
  const auto nodes = cluster.placement("obj", 0);
  cluster.fail_node(nodes[0]);
  cluster.fail_node(nodes[5]);
  EXPECT_EQ(cluster.get("obj"), payload);
  expect_identities(healer);
}

// Satellite: a store_unit failure during put() must produce a damage
// event for the short-written stripe.
TEST(Healer, FailedWriteReportsWriteFailure) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  storage::FaultInjector injector;
  cluster.attach_fault_injector(&injector);
  Healer healer(cluster, nullptr);

  injector.crash_node(0);  // stripe 0 places on nodes 0..5
  const auto payload = testutil::random_vector(4 * kUnit, 31);
  cluster.put("obj", payload);
  EXPECT_EQ(healer.events_of(DamageKind::WriteFailure), 1u);
  EXPECT_EQ(healer.pending(), 1u);
  EXPECT_EQ(cluster.repairer().stripe_health("obj", 0).erased, 1u);

  ASSERT_TRUE(healer.run_until_idle(16));
  EXPECT_EQ(healer.stats().repaired, 1u);
  EXPECT_EQ(cluster.repairer().stripe_health("obj", 0).erased, 0u);
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_EQ(cluster.stats().degraded_reads, 0u);  // healed before the read
  expect_identities(healer);
}

// Satellite: revive_node emits the re-replication debt instead of
// letting the node rejoin silently empty.
TEST(Healer, ReviveEmitsReplicationDebtAndHealsToFullRedundancy) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  Healer healer(cluster, nullptr);
  const auto payload = testutil::random_vector(3 * 4 * kUnit, 47);
  cluster.put("obj", payload);

  // Node 0 holds one unit of each stripe that placed on it.
  const auto at_risk = cluster.stripes_on_node(0);
  ASSERT_FALSE(at_risk.empty());
  cluster.fail_node(0);
  cluster.revive_node(0);  // rejoins empty: everything it held is debt
  EXPECT_EQ(cluster.stats().units_lost_on_revive, at_risk.size());
  EXPECT_EQ(healer.events_of(DamageKind::Revive), at_risk.size());
  EXPECT_EQ(healer.pending(), at_risk.size());

  ASSERT_TRUE(healer.run_until_idle(32));
  EXPECT_EQ(healer.stats().repaired, at_risk.size());
  for (std::size_t s = 0; s < cluster.object_stripe_count("obj"); ++s)
    EXPECT_EQ(cluster.repairer().stripe_health("obj", s).erased, 0u)
        << "stripe " << s << " not fully redundant after revive";
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_EQ(cluster.scrub(), 0u);
  expect_identities(healer);
}

// A node declared Dead by the detector enqueues exactly the stripes
// that lost a unit, and the healer re-places them on live nodes.
TEST(Healer, DeadVerdictEnqueuesNodeStripesAndHeals) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  storage::FaultInjector injector;
  cluster.attach_fault_injector(&injector);
  Membership membership(cluster);
  Healer healer(cluster, &membership);
  const auto payload = testutil::random_vector(3 * 4 * kUnit, 53);
  cluster.put("obj", payload);
  const auto at_risk = cluster.stripes_on_node(2);
  ASSERT_FALSE(at_risk.empty());

  for (int t = 0; t < 16; ++t) healer.tick();  // warm detector, idle queue
  injector.crash_node(2);
  for (int t = 0; t < 32 && membership.state(2) != NodeState::Dead; ++t)
    healer.tick();
  ASSERT_EQ(membership.state(2), NodeState::Dead);
  ASSERT_TRUE(healer.run_until_idle(64));
  EXPECT_EQ(healer.stats().nodes_declared_dead, 1u);
  EXPECT_EQ(healer.events_of(DamageKind::MissedHeartbeats), at_risk.size());
  EXPECT_GE(healer.stats().repaired, at_risk.size());
  for (std::size_t s = 0; s < cluster.object_stripe_count("obj"); ++s)
    EXPECT_EQ(cluster.repairer().stripe_health("obj", s).erased, 0u);
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_TRUE(membership.transitions_balance());
  EXPECT_TRUE(membership.probe_identity_holds());
  expect_identities(healer);
}

TEST(RepairQueue, PriorityOrdersByErasuresRemaining) {
  // Object "a" loses one unit, "b" loses two. Scrub discovers "a" first
  // (map order), so FIFO would heal "a" first; priority must heal "b"
  // first — it is one erasure from data loss.
  for (const bool priority : {true, false}) {
    Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
    HealerConfig cfg;
    cfg.max_repairs_per_tick = 1;
    cfg.priority_enabled = priority;
    Healer healer(cluster, nullptr, cfg);
    cluster.put("a", testutil::random_vector(4 * kUnit, 61));
    cluster.put("b", testutil::random_vector(4 * kUnit, 67));
    ASSERT_TRUE(cluster.corrupt_unit("a", 0, 0));
    ASSERT_TRUE(cluster.corrupt_unit("b", 0, 0));
    ASSERT_TRUE(cluster.corrupt_unit("b", 0, 1));
    EXPECT_EQ(cluster.scrub(), 3u);
    EXPECT_EQ(healer.pending(), 2u);

    healer.tick();  // one repair slot: the ordering decides who heals
    const std::size_t a_left =
        cluster.repairer().stripe_health("a", 0).erased;
    const std::size_t b_left =
        cluster.repairer().stripe_health("b", 0).erased;
    if (priority) {
      EXPECT_EQ(b_left, 0u) << "priority must rebuild the riskier stripe";
      EXPECT_EQ(a_left, 1u);
    } else {
      EXPECT_EQ(a_left, 0u) << "FIFO heals in arrival order";
      EXPECT_EQ(b_left, 2u);
    }
    ASSERT_TRUE(healer.run_until_idle(16));
    EXPECT_EQ(cluster.repairer().stripe_health("a", 0).erased, 0u);
    EXPECT_EQ(cluster.repairer().stripe_health("b", 0).erased, 0u);
    expect_identities(healer);
  }
}

TEST(RepairQueue, CoalescesDuplicateEvents) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  Healer healer(cluster, nullptr);
  cluster.put("obj", testutil::random_vector(4 * kUnit, 71));
  ASSERT_TRUE(cluster.corrupt_unit("obj", 0, 2));
  EXPECT_EQ(cluster.scrub(), 1u);
  EXPECT_EQ(cluster.scrub(), 1u);  // same finding, reported again
  const HealerStats& s = healer.stats();
  EXPECT_EQ(s.events_reported, 2u);
  EXPECT_EQ(s.events_enqueued, 1u);
  EXPECT_EQ(s.events_coalesced, 1u);
  EXPECT_EQ(healer.pending(), 1u);
  ASSERT_TRUE(healer.run_until_idle(8));
  EXPECT_EQ(s.repaired, 1u);
  expect_identities(healer);
}

TEST(RepairQueue, ParksUnrecoverableAndReactivatesOnRejoin) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  storage::FaultInjector injector;
  cluster.attach_fault_injector(&injector);
  Membership membership(cluster);
  Healer healer(cluster, &membership);
  const auto payload = testutil::random_vector(4 * kUnit, 73);
  cluster.put("obj", payload);  // one stripe, nodes 0..5

  for (int t = 0; t < 16; ++t) membership.tick();
  // Three of six units dark: past r = 2, unrecoverable as seen.
  injector.crash_node(0);
  injector.crash_node(1);
  injector.crash_node(2);
  for (int t = 0; t < 32 && membership.count(NodeState::Dead) < 3; ++t)
    membership.tick();  // detector only: the queue accumulates, undrained
  ASSERT_EQ(membership.count(NodeState::Dead), 3u);
  EXPECT_EQ(healer.pending(), 1u);  // one stripe, three verdicts coalesced

  healer.run_until_idle(8);
  EXPECT_EQ(healer.pending(), 0u);
  EXPECT_EQ(healer.parked_now(), 1u);
  EXPECT_EQ(healer.stats().parked, 1u);
  EXPECT_EQ(healer.stats().repaired, 0u);

  // One node returns with its units intact: the stripe is back inside
  // the code's correction radius, and the parked entry gets re-examined.
  injector.repair_node(1);
  for (int t = 0; t < 8 && membership.state(1) != NodeState::Alive; ++t)
    membership.tick();
  ASSERT_EQ(membership.state(1), NodeState::Alive);
  EXPECT_EQ(healer.stats().parked_reactivated, 1u);
  EXPECT_EQ(healer.events_of(DamageKind::Rejoin), 1u);
  EXPECT_EQ(healer.parked_now(), 0u);
  EXPECT_EQ(healer.pending(), 1u);

  ASSERT_TRUE(healer.run_until_idle(16));
  EXPECT_EQ(healer.stats().repaired, 1u);
  EXPECT_EQ(cluster.repairer().stripe_health("obj", 0).erased, 0u);
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);  // zero data loss through the whole episode
  EXPECT_TRUE(membership.transitions_balance());
  expect_identities(healer);
}

TEST(Healer, TokenBucketThrottlesDrain) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  HealerConfig cfg;
  cfg.repair_bytes_per_sec = 100'000;  // 1000 tokens per 10ms tick
  cfg.burst_bytes = 1;                 // no head start
  Healer healer(cluster, nullptr, cfg);
  cluster.put("obj", testutil::random_vector(6 * 4 * kUnit, 79));
  for (std::size_t s = 0; s < 6; ++s)
    ASSERT_TRUE(cluster.corrupt_unit("obj", s, 0));
  EXPECT_EQ(cluster.scrub(), 6u);
  EXPECT_EQ(healer.pending(), 6u);

  // Each stripe repair moves a few KB; at ~1KB/tick of budget the drain
  // must stretch across many ticks instead of finishing in one.
  healer.tick();
  EXPECT_LT(healer.stats().repaired, 6u);
  EXPECT_LT(healer.tokens(), 0);  // overdrawn by the first repair
  ASSERT_TRUE(healer.run_until_idle(400));
  EXPECT_EQ(healer.stats().repaired, 6u);
  EXPECT_GT(healer.stats().throttled_ticks, 0u);
  EXPECT_GT(healer.stats().repair_bytes, 0u);
  EXPECT_EQ(cluster.scrub(), 0u);
  expect_identities(healer);
}

TEST(Healer, ForegroundLoadDefersRepair) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  HealerConfig cfg;
  cfg.foreground_defer_bytes = 1024;
  Healer healer(cluster, nullptr, cfg);
  const auto payload = testutil::random_vector(4 * kUnit, 83);
  cluster.put("obj", payload);
  ASSERT_TRUE(cluster.corrupt_unit("obj", 0, 0));
  EXPECT_EQ(cluster.scrub(), 1u);

  // The put's foreground bytes are still unclaimed: the healer yields.
  healer.tick();
  EXPECT_EQ(healer.stats().deferred_ticks, 1u);
  EXPECT_EQ(healer.stats().repaired, 0u);
  EXPECT_EQ(healer.pending(), 1u);

  // A quiet tick drains normally.
  healer.tick();
  EXPECT_EQ(healer.stats().deferred_ticks, 1u);
  EXPECT_EQ(healer.stats().repaired, 1u);
  expect_identities(healer);
}

}  // namespace
}  // namespace tvmec::cluster
