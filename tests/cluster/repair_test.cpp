#include "cluster/repair.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "../test_util.h"
#include "cluster/cluster.h"
#include "core/plan_cache.h"
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

/// Partitions the link a non-aggregator helper of `plan` would use to
/// ship its partial, so the next DAG attempt deterministically loses
/// that helper mid-repair. Returns the helper's node.
std::size_t partition_helper_uplink(const RepairPlan& plan,
                                    storage::FaultInjector& inj) {
  for (const auto& helper : plan.helpers) {
    const auto dit =
        std::find(plan.domains.begin(), plan.domains.end(), helper.domain);
    const std::size_t agg = plan.aggregators[static_cast<std::size_t>(
        dit - plan.domains.begin())];
    if (helper.node == agg) continue;
    inj.partition_link(storage::FaultInjector::key("link", helper.node, agg),
                       64);
    return helper.node;
  }
  ADD_FAILURE() << "plan has no non-aggregator helper to fail";
  return 0;
}

TEST(RepairDag, CleanStripeIsANoop) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  cluster.put("obj", testutil::random_vector(4 * kUnit, 3));
  const RepairReport report = cluster.repairer().repair_stripe("obj", 0);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.units_repaired, 0u);
  EXPECT_EQ(report.bytes_on_wire, 0u);
  EXPECT_EQ(cluster.repair_stats().attempts_started, 0u);
  EXPECT_THROW(cluster.repairer().repair_stripe("nope", 0),
               std::invalid_argument);
}

TEST(RepairDag, RebuildsUnitsLostToANodeFailure) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  const auto payload = testutil::random_vector(3 * 4 * kUnit, 31);
  cluster.put("obj", payload);
  const std::size_t victim = cluster.placement("obj", 0)[0];
  cluster.fail_node(victim);

  EXPECT_EQ(cluster.repair(), 1u);
  const RepairStats& rs = cluster.repair_stats();
  EXPECT_TRUE(rs.identity_holds());
  EXPECT_GE(rs.attempts_completed, 1u);
  EXPECT_EQ(rs.units_repaired, 1u);
  EXPECT_EQ(rs.stripes_repaired, 1u);
  EXPECT_EQ(rs.naive_fallbacks, 0u);
  EXPECT_GT(rs.bytes_on_wire, 0u);

  // Placement metadata now points at a live replacement...
  const std::size_t replacement = cluster.placement("obj", 0)[0];
  EXPECT_NE(replacement, victim);
  EXPECT_FALSE(cluster.node_failed(replacement));
  // ...and the rebuilt stripe reads back clean, not degraded.
  const std::size_t degraded_before = cluster.stats().degraded_reads;
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_EQ(cluster.stats().degraded_reads, degraded_before);
}

TEST(RepairDag, ScrubFindsCorruptionAndHealsInPlace) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  const auto payload = testutil::random_vector(2 * 4 * kUnit, 47);
  cluster.put("obj", payload);
  ASSERT_TRUE(cluster.corrupt_unit("obj", 0, 1));
  ASSERT_TRUE(cluster.corrupt_unit("obj", 1, 5));

  EXPECT_EQ(cluster.scrub(), 2u);
  EXPECT_TRUE(cluster.repair_stats().identity_holds());
  EXPECT_EQ(cluster.repair_stats().units_repaired, 2u);
  // The damage is gone: a second pass finds nothing.
  EXPECT_EQ(cluster.scrub(), 0u);
  const std::size_t degraded_before = cluster.stats().degraded_reads;
  ASSERT_EQ(*cluster.get("obj"), payload);
  EXPECT_EQ(cluster.stats().degraded_reads, degraded_before);
}

TEST(RepairDag, PlanShapeFollowsTheAggregationTree) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  cluster.put("obj", testutil::random_vector(4 * kUnit, 59));
  EXPECT_FALSE(cluster.repairer().plan_stripe("obj", 0).has_value());  // clean
  cluster.fail_node(cluster.placement("obj", 0)[1]);

  const auto plan = cluster.repairer().plan_stripe("obj", 0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->erased, std::vector<std::size_t>{1});
  ASSERT_NE(plan->decode, nullptr);
  ASSERT_EQ(plan->helpers.size(), 4u);  // k helpers, one recovery column each
  EXPECT_EQ(plan->hops(), 4u);
  for (std::size_t i = 0; i < plan->helpers.size(); ++i) {
    EXPECT_EQ(plan->helpers[i].column, i);
    EXPECT_EQ(plan->helpers[i].domain,
              cluster.domain_of(plan->helpers[i].node));
    if (i > 0) {  // survivors ascending: the cache-canonical order
      EXPECT_LT(plan->helpers[i - 1].unit, plan->helpers[i].unit);
    }
  }
  // One aggregator per distinct helper domain, drawn from that domain.
  ASSERT_EQ(plan->aggregators.size(), plan->domains.size());
  for (std::size_t d = 0; d < plan->domains.size(); ++d)
    EXPECT_EQ(cluster.domain_of(plan->aggregators[d]), plan->domains[d]);
  EXPECT_FALSE(cluster.node_failed(plan->root_node));
}

TEST(RepairDag, DagMovesFewerCrossDomainAndIngressBytesThanNaive) {
  // Same cluster shape, same payload, same loss — one repairs through the
  // aggregation DAG, the other through the naive k-unit star (the E22
  // comparison). Total payload bytes are equal by GF-linearity (full-unit
  // MDS helpers either way); the DAG wins on *where* the bytes move.
  const auto payload = testutil::random_vector(6 * kUnit, 61);
  const auto run = [&](bool dag) {
    auto cluster = std::make_unique<Cluster>(ec::CodeParams{6, 3, 8}, kUnit,
                                             make_config(12, 3));
    cluster->put("obj", payload);
    cluster->fail_node(cluster->placement("obj", 0)[1]);
    RepairConfig cfg;
    cfg.dag_enabled = dag;
    cluster->set_repair_config(cfg);
    const RepairReport report = cluster->repairer().repair_stripe("obj", 0);
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.units_repaired, 1u);
    EXPECT_EQ(report.used_naive, !dag);
    EXPECT_TRUE(cluster->repair_stats().identity_holds());
    EXPECT_EQ(*cluster->get("obj"), payload);
    return report;
  };
  const RepairReport dag = run(true);
  const RepairReport naive = run(false);

  // Honest accounting: the total on the wire is the same k column-terms.
  EXPECT_EQ(dag.bytes_on_wire, naive.bytes_on_wire);
  // The wins: domain crossings, root ingress, modeled completion time.
  EXPECT_LT(dag.cross_domain_bytes, naive.cross_domain_bytes);
  EXPECT_LT(dag.root_ingress_bytes, naive.root_ingress_bytes);
  EXPECT_LT(dag.makespan_us, naive.makespan_us);
}

TEST(RepairDag, ShortStripeRepairFetchesOnlyStoredHelpers) {
  // A stripe carrying c < k data units is rebuilt from c helper reads:
  // its padding units are survivors with known zero bytes, which neither
  // the DAG nor the naive star fetches or ships. Each of the 3 rotations
  // puts the stripe's units in other domains, so a plan that ranked
  // survivors by domain alone would leave some padding out.
  constexpr std::size_t k = 4;
  for (const std::size_t rotation : {0, 1, 2}) {
    for (const std::size_t carried : {std::size_t{1}, std::size_t{3}}) {
      const auto payload = testutil::random_vector(carried * kUnit, 67);
      for (const std::size_t lost : {k, std::size_t{0}}) {  // parity, data
        for (const bool dag : {true, false}) {
          SCOPED_TRACE(::testing::Message()
                       << "rotation " << rotation << ", " << carried
                       << " carried, unit " << lost << " lost, "
                       << (dag ? "dag" : "naive"));
          Cluster cluster(ec::CodeParams{k, 2, 8}, kUnit, make_config(9, 3));
          for (std::size_t i = 0; i < rotation; ++i) {  // one stripe each
            cluster.put("filler", payload);
            cluster.remove("filler");
          }
          storage::FaultInjector inj;  // quiet: counts every helper read
          cluster.attach_fault_injector(&inj);
          cluster.put("obj", payload);
          cluster.fail_node(cluster.placement("obj", 0)[lost]);

          const auto plan = cluster.repairer().plan_stripe("obj", 0);
          ASSERT_TRUE(plan.has_value());
          ASSERT_EQ(plan->helpers.size(), carried);
          for (const auto& helper : plan->helpers)
            EXPECT_TRUE(helper.unit < carried || helper.unit >= k)
                << "padding helper " << helper.unit;

          RepairConfig cfg;
          cfg.dag_enabled = dag;
          cluster.set_repair_config(cfg);
          const std::uint64_t reads0 = inj.stats().reads;
          const RepairReport report =
              cluster.repairer().repair_stripe("obj", 0);
          EXPECT_EQ(inj.stats().reads - reads0, carried);
          EXPECT_TRUE(report.completed);
          EXPECT_EQ(report.used_naive, !dag);
          EXPECT_EQ(report.units_repaired, 1u);
          EXPECT_TRUE(cluster.repair_stats().identity_holds());

          // The rebuilt copy verifies on its node, and the get reads it
          // back undegraded.
          EXPECT_EQ(cluster.scrub(), 0u);
          EXPECT_EQ(cluster.get("obj"), payload);
          EXPECT_EQ(cluster.stats().degraded_reads, 0u);
        }
      }
    }
  }
}

TEST(RepairDag, HelperLossMidDagReplansToByteIdenticalCompletion) {
  // The acceptance scenario: a helper drops off the network *during* the
  // DAG (its partial-upload link partitions mid-attempt). The coordinator
  // discards the attempt's partials, excludes the helper, re-plans, and
  // completes — and the rebuilt bytes match the original payload exactly.
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  const auto payload = testutil::random_vector(4 * kUnit, 71);
  cluster.put("obj", payload);
  cluster.fail_node(cluster.placement("obj", 0)[1]);

  storage::FaultInjector inj;
  cluster.attach_fault_injector(&inj);
  const auto plan = cluster.repairer().plan_stripe("obj", 0);
  ASSERT_TRUE(plan.has_value());
  const std::size_t lost_helper = partition_helper_uplink(*plan, inj);

  const RepairReport report = cluster.repairer().repair_stripe("obj", 0);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.used_naive);
  EXPECT_GE(report.replans, 1u);
  const RepairStats& rs = cluster.repair_stats();
  EXPECT_TRUE(rs.identity_holds());
  EXPECT_GE(rs.attempts_started, 2u);
  EXPECT_GE(rs.attempts_replanned, 1u);
  EXPECT_EQ(rs.attempts_completed, 1u);
  EXPECT_TRUE(cluster.net().stats().balanced());

  // Byte-identity vs the oracle (the original payload): nothing
  // half-aggregated from the failed attempt leaked into the result.
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  // The partitioned helper itself was never the rebuilt unit's target.
  EXPECT_NE(cluster.placement("obj", 0)[1], lost_helper);
}

TEST(RepairDag, FallsBackToNaiveWhenReplanBudgetExhausted) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  const auto payload = testutil::random_vector(4 * kUnit, 73);
  cluster.put("obj", payload);
  cluster.fail_node(cluster.placement("obj", 0)[1]);

  storage::FaultInjector inj;
  cluster.attach_fault_injector(&inj);
  const auto plan = cluster.repairer().plan_stripe("obj", 0);
  ASSERT_TRUE(plan.has_value());
  partition_helper_uplink(*plan, inj);

  RepairConfig cfg;
  cfg.max_replans = 0;  // no second DAG attempt: straight to the star
  cluster.set_repair_config(cfg);
  const RepairReport report = cluster.repairer().repair_stripe("obj", 0);
  EXPECT_TRUE(report.completed);
  EXPECT_TRUE(report.used_naive);
  const RepairStats& rs = cluster.repair_stats();
  EXPECT_TRUE(rs.identity_holds());
  EXPECT_EQ(rs.naive_fallbacks, 1u);
  EXPECT_EQ(rs.attempts_replanned, 1u);  // the superseded DAG attempt
  EXPECT_EQ(rs.attempts_completed, 1u);
  EXPECT_EQ(*cluster.get("obj"), payload);
}

TEST(RepairDag, AbandonsAnUnrecoverableStripe) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  const auto payload = testutil::random_vector(4 * kUnit, 79);
  cluster.put("obj", payload);
  const auto nodes = cluster.placement("obj", 0);
  for (std::size_t u = 0; u < 3; ++u) cluster.fail_node(nodes[u]);  // > r

  const RepairReport report = cluster.repairer().repair_stripe("obj", 0);
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.units_repaired, 0u);
  const RepairStats& rs = cluster.repair_stats();
  EXPECT_TRUE(rs.identity_holds());
  EXPECT_GE(rs.attempts_abandoned, 1u);
  EXPECT_EQ(rs.attempts_completed, 0u);
  EXPECT_THROW(cluster.get("obj"), std::runtime_error);
}

TEST(RepairDag, PlanCacheKeysConstrainedPlansByLocality) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  const auto cache = std::make_shared<core::PlanCache>();
  cluster.set_plan_cache(cache);
  cluster.put("obj", testutil::random_vector(2 * 4 * kUnit, 83));
  // Same erased unit id in both stripes, but rotated placement: the
  // survivor preference differs, so the plans must not alias.
  ASSERT_TRUE(cluster.corrupt_unit("obj", 0, 1));
  ASSERT_TRUE(cluster.corrupt_unit("obj", 1, 1));

  ASSERT_TRUE(cluster.repairer().plan_stripe("obj", 0).has_value());
  EXPECT_EQ(cache->stats().misses, 1u);
  ASSERT_TRUE(cluster.repairer().plan_stripe("obj", 0).has_value());
  EXPECT_EQ(cache->stats().hits, 1u);  // identical constraint: cache hit
  ASSERT_TRUE(cluster.repairer().plan_stripe("obj", 1).has_value());
  EXPECT_EQ(cache->stats().misses, 2u);  // same pattern, new locality
  EXPECT_EQ(cache->stats().entries, 2u);
}

TEST(RepairDag, SeededChaosKeepsEveryCounterIdentity) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(12, 3));
  const auto payload = testutil::random_vector(6 * 4 * kUnit, 89);
  cluster.put("obj", payload);

  storage::FaultPolicy policy;
  policy.transient_read = 0.03;
  policy.link_drop = 0.03;
  policy.link_duplicate = 0.02;
  policy.link_partition = 0.005;
  policy.partition_ops = 4;
  storage::FaultInjector inj(policy, 0x5EED);
  cluster.attach_fault_injector(&inj);
  cluster.fail_node(cluster.placement("obj", 0)[2]);
  cluster.repair();

  // Whatever the chaos did, the ledgers must close.
  EXPECT_TRUE(cluster.repair_stats().identity_holds());
  EXPECT_TRUE(cluster.net().stats().balanced());

  // Heal phase: quiet faults, scrub out any residue, then the payload
  // must read back byte-identical.
  inj.set_policy(storage::FaultPolicy{});
  cluster.scrub();
  EXPECT_TRUE(cluster.repair_stats().identity_holds());
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

}  // namespace
}  // namespace tvmec::cluster
