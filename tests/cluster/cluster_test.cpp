#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
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

TEST(Cluster, RejectsTooFewNodesForPlacement) {
  // k + r = 6 distinct nodes per stripe; 5 can't host one.
  EXPECT_THROW(Cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(5, 1)),
               std::invalid_argument);
}

TEST(Cluster, Construction) {
  EXPECT_NO_THROW(Cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(8, 1)));
  EXPECT_THROW(Cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(5, 1)),
               std::invalid_argument);
  // The unit size must fit the codec's packet grid (a multiple of 8*w).
  EXPECT_THROW(Cluster(ec::CodeParams{4, 2, 8}, 100, make_config(8, 1)),
               std::invalid_argument);
}

TEST(Cluster, PutGetRoundtripWithPadding) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  // Deliberately not a stripe multiple: exercises zero-padding and the
  // exact-size restore on get.
  const auto payload = testutil::random_vector(3 * 4 * kUnit + 137, 42);
  cluster.put("obj", payload);
  EXPECT_TRUE(cluster.exists("obj"));
  EXPECT_EQ(cluster.object_stripe_count("obj"), 4u);
  EXPECT_EQ(cluster.stats().stripes_written, 4u);
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_EQ(cluster.stats().degraded_reads, 0u);

  // The short last stripe's padding reads back as zeros, and its last
  // carried unit is zero past the object's end, not bytes of the stripe
  // before it left over in put's stripe buffer.
  const auto is_zero = [](std::uint8_t b) { return b == 0; };
  const auto tail = cluster.read_unit("obj", 3, 0);
  EXPECT_TRUE(
      std::equal(tail.begin(), tail.begin() + 137, payload.end() - 137));
  EXPECT_TRUE(std::all_of(tail.begin() + 137, tail.end(), is_zero));
  for (std::size_t u = 1; u < 4; ++u) {
    const auto pad = cluster.read_unit("obj", 3, u);
    EXPECT_TRUE(std::all_of(pad.begin(), pad.end(), is_zero)) << "unit " << u;
  }

  EXPECT_FALSE(cluster.get("nope").has_value());
  cluster.remove("obj");
  EXPECT_FALSE(cluster.exists("obj"));
  EXPECT_FALSE(cluster.get("obj").has_value());

  // Every short-stripe shape, each put right after a full random stripe,
  // so a byte the cluster's reused stripe buffer kept from the previous
  // call would show in a stored unit or the bytes read back.
  constexpr std::size_t k = 4;
  constexpr std::size_t stripe_bytes = k * kUnit;
  for (const std::size_t size :
       {std::size_t{1}, kUnit - 1, kUnit, kUnit + 1, stripe_bytes - 1,
        stripe_bytes, stripe_bytes + 1}) {
    SCOPED_TRACE(::testing::Message() << "size " << size);
    Cluster cl(ec::CodeParams{k, 2, 8}, kUnit, make_config(9, 3));
    cl.put("full", testutil::random_vector(stripe_bytes, 7));
    const auto bytes = testutil::random_vector(size, size);
    cl.put("obj", bytes);
    const auto got = cl.get("obj");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, bytes);

    // Data units read back as the object's bytes, zero past its end:
    // every padding unit is all zeros.
    const std::size_t stripes = cl.object_stripe_count("obj");
    std::vector<std::uint8_t> padded = bytes;
    padded.resize(stripes * stripe_bytes, 0);
    for (std::size_t s = 0; s < stripes; ++s)
      for (std::size_t u = 0; u < k; ++u) {
        const auto unit = cl.read_unit("obj", s, u);
        EXPECT_TRUE(std::equal(unit.begin(), unit.end(),
                               padded.begin() + static_cast<std::ptrdiff_t>(
                                                    s * stripe_bytes +
                                                    u * kUnit)))
            << "stripe " << s << " unit " << u;
      }
    EXPECT_EQ(cl.stats().degraded_reads, 0u);
    EXPECT_EQ(cl.scrub(), 0u);

    // Lose the holder of the last stripe's first data unit: the get
    // decodes through the survivors, into a buffer the full get filled.
    ASSERT_TRUE(cl.get("full").has_value());
    cl.fail_node(cl.placement("obj", stripes - 1)[0]);
    const std::size_t degraded0 = cl.stats().degraded_reads;
    const auto degraded = cl.get("obj");
    ASSERT_TRUE(degraded.has_value());
    EXPECT_EQ(*degraded, bytes);
    EXPECT_GT(cl.stats().degraded_reads, degraded0);
  }
}

/// Counts the damage a client read reports.
struct ReadDamageCounter final : DamageSink {
  std::size_t reports = 0;
  void report_damage(DamageKind kind, const std::string&,
                     std::size_t) override {
    if (kind == DamageKind::ReadCorruption) ++reports;
  }
};

TEST(Cluster, ShortStripeGetFetchesOnlyCarriedUnits) {
  // A get fetches only the data units that carry bytes, ceil(take / unit)
  // per stripe: one disk read, one response message and one unit of
  // payload each. A short stripe's padding units are never fetched.
  // The injector reads, response messages and payload units `op` makes:
  using Fetches = std::array<std::uint64_t, 3>;
  const auto fetches = [](Cluster& cl, const storage::FaultInjector& inj,
                          const auto& op) {
    const std::uint64_t reads0 = inj.stats().reads;
    const NetStats net0 = cl.net().stats();
    op();
    const NetStats net1 = cl.net().stats();
    return Fetches{inj.stats().reads - reads0,
                   net1.messages_sent - net0.messages_sent,
                   (net1.bytes_received - net0.bytes_received) /
                       cl.unit_size()};
  };
  constexpr std::size_t k = 4;
  constexpr std::size_t stripe_bytes = k * kUnit;
  for (const std::size_t size :
       {std::size_t{1}, kUnit - 1, kUnit, kUnit + 1, stripe_bytes - 1,
        stripe_bytes, stripe_bytes + 1, 2 * stripe_bytes + kUnit / 2}) {
    SCOPED_TRACE(::testing::Message() << "size " << size);
    Cluster cl(ec::CodeParams{k, 2, 8}, kUnit, make_config(9, 3));
    storage::FaultInjector inj;  // quiet: counts every read, faults none
    cl.attach_fault_injector(&inj);
    const auto bytes = testutil::random_vector(size, size);
    cl.put("obj", bytes);

    std::size_t carried = 0;
    for (std::size_t off = 0; off < size; off += stripe_bytes)
      carried += (std::min(stripe_bytes, size - off) + kUnit - 1) / kUnit;
    const auto get = [&] { EXPECT_EQ(cl.get("obj"), bytes); };
    const Fetches healthy = fetches(cl, inj, get);
    EXPECT_EQ(healthy, (Fetches{carried, carried, carried}));
    EXPECT_EQ(cl.stats().hedged_reads, 0u);
    EXPECT_EQ(cl.stats().degraded_reads, 0u);

    // A padding unit has no stored copy, so its holder going down costs
    // the get nothing: it neither degrades, decodes nor reports.
    // read_unit() of that unit returns zeros without a fetch or a report.
    const auto nodes = cl.placement("obj", 0);
    if (size < stripe_bytes && carried < k) {
      ReadDamageCounter sink;
      cl.set_damage_sink(&sink);
      cl.fail_node(nodes[carried]);
      EXPECT_EQ(cl.get("obj"), bytes);
      EXPECT_EQ(cl.stats().degraded_reads, 0u);
      EXPECT_EQ(sink.reports, 0u);
      const std::uint64_t reads1 = inj.stats().reads;
      EXPECT_EQ(cl.read_unit("obj", 0, carried),
                std::vector<std::uint8_t>(kUnit, 0));
      EXPECT_EQ(inj.stats().reads, reads1);
      EXPECT_EQ(sink.reports, 0u);
      cl.set_damage_sink(nullptr);
    }
    // A lost carried unit degrades the get, which decodes it exactly
    // from one parity in its place: the healthy get's reads, messages
    // and payload. read_unit() of the lost unit reads only its helpers,
    // the stripe's c carried units less itself plus one parity.
    cl.fail_node(nodes[0]);
    EXPECT_EQ(fetches(cl, inj, get), healthy);
    EXPECT_EQ(cl.stats().degraded_reads, 1u);
    const std::uint64_t c = (std::min(stripe_bytes, size) + kUnit - 1) / kUnit;
    std::vector<std::uint8_t> unit0(kUnit, 0);
    std::copy_n(bytes.begin(), std::min(kUnit, size), unit0.begin());
    const auto read0 = [&] { EXPECT_EQ(cl.read_unit("obj", 0, 0), unit0); };
    EXPECT_EQ(fetches(cl, inj, read0), (Fetches{c, c, c}));
  }

  // The object-store shape: RS(10,4), 64 KiB units, 16 nodes in 4
  // domains. With unit 0's holder down, a 192 KiB get (3 carried units)
  // reads 3 units and a full stripe 10, as when healthy.
  constexpr std::size_t unit = 64 * 1024;
  for (const std::size_t units : {std::size_t{3}, std::size_t{10}}) {
    SCOPED_TRACE(::testing::Message() << units << " carried units");
    Cluster cl(ec::CodeParams{10, 4, 8}, unit, make_config(16, 4));
    storage::FaultInjector inj;
    cl.attach_fault_injector(&inj);
    const auto bytes = testutil::random_vector(units * unit, units);
    cl.put("obj", bytes);
    cl.fail_node(cl.placement("obj", 0)[0]);
    EXPECT_EQ(fetches(cl, inj, [&] { EXPECT_EQ(cl.get("obj"), bytes); }),
              (Fetches{units, units, units}));
    EXPECT_EQ(cl.stats().degraded_reads, 1u);
  }
}

TEST(Cluster, WriteUnitIntoPaddingIsDecodedNotZeroed) {
  // A one-unit object carries only unit 0. Writing unit 2 makes units
  // 0..2 carried, so a degraded get decodes through unit 2's new bytes,
  // not through the zeros it held as padding. Both write paths: the
  // parity patch, and the re-encode a dead parity holder forces. The
  // write also stores gap unit 1 as a zero unit: with its holder down, a
  // get degrades and decodes it to the zero unit's checksum.
  constexpr std::size_t r = 2;
  for (const bool patch : {true, false}) {
    for (const std::size_t lost : {std::size_t{0}, std::size_t{1}}) {
      SCOPED_TRACE(::testing::Message()
                   << (patch ? "patch" : "re-encode") << ", unit " << lost
                   << " lost");
      Cluster cl(ec::CodeParams{4, r, 8}, kUnit, make_config(6, 1));
      storage::FaultInjector inj;  // quiet: counts every disk read
      cl.attach_fault_injector(&inj);
      const auto bytes = testutil::random_vector(kUnit, 61);
      cl.put("obj", bytes);
      const auto nodes = cl.placement("obj", 0);
      if (!patch) cl.fail_node(nodes[5]);
      const auto fresh = testutil::random_vector(kUnit, 62);
      const std::uint64_t reads0 = inj.stats().reads;
      cl.write_unit("obj", 0, 2, fresh);
      // The patch reads the r parities; unit 2's old bytes are known
      // zeros, not read.
      if (patch) {
        EXPECT_EQ(inj.stats().reads - reads0, r);
      }
      EXPECT_EQ(cl.stats().small_write_patches, patch ? 1u : 0u);
      EXPECT_EQ(cl.stats().full_stripe_writes, patch ? 0u : 1u);
      EXPECT_EQ(cl.read_unit("obj", 0, 2), fresh);

      cl.fail_node(nodes[lost]);
      EXPECT_EQ(cl.get("obj"), bytes);
      EXPECT_EQ(cl.stats().degraded_reads, 1u);
      if (lost == 1) {
        EXPECT_EQ(cl.read_unit("obj", 0, 1),
                  std::vector<std::uint8_t>(kUnit, 0));
      }
    }
  }
}

TEST(Cluster, WriteUnitIntoPaddingMovesUnitsOffDeadHolders) {
  // The holders of padding units 1 and 2 die at no cost, so repair
  // leaves them in place. A later write into unit 3 starts storing units
  // 1..3: the two whose holders are dead go to spares first, so the only
  // loss is the parity whose holder died since, and the object reads.
  Cluster cl(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  const auto bytes = testutil::random_vector(kUnit, 71);
  cl.put("obj", bytes);
  const auto nodes = cl.placement("obj", 0);
  cl.fail_node(nodes[1]);
  cl.fail_node(nodes[2]);
  cl.repair();
  cl.fail_node(nodes[4]);

  const auto fresh = testutil::random_vector(kUnit, 72);
  cl.write_unit("obj", 0, 3, fresh);
  const auto moved = cl.placement("obj", 0);
  for (const std::size_t u : {std::size_t{1}, std::size_t{2}}) {
    EXPECT_NE(moved[u], nodes[u]) << "unit " << u;
    EXPECT_FALSE(cl.node_failed(moved[u])) << "unit " << u;
  }
  EXPECT_EQ(cl.get("obj"), bytes);
  EXPECT_EQ(cl.read_unit("obj", 0, 1), std::vector<std::uint8_t>(kUnit, 0));
  EXPECT_EQ(cl.read_unit("obj", 0, 3), fresh);
  EXPECT_EQ(cl.scrub(), 1u);  // parity 4, rebuilt on a spare
  EXPECT_EQ(cl.scrub(), 0u);

  // Two more losses: unit 0 decodes through the moved zero units and
  // unit 3's new bytes.
  cl.fail_node(cl.placement("obj", 0)[0]);
  cl.fail_node(cl.placement("obj", 0)[5]);
  EXPECT_EQ(cl.get("obj"), bytes);
  EXPECT_GT(cl.stats().degraded_reads, 0u);
}

TEST(Cluster, WriteUnitIntoPaddingRefusesToStoreOnDeadNodes) {
  // One node per unit and no spare: with the holders of padding units 1
  // and 2 dead, a write into unit 3 would store both on dead nodes, two
  // losses past r = 1. It is refused before anything is read or changed.
  // With one of them back, the one loss is within r: the write stores
  // unit 1 on its dead node, and the stripe decodes it.
  Cluster cl(ec::CodeParams{4, 1, 8}, kUnit, make_config(5, 1));
  storage::FaultInjector inj;  // quiet: counts every disk op
  cl.attach_fault_injector(&inj);
  const auto bytes = testutil::random_vector(kUnit, 81);
  cl.put("obj", bytes);
  const auto nodes = cl.placement("obj", 0);
  cl.fail_node(nodes[1]);
  cl.fail_node(nodes[2]);

  const auto fresh = testutil::random_vector(kUnit, 82);
  const auto ops0 = inj.stats();
  EXPECT_THROW(cl.write_unit("obj", 0, 3, fresh), std::runtime_error);
  EXPECT_EQ(inj.stats().reads, ops0.reads);
  EXPECT_EQ(inj.stats().writes, ops0.writes);
  EXPECT_EQ(cl.placement("obj", 0), nodes);
  EXPECT_EQ(cl.scrub(), 0u);
  EXPECT_EQ(cl.get("obj"), bytes);
  EXPECT_EQ(cl.read_unit("obj", 0, 3), std::vector<std::uint8_t>(kUnit, 0));

  cl.revive_node(nodes[2]);
  cl.write_unit("obj", 0, 3, fresh);
  EXPECT_EQ(cl.placement("obj", 0), nodes);
  EXPECT_EQ(cl.read_unit("obj", 0, 3), fresh);
  EXPECT_EQ(cl.read_unit("obj", 0, 1), std::vector<std::uint8_t>(kUnit, 0));
  EXPECT_EQ(cl.get("obj"), bytes);
  EXPECT_EQ(cl.scrub(), 1u);  // unit 1 waits for its node's revive
}

TEST(Cluster, ShortStripeStoresOnlyCarriedUnitsAndParities) {
  // A put ships, stores and checksums ceil(take / unit) data units and
  // the r parities per stripe: a short stripe's padding has no copy on
  // any node, so its holder going down is no loss.
  constexpr std::size_t k = 4;
  constexpr std::size_t r = 2;
  constexpr std::size_t stripe_bytes = k * kUnit;
  std::size_t padding_only_failed = 0;
  for (const std::size_t size :
       {std::size_t{1}, kUnit - 1, kUnit, kUnit + 1, stripe_bytes - 1,
        stripe_bytes, stripe_bytes + 1, 2 * stripe_bytes + kUnit / 2}) {
    SCOPED_TRACE(::testing::Message() << "size " << size);
    Cluster cl(ec::CodeParams{k, r, 8}, kUnit, make_config(9, 3));
    storage::FaultInjector inj;  // quiet: counts every write, faults none
    cl.attach_fault_injector(&inj);
    const auto bytes = testutil::random_vector(size, size);

    std::size_t stored = 0;
    for (std::size_t off = 0; off < size; off += stripe_bytes)
      stored += (std::min(stripe_bytes, size - off) + kUnit - 1) / kUnit + r;
    const std::uint64_t writes0 = inj.stats().writes;
    const NetStats net0 = cl.net().stats();
    cl.put("obj", bytes);
    const NetStats net1 = cl.net().stats();
    EXPECT_EQ(inj.stats().writes - writes0, stored);
    EXPECT_EQ(net1.messages_sent - net0.messages_sent, stored);
    EXPECT_EQ((net1.bytes_sent - net0.bytes_sent) / kUnit, stored);

    // The last stripe's padding holders: none lists that stripe, and one
    // that holds no stored unit of any stripe can die at no cost.
    const std::size_t last = cl.object_stripe_count("obj") - 1;
    const std::size_t carried =
        (size - last * stripe_bytes + kUnit - 1) / kUnit;
    const auto nodes = cl.placement("obj", last);
    for (std::size_t u = carried; u < k; ++u) {
      const auto on_node = cl.stripes_on_node(nodes[u]);
      EXPECT_EQ(std::count(on_node.begin(), on_node.end(),
                           std::pair<std::string, std::size_t>("obj", last)),
                0)
          << "padding unit " << u;
      if (!on_node.empty()) continue;
      cl.fail_node(nodes[u]);
      ++padding_only_failed;
      EXPECT_EQ(cl.scrub(), 0u);
      for (std::size_t s = 0; s <= last; ++s)
        EXPECT_EQ(cl.repairer().stripe_health("obj", s).erased, 0u);
    }

    // r holders of stored units die: the get is still byte-exact.
    cl.fail_node(nodes[0]);
    cl.fail_node(nodes[k]);
    EXPECT_EQ(cl.get("obj"), bytes);

    // Every node dies and rejoins empty: the re-replication debt is the
    // stored units, no padding among them.
    for (std::size_t node = 0; node < cl.num_nodes(); ++node)
      cl.fail_node(node);
    for (std::size_t node = 0; node < cl.num_nodes(); ++node)
      cl.revive_node(node);
    EXPECT_EQ(cl.stats().units_lost_on_revive, stored);
  }
  EXPECT_GT(padding_only_failed, 0u);
}

TEST(Cluster, PutGetRoundTrip) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(8, 1));
  const auto payload = testutil::random_vector(10000, 1);  // multi-stripe
  cluster.put("obj", payload);
  EXPECT_TRUE(cluster.exists("obj"));
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_EQ(cluster.stats().degraded_reads, 0u);
}

TEST(Cluster, MissingObjectReturnsNullopt) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(8, 1));
  EXPECT_FALSE(cluster.get("nope").has_value());
  EXPECT_FALSE(cluster.exists("nope"));
}

TEST(Cluster, RemoveDeletesUnits) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(8, 1));
  cluster.put("obj", testutil::random_vector(3000, 4));
  cluster.remove("obj");
  EXPECT_FALSE(cluster.exists("obj"));
  EXPECT_EQ(cluster.stats().objects, 0u);
  EXPECT_NO_THROW(cluster.remove("obj"));  // idempotent
}

TEST(Cluster, SizesThatDontFillStripes) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(8, 1));
  for (const std::size_t size : {1u, 511u, 512u, 2047u, 2048u, 2049u, 9999u}) {
    const auto payload = testutil::random_vector(size, size);
    cluster.put("o" + std::to_string(size), payload);
    const auto got = cluster.get("o" + std::to_string(size));
    ASSERT_TRUE(got.has_value()) << size;
    EXPECT_EQ(*got, payload) << size;
  }
}

TEST(Cluster, EmptyObject) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(8, 1));
  cluster.put("empty", {});
  EXPECT_EQ(cluster.object_stripe_count("empty"), 0u);
  const auto got = cluster.get("empty");
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
}

TEST(Cluster, OverwriteReplacesContent) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(8, 1));
  cluster.put("obj", testutil::random_vector(3000, 2));
  const auto v2 = testutil::random_vector(1234, 3);
  cluster.put("obj", v2);
  EXPECT_EQ(*cluster.get("obj"), v2);
  EXPECT_EQ(cluster.stats().objects, 1u);
}

TEST(Cluster, ManyObjectsAcrossRotations) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 1));
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int i = 0; i < 20; ++i) {
    payloads.push_back(testutil::random_vector(1000 + 137 * i, 20 + i));
    cluster.put("obj" + std::to_string(i), payloads.back());
  }
  cluster.fail_node(4);
  for (int i = 0; i < 20; ++i) {
    const auto got = cluster.get("obj" + std::to_string(i));
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(*got, payloads[static_cast<std::size_t>(i)]) << i;
  }
}

TEST(Cluster, PlacementSpreadsUnitsAcrossFailureDomains) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(12, 3));
  const auto payload = testutil::random_vector(5 * 4 * kUnit, 7);
  cluster.put("obj", payload);
  for (std::size_t s = 0; s < cluster.object_stripe_count("obj"); ++s) {
    const auto& nodes = cluster.placement("obj", s);
    ASSERT_EQ(nodes.size(), 6u);
    // Distinct nodes per stripe.
    std::set<std::size_t> distinct(nodes.begin(), nodes.end());
    EXPECT_EQ(distinct.size(), nodes.size());
    // All min(n, D) = 3 failure domains covered, and no domain holds more
    // than ceil(n / D) = 2 units — one domain outage stays decodable.
    std::vector<std::size_t> per_domain(cluster.num_domains(), 0);
    for (const std::size_t node : nodes) ++per_domain[cluster.domain_of(node)];
    for (const std::size_t count : per_domain) {
      EXPECT_GE(count, 1u);
      EXPECT_LE(count, 2u);
    }
  }
  EXPECT_THROW(cluster.placement("obj", 99), std::invalid_argument);
  EXPECT_THROW(cluster.placement("nope", 0), std::invalid_argument);
}

TEST(Cluster, DegradedReadDecodesThroughSurvivors) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  const auto payload = testutil::random_vector(2 * 4 * kUnit, 21);
  cluster.put("obj", payload);
  // Kill the node holding data unit 1 of stripe 0.
  cluster.fail_node(cluster.placement("obj", 0)[1]);
  EXPECT_EQ(cluster.stats().failed_nodes, 1u);
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_GE(cluster.stats().degraded_reads, 1u);
}

TEST(Cluster, DegradedReadSurvivesUpToRLosses) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  const auto payload = testutil::random_vector(4 * kUnit, 33);
  cluster.put("obj", payload);
  const auto nodes = cluster.placement("obj", 0);
  cluster.fail_node(nodes[0]);
  cluster.fail_node(nodes[3]);
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  // A third loss exceeds r: the stripe is unrecoverable.
  cluster.fail_node(nodes[1]);
  EXPECT_THROW(cluster.get("obj"), std::runtime_error);
}

TEST(Cluster, DegradedReadSurvivesRFailures) {
  // n == nodes: every node holds a unit of every stripe.
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(6, 1));
  const auto payload = testutil::random_vector(20000, 5);
  cluster.put("obj", payload);

  cluster.fail_node(0);
  cluster.fail_node(3);
  EXPECT_TRUE(cluster.node_failed(0));
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_GT(cluster.stats().degraded_reads, 0u);
}

TEST(Cluster, TooManyFailuresThrows) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(6, 1));
  cluster.put("obj", testutil::random_vector(5000, 6));
  cluster.fail_node(0);
  cluster.fail_node(1);
  cluster.fail_node(2);  // r = 2, three failures is fatal
  EXPECT_THROW(cluster.get("obj"), std::runtime_error);
}

TEST(Cluster, CorruptUnitIsDetectedAndReadDegrades) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  const auto payload = testutil::random_vector(4 * kUnit, 55);
  cluster.put("obj", payload);
  ASSERT_TRUE(cluster.corrupt_unit("obj", 0, 2));
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);  // CRC caught the flip; decode healed the read
  EXPECT_GE(cluster.stats().corruptions_detected, 1u);
  EXPECT_GE(cluster.stats().degraded_reads, 1u);

  // The parity a read ranks first (lowest domain) is corrupt too: its
  // fetch fails mid-read, and the read re-plans onto the other parity.
  const auto nodes = cluster.placement("obj", 0);
  const std::size_t first =
      cluster.domain_of(nodes[4]) <= cluster.domain_of(nodes[5]) ? 4 : 5;
  ASSERT_TRUE(cluster.corrupt_unit("obj", 0, first));
  const std::size_t detected = cluster.stats().corruptions_detected;
  EXPECT_EQ(cluster.get("obj"), payload);
  EXPECT_GT(cluster.stats().corruptions_detected, detected + 1);
}

TEST(Cluster, SilentCorruptionIsDetectedAndHealedOnRead) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(8, 1));
  const auto payload = testutil::random_vector(5000, 30);
  cluster.put("obj", payload);

  ASSERT_TRUE(cluster.corrupt_unit("obj", 0, 1));
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);  // checksum caught it; parity rebuilt it
  EXPECT_GT(cluster.stats().corruptions_detected, 0u);
}

TEST(Cluster, ReadsRideOutTransientFaultsAndDrops) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  const auto payload = testutil::random_vector(6 * 4 * kUnit, 77);
  cluster.put("obj", payload);

  storage::FaultPolicy policy;
  policy.transient_read = 0.1;
  policy.link_drop = 0.1;
  storage::FaultInjector inj(policy, 0xBEEF);
  cluster.attach_fault_injector(&inj);
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_GT(cluster.retry_stats().retries, 0u);
  EXPECT_TRUE(cluster.net().stats().balanced());
}

TEST(Cluster, HedgedReadBeatsAStraggler) {
  ClusterConfig cfg = make_config(6, 3);
  cfg.hedge.min_samples = 1;
  cfg.hedge.multiplier = 1.5;
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, cfg);
  const auto payload = testutil::random_vector(4 * kUnit, 88);
  cluster.put("obj", payload);
  // Clean pass to arm the per-node EWMAs.
  ASSERT_EQ(*cluster.get("obj"), payload);
  const auto nodes = cluster.placement("obj", 0);
  EXPECT_GT(cluster.node_ewma_us(nodes[0]), 0.0);

  // Stall the response link of data unit 0's node: three response sends
  // vanish, so the fourth attempt lands at ~4x the EWMA — far past the
  // 1.5x hedge budget — and the parity-backed hedge read wins the race.
  storage::FaultInjector inj;
  cluster.attach_fault_injector(&inj);
  inj.partition_link(
      storage::FaultInjector::key("link", nodes[0], cluster.net().client()),
      3);
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);  // bytes identical whichever path completes
  EXPECT_GE(cluster.stats().hedged_reads, 1u);
  EXPECT_GE(cluster.stats().hedge_wins, 1u);
}

TEST(Cluster, HedgingStaysOffBelowMinSamples) {
  ClusterConfig cfg = make_config(6, 3);
  cfg.hedge.min_samples = 100;  // never armed in this test
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, cfg);
  const auto payload = testutil::random_vector(4 * kUnit, 99);
  cluster.put("obj", payload);
  ASSERT_EQ(*cluster.get("obj"), payload);
  const auto nodes = cluster.placement("obj", 0);
  storage::FaultInjector inj;
  cluster.attach_fault_injector(&inj);
  inj.partition_link(
      storage::FaultInjector::key("link", nodes[0], cluster.net().client()),
      3);
  ASSERT_EQ(*cluster.get("obj"), payload);
  EXPECT_EQ(cluster.stats().hedged_reads, 0u);
}

TEST(Cluster, ReviveNodeRejoinsEmptyAndClearsCrashState) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  storage::FaultInjector inj;
  cluster.attach_fault_injector(&inj);
  const auto payload = testutil::random_vector(4 * kUnit, 13);
  cluster.put("obj", payload);
  const std::size_t victim = cluster.placement("obj", 0)[0];
  inj.crash_node(victim);
  EXPECT_TRUE(cluster.node_failed(victim));  // injector crash counts
  // Routing skips the crashed node, so this degraded read is the only op
  // that meets the crash, and it never marks the node failed.
  ASSERT_EQ(*cluster.get("obj"), payload);
  const std::size_t degraded = cluster.stats().degraded_reads;
  cluster.revive_node(victim);
  EXPECT_FALSE(cluster.node_failed(victim));  // crash state cleared
  // The crash took the node's unit with it: the revive owes it back, and
  // the next read still degrades until repair() rebuilds it.
  EXPECT_EQ(cluster.stats().units_lost_on_revive, 1u);
  ASSERT_EQ(*cluster.get("obj"), payload);
  EXPECT_GT(cluster.stats().degraded_reads, degraded);
  EXPECT_EQ(cluster.repair(), 1u);
  // A node failed via the cluster API also revives clean.
  cluster.fail_node(victim);
  EXPECT_TRUE(cluster.node_failed(victim));
  cluster.revive_node(victim);
  EXPECT_FALSE(cluster.node_failed(victim));
  // Its units are gone (replacement hardware): the read degrades.
  ASSERT_EQ(*cluster.get("obj"), payload);
  EXPECT_GE(cluster.stats().degraded_reads, 1u);
}

TEST(Cluster, NodeValidation) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(8, 1));
  EXPECT_THROW(cluster.fail_node(100), std::invalid_argument);
  EXPECT_THROW(cluster.revive_node(100), std::invalid_argument);
  EXPECT_FALSE(cluster.node_failed(100));  // out of range is not "down"
  EXPECT_FALSE(cluster.node_usable(100));
  cluster.fail_node(2);
  cluster.fail_node(2);  // idempotent
  EXPECT_EQ(cluster.stats().failed_nodes, 1u);
  cluster.revive_node(2);
  cluster.revive_node(2);
  EXPECT_EQ(cluster.stats().failed_nodes, 0u);
}

TEST(Cluster, CorruptUnitHookValidation) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(8, 1));
  cluster.put("obj", testutil::random_vector(1000, 32));
  EXPECT_FALSE(cluster.corrupt_unit("missing", 0, 0));
  EXPECT_FALSE(cluster.corrupt_unit("obj", 99, 0));
  EXPECT_FALSE(cluster.corrupt_unit("obj", 0, 99));
}

TEST(Cluster, RepairRestoresRedundancy) {
  // n == nodes: every node holds a unit of every stripe.
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(6, 1));
  const auto payload = testutil::random_vector(20000, 7);
  cluster.put("obj", payload);

  cluster.fail_node(1);
  cluster.revive_node(1);  // back, but empty
  const std::size_t repaired = cluster.repair();
  EXPECT_GT(repaired, 0u);
  EXPECT_EQ(cluster.stats().units_repaired, repaired);

  // A later unrelated double failure is now survivable again.
  cluster.fail_node(0);
  cluster.fail_node(2);
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

TEST(Cluster, RepairIsIdempotent) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(6, 1));
  cluster.put("obj", testutil::random_vector(5000, 8));
  cluster.fail_node(1);
  cluster.revive_node(1);
  EXPECT_GT(cluster.repair(), 0u);
  EXPECT_EQ(cluster.repair(), 0u);
}

TEST(Cluster, RepairRebuildsRevivedNodeWhileAnotherIsDown) {
  // n == nodes: a unit on a dead node has no spare to move to. Repair
  // must still rebuild what the revived node lost.
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(6, 1));
  const auto payload = testutil::random_vector(8 * 4 * kUnit, 9);
  cluster.put("obj", payload);  // 8 stripes, each on every node
  cluster.fail_node(0);
  cluster.fail_node(1);
  cluster.revive_node(1);
  EXPECT_EQ(cluster.repair(), 8u);  // node 1's unit of every stripe
  EXPECT_EQ(cluster.repair_stats().attempts_abandoned, 0u);
  EXPECT_TRUE(cluster.repair_stats().identity_holds());

  // Node 1 holds its units again, so a third failure stays within r.
  cluster.fail_node(2);
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

TEST(Cluster, WriteUnitLeavesCopiesItCouldNotStoreCrcStale) {
  // n == nodes and one stripe: unit u lives on node u.
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(6, 1));
  storage::FaultInjector inj(storage::FaultPolicy{}, 1);
  cluster.attach_fault_injector(&inj);
  auto payload = testutil::random_vector(4 * kUnit, 10);
  cluster.put("obj", payload);
  const auto fresh = testutil::random_vector(kUnit, 11);
  EXPECT_THROW(cluster.write_unit("obj", 0, 4, fresh), std::invalid_argument);
  EXPECT_THROW(cluster.read_unit("obj", 0, 6), std::invalid_argument);

  // Parity 4's node crashes unobserved, so the write re-encodes and
  // stores every unit but parity 4. The node then comes back holding
  // its old parity, which the metadata CRC recorded before the stores
  // already disowns: the scrub finds and rebuilds it.
  inj.crash_node(4);
  cluster.write_unit("obj", 0, 0, fresh);
  EXPECT_EQ(cluster.stats().full_stripe_writes, 1u);
  inj.repair_node(4);
  EXPECT_EQ(cluster.scrub(), 1u);

  // Redundancy is whole again: two failures decode the new bytes.
  std::copy(fresh.begin(), fresh.end(), payload.begin());
  cluster.fail_node(0);
  cluster.fail_node(5);
  EXPECT_EQ(cluster.get("obj"), payload);
}

TEST(Cluster, ScrubCleanOnHealthyStore) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(8, 1));
  cluster.put("a", testutil::random_vector(5000, 9));
  cluster.put("b", testutil::random_vector(7000, 10));
  EXPECT_EQ(cluster.scrub(), 0u);
}

TEST(Cluster, ScrubFindsAndRepairsCorruption) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(8, 1));
  const auto payload = testutil::random_vector(9000, 31);
  cluster.put("obj", payload);

  // Corrupt a data unit and a parity unit in different stripes.
  ASSERT_TRUE(cluster.corrupt_unit("obj", 0, 2));
  ASSERT_TRUE(cluster.corrupt_unit("obj", 1, 5));  // unit 5 is parity (k=4)
  EXPECT_EQ(cluster.scrub(), 2u);
  // Healed: a second scrub is clean and reads are exact.
  EXPECT_EQ(cluster.scrub(), 0u);
  EXPECT_EQ(*cluster.get("obj"), payload);
}

// Regression (found by the differential fuzzer, reproducer
// "fuzz:v1 s=store-fault k=7 r=1 w=16 u=16 seed=9337184620144304163
// loss=7", which now replays as s=cluster): chained transient-read
// bursts once made a scrub give up on a stripe whose only real damage was
// one corrupt unit, leaving it on disk until a node failure turned it
// into data loss. The node-local CRC scrub does no retried reads, and the
// repair it triggers must heal the unit despite the same read faults.
TEST(Cluster, ScrubHealsCorruptionDespiteTransientReadErrors) {
  const ec::CodeParams params{7, 1, 16};
  const std::uint64_t seed = 9337184620144304163ULL;
  Cluster cluster(params, 16, make_config(params.n() + 2, 1));
  storage::FaultInjector injector(
      storage::FaultPolicy{.read_bit_flip = 0.05,
                           .transient_read = 0.1,
                           .transient_failures = 2},
      seed ^ 0xFA17);
  cluster.attach_fault_injector(&injector);
  cluster.set_retry_policy(storage::RetryPolicy{.max_attempts = 6});

  const auto payload = testutil::random_vector(52, seed + 1);
  cluster.put("obj", payload);
  ASSERT_TRUE(cluster.corrupt_unit("obj", 0, 3));
  cluster.scrub();
  // The corruption must actually be healed, not merely detected.
  EXPECT_GE(cluster.stats().units_repaired, 1u);

  // One node failure is now survivable again (r = 1).
  cluster.fail_node(7);
  cluster.attach_fault_injector(nullptr);
  const auto got = cluster.get("obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

/// The store must work over every supported field size (the codec's
/// bitmatrix machinery is w-generic).
class ClusterFieldTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ClusterFieldTest, RoundTripAndRepairAcrossFields) {
  const unsigned w = GetParam();
  const std::size_t unit = 16 * 8 * w;  // multiple of 8*w
  Cluster cluster(ec::CodeParams{4, 2, w}, unit, make_config(7, 1));
  const auto payload = testutil::random_vector(3 * unit * 4 + 123, w);
  cluster.put("obj", payload);
  EXPECT_EQ(*cluster.get("obj"), payload);

  cluster.fail_node(1);
  cluster.fail_node(4);
  EXPECT_EQ(*cluster.get("obj"), payload);
  cluster.revive_node(1);
  cluster.revive_node(4);
  EXPECT_GT(cluster.repair(), 0u);
  EXPECT_EQ(cluster.scrub(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllFields, ClusterFieldTest,
                         ::testing::Values(4u, 8u, 16u),
                         [](const auto& info) {
                           return "w" + std::to_string(info.param);
                         });

TEST(Cluster, VirtualTimeAccumulatesOnReadsAndWrites) {
  Cluster cluster(ec::CodeParams{4, 2, 8}, kUnit, make_config(9, 3));
  const auto payload = testutil::random_vector(4 * kUnit, 17);
  cluster.put("obj", payload);
  EXPECT_GT(cluster.stats().write_virtual_us, 0u);
  ASSERT_TRUE(cluster.get("obj").has_value());
  EXPECT_GT(cluster.stats().read_virtual_us, 0u);
}

}  // namespace
}  // namespace tvmec::cluster
