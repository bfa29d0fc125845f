#include "testing/diff_fuzzer.h"

#include <gtest/gtest.h>

#include <random>

#include "testing/fuzz_config.h"

/// Tier-1 fuzz smoke: fixed seeds, small iteration budget (~2 s), zero
/// divergences expected across every backend and scenario. The
/// open-ended randomized campaign lives in CI's scheduled job
/// (fuzz_repro --random), not here — ctest must stay fast and
/// deterministic.
namespace tvmec::testing {
namespace {

TEST(FuzzRepro, FormatParseRoundTrip) {
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const FuzzConfig config = random_config(rng);
    const std::string text = format_repro(config);
    EXPECT_EQ(parse_repro(text), config) << text;
  }
}

TEST(FuzzRepro, FormatIsStable) {
  FuzzConfig config;
  config.scenario = Scenario::RsDecode;
  config.family = ec::RsFamily::CauchyGood;
  config.k = 6;
  config.r = 3;
  config.w = 8;
  config.unit_size = 128;
  config.seed = 42;
  config.losses = {1, 3};
  config.sched = 2;
  EXPECT_EQ(format_repro(config),
            "fuzz:v1 s=rs-decode f=cauchy-good k=6 r=3 w=8 u=128 seed=42 "
            "loss=1,3 sched=2");

  FuzzConfig scattered;
  scattered.scenario = Scenario::RsEncode;
  scattered.k = 4;
  scattered.r = 2;
  scattered.unit_size = 64;
  scattered.seed = 7;
  scattered.frag = 12345;
  EXPECT_EQ(format_repro(scattered),
            "fuzz:v1 s=rs-encode f=cauchy-good k=4 r=2 w=8 u=64 seed=7 "
            "frag=12345");
  EXPECT_EQ(parse_repro(format_repro(scattered)), scattered);
}

TEST(FuzzRepro, VariantAxisRoundTripsAndDefaultsStayImplicit) {
  FuzzConfig config;
  config.scenario = Scenario::RsEncode;
  config.k = 4;
  config.r = 2;
  config.unit_size = 64;
  config.seed = 7;
  config.variant = tensor::KernelVariant::Scalar;
  EXPECT_EQ(format_repro(config),
            "fuzz:v1 s=rs-encode f=cauchy-good k=4 r=2 w=8 u=64 seed=7 "
            "var=scalar");
  EXPECT_EQ(parse_repro(format_repro(config)), config);

  // Auto is the default and must not appear in the repro string, so
  // pre-variant reproducers and new ones share one format.
  config.variant = tensor::KernelVariant::Auto;
  EXPECT_EQ(format_repro(config),
            "fuzz:v1 s=rs-encode f=cauchy-good k=4 r=2 w=8 u=64 seed=7");

  // Any tier the binary knows parses, even if this host can't run it —
  // the guard degrades to best-available at run time instead.
  const FuzzConfig neon = parse_repro(
      "fuzz:v1 s=rs-encode k=4 r=2 w=8 u=64 seed=7 var=neon");
  EXPECT_EQ(neon.variant, tensor::KernelVariant::Neon);
  const FuzzConfig gfni = parse_repro(
      "fuzz:v1 s=rs-encode k=4 r=2 w=8 u=64 seed=7 var=gfni");
  EXPECT_EQ(gfni.variant, tensor::KernelVariant::Gfni);
  EXPECT_EQ(format_repro(gfni),
            "fuzz:v1 s=rs-encode f=cauchy-good k=4 r=2 w=8 u=64 seed=7 "
            "var=gfni");
}

TEST(FuzzRepro, ParseRejectsMalformedInput) {
  EXPECT_THROW(parse_repro(""), std::invalid_argument);
  EXPECT_THROW(parse_repro("fuzz:v2 s=rs-encode"), std::invalid_argument);
  EXPECT_THROW(parse_repro("fuzz:v1 s=bogus"), std::invalid_argument);
  EXPECT_THROW(parse_repro("fuzz:v1 qq=1"), std::invalid_argument);
  EXPECT_THROW(parse_repro("fuzz:v1 k=abc"), std::invalid_argument);
  EXPECT_THROW(parse_repro("fuzz:v1 s=rs-encode k=0"),
               std::invalid_argument);
  // Unit size must be a multiple of w.
  EXPECT_THROW(parse_repro("fuzz:v1 s=rs-encode k=4 r=2 w=8 u=60"),
               std::invalid_argument);
  // The scattered axis only applies to encode iterations.
  EXPECT_THROW(parse_repro("fuzz:v1 s=rs-decode k=4 r=2 w=8 u=64 frag=5"),
               std::invalid_argument);
  // So does the variant axis; unknown tier names are rejected outright.
  EXPECT_THROW(
      parse_repro("fuzz:v1 s=rs-decode k=4 r=2 w=8 u=64 loss=1 var=scalar"),
      std::invalid_argument);
  EXPECT_THROW(parse_repro("fuzz:v1 s=rs-encode k=4 r=2 w=8 u=64 var=sse9"),
               std::invalid_argument);
}

TEST(FuzzConfigGen, AlwaysValidAndDeterministic) {
  std::mt19937_64 a(7), b(7);
  for (int trial = 0; trial < 300; ++trial) {
    const FuzzConfig ca = random_config(a);
    const FuzzConfig cb = random_config(b);
    EXPECT_EQ(ca, cb);
    EXPECT_NO_THROW(ca.validate());
  }
}

/// The fixed-seed smoke sweep: every scenario, every backend, zero
/// divergences. A failure here prints the exact reproducer to hand to
/// `fuzz_repro`.
TEST(DiffFuzz, FixedSeedSmokeSweepFindsNoDivergence) {
  const FuzzOutcome outcome = DiffFuzzer::run_campaign(/*seed=*/1, 150);
  EXPECT_TRUE(outcome.ok) << outcome.repro << "\n" << outcome.detail;
  EXPECT_EQ(outcome.iterations, 150u);
}

TEST(DiffFuzz, CampaignIsDeterministic) {
  const FuzzOutcome a = DiffFuzzer::run_campaign(/*seed=*/9, 5);
  const FuzzOutcome b = DiffFuzzer::run_campaign(/*seed=*/9, 5);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.repro, b.repro);
}

/// Replay of the edge-case configs this PR's bug sweep fixed. Each was
/// a divergence (or spurious throw) on the pre-PR code.
TEST(DiffFuzz, EdgeCaseReprosPass) {
  const char* repros[] = {
      // unit_size == w: one-byte packets, the staging/padding path.
      "fuzz:v1 s=rs-encode k=4 r=2 w=8 u=8 seed=3",
      "fuzz:v1 s=rs-encode k=4 r=2 w=16 u=16 seed=3",
      // k == 1: single data unit.
      "fuzz:v1 s=rs-encode k=1 r=3 w=8 u=64 seed=4",
      "fuzz:v1 s=rs-decode k=1 r=2 w=8 u=64 seed=4 loss=0",
      // r == 0: degenerate striping-only code, nothing to encode.
      "fuzz:v1 s=rs-encode k=5 r=0 w=8 u=64 seed=5",
      // The scattered arms: fragmented operands and per-unit buffers,
      // aligned/misaligned mixed, across families, schedules, and the
      // degenerate shapes.
      "fuzz:v1 s=rs-encode k=4 r=2 w=8 u=64 seed=5 frag=1",
      "fuzz:v1 s=rs-encode k=10 r=4 w=8 u=512 seed=5 sched=2 frag=99",
      "fuzz:v1 s=rs-encode f=vandermonde k=6 r=3 w=16 u=128 seed=5 frag=7",
      "fuzz:v1 s=rs-encode k=1 r=1 w=8 u=8 seed=5 frag=3",
      "fuzz:v1 s=rs-encode k=5 r=0 w=8 u=64 seed=5 frag=2",
      "fuzz:v1 s=rs-encode k=3 r=2 w=4 u=4 seed=5 sched=4 frag=11",
      // Unsorted and duplicate loss ids must decode identically.
      "fuzz:v1 s=rs-decode k=6 r=3 w=8 u=64 seed=6 loss=3,1",
      "fuzz:v1 s=rs-decode k=6 r=3 w=8 u=64 seed=6 loss=2,2",
      // More losses than parities must be a clean invalid_argument.
      "fuzz:v1 s=rs-decode k=4 r=2 w=8 u=64 seed=7 loss=0,1,2",
      // Unit size a multiple of w but not of 8*w (staging path) across
      // decode, LRC, and the object store. The s=store and s=store-fault
      // lines below were found against a single-node store that has
      // since been folded into the cluster; they replay as s=cluster.
      "fuzz:v1 s=rs-decode k=5 r=2 w=8 u=24 seed=8 loss=1,6",
      "fuzz:v1 s=lrc k=6 l=2 r=2 w=8 u=8 seed=9 loss=0,7",
      "fuzz:v1 s=store k=3 r=2 w=8 u=16 seed=10 loss=0,3",
      "fuzz:v1 s=store-fault k=3 r=2 w=8 u=16 seed=11 loss=2",
      // Campaign-found regressions (see CHANGES.md postmortems): both
      // exposed a scrub giving up on stripes whose extra "erasure" was
      // only a transient read-retry exhaustion, leaving latent
      // corruption unhealed until a node failure turned it into data
      // loss.
      "fuzz:v1 s=store-fault k=10 r=1 w=4 u=4 seed=8184440594662820529 "
      "loss=4",
      "fuzz:v1 s=store-fault k=7 r=1 w=16 u=16 seed=9337184620144304163 "
      "loss=7",
      // Campaign-found: an injected read-side bit flip landed on the
      // exact bit that was corrupt on disk, so a scrub read CRC'd clean
      // while the persisted copy stayed bad — latent corruption that
      // later stacked with two node failures past r. The cluster's scrub
      // CRCs each stored copy on its own node, which this shape pins.
      "fuzz:v1 s=store-fault k=4 r=2 w=16 u=16 seed=10867058663792815222 "
      "loss=3,5",
      // Serving layer: random request mixes through a one-shard front
      // (manual pump, no threads) vs the sequential per-request oracle,
      // including deadline expiry and queue-capacity admission
      // accounting.
      "fuzz:v1 s=serve k=4 r=2 w=8 u=64 seed=12 loss=1,4",
      "fuzz:v1 s=serve k=1 r=0 w=8 u=8 seed=13",
      "fuzz:v1 s=serve k=6 r=3 w=16 u=48 seed=14 loss=0 sched=3",
      "fuzz:v1 s=serve k=10 r=4 w=8 u=24 seed=15 loss=2,11 sched=1",
      // Chaos serving: cancels, pre-expired deadlines with shedding,
      // injected primary-backend faults with the breaker enabled —
      // completed bytes must still match the oracle and the widened
      // counter identities must balance. Seeds picked to land each
      // breaker configuration (instant-probe and never-probe cooldowns).
      "fuzz:v1 s=serve-chaos k=4 r=2 w=8 u=64 seed=16 loss=1,4",
      "fuzz:v1 s=serve-chaos k=1 r=1 w=8 u=8 seed=17 loss=0,0",
      "fuzz:v1 s=serve-chaos k=6 r=3 w=16 u=48 seed=18 loss=5,2 sched=3",
      "fuzz:v1 s=serve-chaos k=10 r=4 w=8 u=24 seed=19 loss=2,11,7 sched=1",
      "fuzz:v1 s=serve-chaos k=5 r=3 w=4 u=64 seed=20 loss=1,1,3 sched=4",
      // Campaign-found: a decode with more than r distinct erasures once
      // failed inside the batched kernel call, whose throw the breaker
      // counted as a backend fault ("trips > injected faults"). It now
      // fails at formation, before any kernel.
      "fuzz:v1 s=serve-chaos f=cauchy-good k=4 r=2 w=8 u=64 seed=3 "
      "loss=0,1,2",
      "fuzz:v1 s=serve-chaos f=cauchy-good k=4 r=1 w=8 u=8 "
      "seed=8820761338546271347 loss=1,4",
      // Sharded multi-tenant serving: random tenant/client mixes through
      // ShardedEcService (manual pump) vs the same sequential oracle —
      // client-to-shard hashing, front-level QoS shares (skewed weights
      // on half the seeds), opportunistic steal scans, and the
      // per-tenant counter identities asserted unconditionally against
      // a request-by-request mirror.
      "fuzz:v1 s=serve-shard k=4 r=2 w=8 u=64 seed=26 loss=1,4",
      "fuzz:v1 s=serve-shard k=1 r=1 w=8 u=8 seed=27 loss=0",
      "fuzz:v1 s=serve-shard k=6 r=3 w=16 u=48 seed=28 loss=5,2 sched=3",
      "fuzz:v1 s=serve-shard k=10 r=4 w=8 u=24 seed=29 loss=2,11,7 sched=1",
      "fuzz:v1 s=serve-shard k=5 r=0 w=8 u=64 seed=30",
      // Simulated multi-node cluster: put/fail_node/get under seeded
      // disk + link chaos (drops, duplicates, partition windows, hedged
      // degraded reads). Returned bytes must match the original payload
      // and the network byte ledger must balance.
      "fuzz:v1 s=cluster k=4 r=2 w=8 u=64 seed=7 loss=1,4",
      "fuzz:v1 s=cluster k=1 r=1 w=4 u=4 seed=3 loss=0",
      "fuzz:v1 s=cluster k=6 r=3 w=16 u=48 seed=21 loss=2,5,8",
      "fuzz:v1 s=cluster k=5 r=2 w=8 u=24 seed=33 loss=6",
      // Cluster DAG repair under chaos with mid-repair faults (helper
      // crashes, partitions): the repair counter identity and the
      // network ledger must balance, and the healed cluster must read
      // back byte-identical to the original payload.
      "fuzz:v1 s=cluster-repair k=6 r=3 w=8 u=128 seed=11 loss=2,5",
      "fuzz:v1 s=cluster-repair f=vandermonde k=4 r=2 w=16 u=32 seed=9 "
      "loss=3",
      "fuzz:v1 s=cluster-repair k=1 r=1 w=8 u=8 seed=17 loss=1",
      "fuzz:v1 s=cluster-repair k=8 r=3 w=8 u=64 seed=1234567 loss=0,4,9",
      // Self-healing control plane: a scripted campaign of crashes,
      // revives, rewrites, and corruption against a live healer
      // (heartbeat membership, risk-prioritized queue, token bucket).
      // After convergence every stripe must be fully redundant, reads
      // must be byte-identical, and the membership/healer/repair/ledger
      // identities must balance unconditionally.
      "fuzz:v1 s=cluster-heal k=4 r=2 w=8 u=64 seed=7 loss=1,4",
      "fuzz:v1 s=cluster-heal k=6 r=3 w=8 u=128 seed=21 loss=2",
      "fuzz:v1 s=cluster-heal k=1 r=1 w=4 u=4 seed=13",
      "fuzz:v1 s=cluster-heal f=vandermonde k=8 r=3 w=16 u=32 seed=5 "
      "loss=9,3",
      "fuzz:v1 s=cluster-heal k=5 r=2 w=8 u=24 seed=33 loss=6",
      // Variant-pinned encode: the whole iteration runs under a forced
      // kernel tier, and the cross-variant arm diffs it against a
      // forced-scalar rerun. Scalar is always available; higher tiers
      // degrade to best-available on hosts that lack them.
      "fuzz:v1 s=rs-encode k=10 r=4 w=8 u=512 seed=21 var=scalar",
      "fuzz:v1 s=rs-encode k=4 r=2 w=8 u=64 seed=22 sched=5 var=scalar",
      "fuzz:v1 s=rs-encode k=6 r=3 w=8 u=1000 seed=23 var=avx2",
      "fuzz:v1 s=rs-encode k=8 r=2 w=8 u=4096 seed=24 frag=5 var=avx512",
      "fuzz:v1 s=rs-encode k=3 r=2 w=16 u=96 seed=25 var=avx512",
      // The Gfni tier on ragged shapes: a w=4 code whose K = 20 and M = 12
      // end inside 8-row groups, at 3-word packets (less than one 8-word
      // chunk), and an odd k at w=8 whose 17-word packets leave a 1-word
      // tail chunk, under 8-row k-blocks and the scattered arms.
      "fuzz:v1 s=rs-encode k=5 r=3 w=4 u=96 seed=31 var=gfni",
      "fuzz:v1 s=rs-encode k=7 r=3 w=8 u=1088 seed=32 sched=2 frag=9 "
      "var=gfni",
  };
  for (const char* text : repros) {
    const FuzzOutcome outcome = DiffFuzzer::run_one(parse_repro(text));
    EXPECT_TRUE(outcome.ok) << text << "\n" << outcome.detail;
  }
  EXPECT_EQ(
      parse_repro("fuzz:v1 s=store-fault k=3 r=2 w=8 u=16 seed=11 loss=2")
          .scenario,
      Scenario::Cluster);
}

/// The minimizer against a synthetic bug: "fails whenever loss id 3 is
/// present". It must strip everything irrelevant while keeping the
/// failure alive.
TEST(Minimizer, ShrinksToMinimalFailingConfig) {
  FuzzConfig start;
  start.scenario = Scenario::RsDecode;
  start.family = ec::RsFamily::Cauchy;
  start.k = 8;
  start.r = 4;
  start.w = 8;
  start.unit_size = 256;
  start.seed = 5;
  start.losses = {1, 3, 5};
  start.sched = 3;
  const auto fails = [](const FuzzConfig& c) {
    for (const std::size_t id : c.losses)
      if (id == 3) return true;
    return false;
  };
  ASSERT_TRUE(fails(start));
  const FuzzConfig min = DiffFuzzer::minimize(start, fails);
  EXPECT_TRUE(fails(min));
  EXPECT_EQ(min.losses, (std::vector<std::size_t>{3}));
  // Everything irrelevant to the predicate is reset / shrunk.
  EXPECT_EQ(min.unit_size, min.w);
  EXPECT_EQ(min.sched, 0u);
  EXPECT_EQ(min.family, ec::RsFamily::CauchyGood);
  // The shape can only shrink while keeping loss id 3 addressable.
  EXPECT_GE(min.n(), 4u);
  EXPECT_LT(min.n(), start.n());
}

TEST(Minimizer, DropsIrrelevantVariantPin) {
  FuzzConfig start;
  start.scenario = Scenario::RsEncode;
  start.k = 1;
  start.r = 0;
  start.w = 8;
  start.unit_size = 8;
  start.seed = 1;
  start.variant = tensor::KernelVariant::Scalar;
  const FuzzConfig min =
      DiffFuzzer::minimize(start, [](const FuzzConfig&) { return true; });
  EXPECT_EQ(min.variant, tensor::KernelVariant::Auto);
}

TEST(Minimizer, FixedPointWhenNothingShrinks) {
  FuzzConfig start;
  start.scenario = Scenario::RsEncode;
  start.k = 1;
  start.r = 0;
  start.w = 8;
  start.unit_size = 8;
  start.seed = 1;
  const FuzzConfig min =
      DiffFuzzer::minimize(start, [](const FuzzConfig&) { return true; });
  EXPECT_EQ(min, start);
}

TEST(ScheduleMenu, AllEntriesAreValid) {
  const auto& menu = DiffFuzzer::schedule_menu();
  ASSERT_GE(menu.size(), 5u);
  for (const tensor::Schedule& s : menu) EXPECT_TRUE(s.valid());
}

}  // namespace
}  // namespace tvmec::testing
