#include "storage/fault_injector.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "storage/retry.h"

namespace tvmec::storage {
namespace {

std::vector<std::uint8_t> bytes(std::size_t size, std::uint64_t seed) {
  return testutil::random_vector(size, seed);
}

TEST(FaultInjector, QuietPolicyNeverFaults) {
  FaultInjector inj;  // all probabilities zero
  auto payload = bytes(256, 1);
  const auto original = payload;
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(inj.on_write(0, FaultInjector::key("obj", 0, i), payload));
    EXPECT_EQ(inj.on_read(0, FaultInjector::key("obj", 0, i), payload),
              ReadFault::None);
  }
  EXPECT_EQ(payload, original);
  EXPECT_EQ(inj.stats().reads, 50u);
  EXPECT_EQ(inj.stats().writes, 50u);
  EXPECT_EQ(inj.stats().writes_corrupted, 0u);
  EXPECT_EQ(inj.stats().crashes, 0u);
}

TEST(FaultInjector, WriteBitFlipChangesExactlyOneBit) {
  FaultPolicy policy;
  policy.write_bit_flip = 1.0;
  FaultInjector inj(policy, 7);
  auto payload = bytes(512, 2);
  const auto original = payload;
  ASSERT_TRUE(inj.on_write(3, FaultInjector::key("obj", 0, 0), payload));
  std::size_t bits_changed = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    std::uint8_t diff = payload[i] ^ original[i];
    while (diff) {
      bits_changed += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(bits_changed, 1u);
  EXPECT_EQ(inj.stats().write_bit_flips, 1u);
  EXPECT_EQ(inj.stats().writes_corrupted, 1u);
}

TEST(FaultInjector, TornWriteCorruptsTail) {
  FaultPolicy policy;
  policy.torn_write = 1.0;
  FaultInjector inj(policy, 11);
  auto payload = bytes(512, 3);
  const auto original = payload;
  ASSERT_TRUE(inj.on_write(0, FaultInjector::key("obj", 0, 0), payload));
  // Some prefix is intact, and a suffix of >= 8 bytes was replaced.
  std::size_t first_diff = payload.size();
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (payload[i] != original[i]) {
      first_diff = i;
      break;
    }
  }
  ASSERT_LT(first_diff, payload.size());
  EXPECT_LE(first_diff, payload.size() - 8);
  EXPECT_NE(payload, original);
  EXPECT_EQ(inj.stats().torn_writes, 1u);
}

TEST(FaultInjector, TransientBurstFailsNTimesThenSucceeds) {
  FaultPolicy policy;
  policy.transient_read = 1.0;
  policy.transient_failures = 3;
  FaultInjector inj(policy, 13);
  auto payload = bytes(64, 4);
  const std::uint64_t key = FaultInjector::key("obj", 0, 0);

  // Burst: 3 failures for this unit...
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(inj.on_read(0, key, payload), ReadFault::Transient) << i;
  // ...then the policy (probability 1) immediately starts a new burst,
  // so drop the probability to model the transient clearing.
  FaultPolicy clear = policy;
  clear.transient_read = 0.0;
  inj.set_policy(clear);
  EXPECT_EQ(inj.on_read(0, key, payload), ReadFault::None);
  EXPECT_EQ(inj.stats().transient_bursts, 1u);
  EXPECT_EQ(inj.stats().transient_errors, 3u);
}

TEST(FaultInjector, InFlightBurstSurvivesPolicySwap) {
  FaultPolicy policy;
  policy.transient_read = 1.0;
  policy.transient_failures = 4;
  FaultInjector inj(policy, 17);
  auto payload = bytes(64, 5);
  const std::uint64_t key = FaultInjector::key("obj", 1, 2);
  EXPECT_EQ(inj.on_read(0, key, payload), ReadFault::Transient);
  inj.set_policy(FaultPolicy{});  // clean policy mid-burst
  // The remaining 3 failures of the burst still fire.
  EXPECT_EQ(inj.on_read(0, key, payload), ReadFault::Transient);
  EXPECT_EQ(inj.on_read(0, key, payload), ReadFault::Transient);
  EXPECT_EQ(inj.on_read(0, key, payload), ReadFault::Transient);
  EXPECT_EQ(inj.on_read(0, key, payload), ReadFault::None);
  // Distinct units are unaffected.
  EXPECT_EQ(inj.on_read(0, FaultInjector::key("obj", 9, 9), payload),
            ReadFault::None);
}

TEST(FaultInjector, CrashIsPermanentUntilRepaired) {
  FaultPolicy policy;
  policy.crash = 1.0;
  FaultInjector inj(policy, 19);
  auto payload = bytes(64, 6);
  EXPECT_FALSE(inj.on_write(2, FaultInjector::key("obj", 0, 0), payload));
  EXPECT_TRUE(inj.crashed(2));
  EXPECT_EQ(inj.stats().crashes, 1u);
  // Already-dead node: ops fail without another crash being counted.
  EXPECT_EQ(inj.on_read(2, FaultInjector::key("obj", 0, 1), payload),
            ReadFault::Crash);
  EXPECT_FALSE(inj.on_write(2, FaultInjector::key("obj", 0, 2), payload));
  EXPECT_EQ(inj.stats().crashes, 1u);
  // Other nodes crash independently.
  EXPECT_FALSE(inj.crashed(3));

  inj.set_policy(FaultPolicy{});
  inj.repair_node(2);
  EXPECT_FALSE(inj.crashed(2));
  EXPECT_TRUE(inj.on_write(2, FaultInjector::key("obj", 0, 3), payload));
}

TEST(FaultInjector, ManualCrashHook) {
  FaultInjector inj;
  inj.crash_node(5);
  EXPECT_TRUE(inj.crashed(5));
  EXPECT_EQ(inj.stats().crashes, 1u);
  inj.crash_node(5);  // idempotent
  EXPECT_EQ(inj.stats().crashes, 1u);
}

TEST(FaultInjector, DelayIsAccounted) {
  FaultPolicy policy;
  policy.delay = 1.0;
  policy.delay_amount = std::chrono::microseconds{250};
  FaultInjector inj(policy, 23);
  auto payload = bytes(64, 7);
  inj.on_write(0, FaultInjector::key("obj", 0, 0), payload);
  inj.on_read(0, FaultInjector::key("obj", 0, 0), payload);
  EXPECT_EQ(inj.stats().delays, 2u);
  EXPECT_EQ(inj.stats().delay_injected, std::chrono::microseconds{500});
}

/// Same seed + same op sequence -> byte-identical faults. The contract
/// every chaos test rests on.
TEST(FaultInjector, DeterministicUnderSeed) {
  FaultPolicy policy;
  policy.write_bit_flip = 0.3;
  policy.torn_write = 0.2;
  policy.read_bit_flip = 0.2;
  policy.transient_read = 0.2;
  policy.crash = 0.02;

  const auto run = [&policy] {
    FaultInjector inj(policy, 99);
    std::vector<std::uint8_t> trace;
    for (std::size_t op = 0; op < 300; ++op) {
      auto payload = bytes(128, op);
      const std::size_t node = op % 7;
      const std::uint64_t key = FaultInjector::key("obj", op / 10, op % 10);
      if (op % 2 == 0) {
        inj.on_write(node, key, payload);
      } else {
        const ReadFault f = inj.on_read(node, key, payload);
        trace.push_back(static_cast<std::uint8_t>(f));
      }
      trace.insert(trace.end(), payload.begin(), payload.end());
    }
    return std::make_tuple(trace, inj.stats().write_bit_flips,
                           inj.stats().torn_writes, inj.stats().crashes,
                           inj.stats().transient_errors,
                           inj.stats().read_bit_flips);
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultPolicy policy;
  policy.write_bit_flip = 0.5;
  FaultInjector a(policy, 1), b(policy, 2);
  std::size_t diverged = 0;
  for (std::size_t op = 0; op < 64; ++op) {
    auto pa = bytes(64, op);
    auto pb = pa;
    a.on_write(0, op, pa);
    b.on_write(0, op, pb);
    if (pa != pb) ++diverged;
  }
  EXPECT_GT(diverged, 0u);
}

TEST(FaultInjector, KeysAreStable) {
  EXPECT_EQ(FaultInjector::key("obj", 1, 2), FaultInjector::key("obj", 1, 2));
  EXPECT_NE(FaultInjector::key("obj", 1, 2), FaultInjector::key("obj", 2, 1));
  EXPECT_NE(FaultInjector::key("a", 0, 0), FaultInjector::key("b", 0, 0));
}

TEST(FaultInjector, QuietPolicyNeverFaultsLinks) {
  FaultInjector inj;
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(inj.on_send(FaultInjector::key("link", 0, 1)), LinkFault::None);
  EXPECT_EQ(inj.stats().link_sends, 50u);
  EXPECT_EQ(inj.stats().link_drops, 0u);
  EXPECT_EQ(inj.stats().link_duplicates, 0u);
  EXPECT_EQ(inj.stats().partitions_opened, 0u);
}

TEST(FaultInjector, LinkDropAndDuplicateRoll) {
  FaultPolicy policy;
  policy.link_drop = 1.0;
  FaultInjector inj(policy, 11);
  EXPECT_EQ(inj.on_send(FaultInjector::key("link", 0, 1)), LinkFault::Drop);
  EXPECT_EQ(inj.stats().link_drops, 1u);

  policy.link_drop = 0.0;
  policy.link_duplicate = 1.0;
  inj.set_policy(policy);
  EXPECT_EQ(inj.on_send(FaultInjector::key("link", 0, 1)),
            LinkFault::Duplicate);
  EXPECT_EQ(inj.stats().link_duplicates, 1u);
  EXPECT_EQ(inj.stats().link_sends, 2u);
}

TEST(FaultInjector, PartitionWindowDropsNSendsThenHeals) {
  FaultPolicy policy;
  policy.link_partition = 1.0;
  policy.partition_ops = 3;
  FaultInjector inj(policy, 13);
  const auto link = FaultInjector::key("link", 2, 5);
  // First send opens the window and is eaten by it.
  EXPECT_EQ(inj.on_send(link), LinkFault::Drop);
  EXPECT_TRUE(inj.link_partitioned(link));
  // Window consumption ignores the live policy — swap to quiet and the
  // remaining 2 window ops still drop (mirrors transient-burst rules).
  inj.set_policy(FaultPolicy{});
  EXPECT_EQ(inj.on_send(link), LinkFault::Drop);
  EXPECT_EQ(inj.on_send(link), LinkFault::Drop);
  EXPECT_FALSE(inj.link_partitioned(link));
  EXPECT_EQ(inj.on_send(link), LinkFault::None);
  EXPECT_EQ(inj.stats().partitions_opened, 1u);
  EXPECT_EQ(inj.stats().partition_drops, 3u);
  EXPECT_EQ(inj.stats().link_drops, 0u);  // partition drops counted apart
}

TEST(FaultInjector, PartitionIsPerLink) {
  FaultInjector inj;
  const auto bad = FaultInjector::key("link", 0, 1);
  const auto good = FaultInjector::key("link", 1, 0);
  inj.partition_link(bad, 2);
  EXPECT_EQ(inj.on_send(bad), LinkFault::Drop);
  EXPECT_EQ(inj.on_send(good), LinkFault::None);
  inj.heal_link(bad);
  EXPECT_EQ(inj.on_send(bad), LinkFault::None);
  EXPECT_EQ(inj.stats().partition_drops, 1u);
}

TEST(FaultInjector, LinkFaultsDeterministicUnderSeed) {
  FaultPolicy policy;
  policy.link_drop = 0.2;
  policy.link_duplicate = 0.1;
  policy.link_partition = 0.05;
  policy.partition_ops = 4;
  const auto run = [&](std::uint64_t seed) {
    FaultInjector inj(policy, seed);
    std::vector<LinkFault> out;
    for (int i = 0; i < 200; ++i)
      out.push_back(
          inj.on_send(FaultInjector::key("link", i % 4, (i + 1) % 4)));
    return out;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(RetryPolicy, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy;
  policy.base_delay = std::chrono::microseconds{100};
  policy.max_delay = std::chrono::microseconds{1000};
  policy.jitter = 0.0;  // exact values
  EXPECT_EQ(policy.backoff(1, 42).count(), 0);    // first attempt: no wait
  EXPECT_EQ(policy.backoff(2, 42).count(), 100);  // base
  EXPECT_EQ(policy.backoff(3, 42).count(), 200);
  EXPECT_EQ(policy.backoff(4, 42).count(), 400);
  EXPECT_EQ(policy.backoff(5, 42).count(), 800);
  EXPECT_EQ(policy.backoff(6, 42).count(), 1000);  // capped
  EXPECT_EQ(policy.backoff(60, 42).count(), 1000);  // no overflow
}

TEST(RetryPolicy, JitterIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.base_delay = std::chrono::microseconds{1000};
  policy.max_delay = std::chrono::microseconds{100000};
  policy.jitter = 0.5;
  for (std::size_t attempt = 2; attempt < 8; ++attempt) {
    const auto a = policy.backoff(attempt, 7);
    const auto b = policy.backoff(attempt, 7);
    EXPECT_EQ(a, b);  // same salt -> same jitter
    const std::int64_t full = 1000ll << (attempt - 2);
    EXPECT_GE(a.count(), full / 2);
    EXPECT_LE(a.count(), full);
  }
  // Different salts give different delays somewhere in the range.
  bool any_diff = false;
  for (std::uint64_t salt = 0; salt < 8; ++salt)
    any_diff |= policy.backoff(3, salt) != policy.backoff(3, salt + 100);
  EXPECT_TRUE(any_diff);
}

TEST(RetryPolicy, WithRetriesSucceedsAfterTransientFailures) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  RetryStats stats;
  int calls = 0;
  const bool ok = with_retries(policy, stats, 1, [&]() {
    ++calls;
    return calls < 3 ? Attempt::Retry : Attempt::Success;
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.exhausted, 0u);
  EXPECT_GT(stats.backoff_total.count(), 0);
}

TEST(RetryPolicy, WithRetriesExhaustsBudget) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  RetryStats stats;
  int calls = 0;
  const bool ok = with_retries(policy, stats, 2, [&]() {
    ++calls;
    return Attempt::Retry;
  });
  EXPECT_FALSE(ok);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(stats.exhausted, 1u);
}

TEST(RetryPolicy, WithRetriesAbortsImmediately) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  RetryStats stats;
  int calls = 0;
  const bool ok = with_retries(policy, stats, 3, [&]() {
    ++calls;
    return Attempt::Abort;
  });
  EXPECT_FALSE(ok);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stats.exhausted, 0u);  // abort is permanent, not exhaustion
}

}  // namespace
}  // namespace tvmec::storage
