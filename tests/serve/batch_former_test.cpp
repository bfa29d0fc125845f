// serve/batch_former.h — admission control and batch formation,
// including the edge cases: oversized-head bypass, byte/request caps,
// cross-lane FIFO, close/drain semantics, and concurrent producers.

#include "serve/batch_former.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace tvmec::serve {
namespace {

PendingRequest make_request(RequestKind kind, std::size_t k,
                            std::size_t payload_bytes) {
  PendingRequest p;
  p.req.kind = kind;
  p.req.key = CodecKey{k, 2, 8, ec::RsFamily::CauchyGood};
  p.completion = std::make_shared<detail::Completion>();
  p.submitted = Clock::now();
  p.payload_bytes = payload_bytes;
  return p;
}

TEST(BatchFormer, RejectsZeroPolicy) {
  EXPECT_THROW(BatchFormer(BatchPolicy{.queue_capacity = 0}),
               std::invalid_argument);
  EXPECT_THROW(BatchFormer(BatchPolicy{.max_batch_requests = 0}),
               std::invalid_argument);
  EXPECT_THROW(BatchFormer(BatchPolicy{.max_batch_bytes = 0}),
               std::invalid_argument);
}

TEST(BatchFormer, CoalescesSameClassUpToRequestCap) {
  BatchFormer former(BatchPolicy{.max_batch_requests = 3});
  for (int i = 0; i < 5; ++i)
    ASSERT_EQ(former.push(make_request(RequestKind::Encode, 4, 64)),
              PushResult::Accepted);
  std::vector<PendingRequest> batch;
  ASSERT_TRUE(former.try_next_batch(batch));
  EXPECT_EQ(batch.size(), 3u);  // capped
  ASSERT_TRUE(former.try_next_batch(batch));
  EXPECT_EQ(batch.size(), 2u);  // remainder
  EXPECT_FALSE(former.try_next_batch(batch));
  EXPECT_EQ(former.pending(), 0u);
}

TEST(BatchFormer, DistinctClassesNeverMix) {
  BatchFormer former(BatchPolicy{});
  ASSERT_EQ(former.push(make_request(RequestKind::Encode, 4, 64)),
            PushResult::Accepted);
  ASSERT_EQ(former.push(make_request(RequestKind::Decode, 4, 64)),
            PushResult::Accepted);
  ASSERT_EQ(former.push(make_request(RequestKind::Encode, 6, 64)),
            PushResult::Accepted);
  std::vector<PendingRequest> batch;
  // Oldest head first: the k=4 encode lane, then decode, then k=6.
  ASSERT_TRUE(former.try_next_batch(batch));
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].req.kind, RequestKind::Encode);
  EXPECT_EQ(batch[0].req.key.k, 4u);
  ASSERT_TRUE(former.try_next_batch(batch));
  EXPECT_EQ(batch[0].req.kind, RequestKind::Decode);
  ASSERT_TRUE(former.try_next_batch(batch));
  EXPECT_EQ(batch[0].req.key.k, 6u);
}

TEST(BatchFormer, OldestLaneServedFirstAcrossClasses) {
  BatchFormer former(BatchPolicy{});
  ASSERT_EQ(former.push(make_request(RequestKind::Decode, 4, 64)),
            PushResult::Accepted);
  for (int i = 0; i < 3; ++i)
    ASSERT_EQ(former.push(make_request(RequestKind::Encode, 4, 64)),
              PushResult::Accepted);
  std::vector<PendingRequest> batch;
  ASSERT_TRUE(former.try_next_batch(batch));
  // The decode arrived first; its lane wins even though the encode lane
  // is longer — no class can be starved.
  EXPECT_EQ(batch[0].req.kind, RequestKind::Decode);
}

TEST(BatchFormer, ByteCapSplitsBatches) {
  BatchFormer former(BatchPolicy{.max_batch_bytes = 100});
  for (int i = 0; i < 4; ++i)
    ASSERT_EQ(former.push(make_request(RequestKind::Encode, 4, 40)),
              PushResult::Accepted);
  std::vector<PendingRequest> batch;
  ASSERT_TRUE(former.try_next_batch(batch));
  EXPECT_EQ(batch.size(), 2u);  // 40 + 40 fits; +40 would exceed 100
  ASSERT_TRUE(former.try_next_batch(batch));
  EXPECT_EQ(batch.size(), 2u);
}

TEST(BatchFormer, OversizedHeadBypassesCoalescing) {
  BatchFormer former(BatchPolicy{.max_batch_bytes = 100});
  ASSERT_EQ(former.push(make_request(RequestKind::Encode, 4, 5000)),
            PushResult::Accepted);
  ASSERT_EQ(former.push(make_request(RequestKind::Encode, 4, 40)),
            PushResult::Accepted);
  std::vector<PendingRequest> batch;
  ASSERT_TRUE(former.try_next_batch(batch));
  // The head is always taken: a single request larger than the byte cap
  // forms a batch of one instead of wedging the queue.
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].payload_bytes, 5000u);
  ASSERT_TRUE(former.try_next_batch(batch));
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].payload_bytes, 40u);
}

TEST(BatchFormer, CapacityBoundRejects) {
  BatchFormer former(BatchPolicy{.queue_capacity = 2});
  EXPECT_EQ(former.push(make_request(RequestKind::Encode, 4, 64)),
            PushResult::Accepted);
  EXPECT_EQ(former.push(make_request(RequestKind::Encode, 4, 64)),
            PushResult::Accepted);
  EXPECT_EQ(former.push(make_request(RequestKind::Encode, 4, 64)),
            PushResult::QueueFull);
  // Draining frees capacity again.
  std::vector<PendingRequest> batch;
  ASSERT_TRUE(former.try_next_batch(batch));
  EXPECT_EQ(former.push(make_request(RequestKind::Encode, 4, 64)),
            PushResult::Accepted);
}

TEST(BatchFormer, CloseRejectsPushesButKeepsQueuedWork) {
  BatchFormer former(BatchPolicy{});
  ASSERT_EQ(former.push(make_request(RequestKind::Encode, 4, 64)),
            PushResult::Accepted);
  former.close();
  EXPECT_TRUE(former.closed());
  EXPECT_EQ(former.push(make_request(RequestKind::Encode, 4, 64)),
            PushResult::Closed);
  // Queued work survives the close (drain-on-shutdown).
  std::vector<PendingRequest> batch;
  ASSERT_TRUE(former.try_next_batch(batch));
  EXPECT_EQ(batch.size(), 1u);
  // Closed and drained: wait_for_work reports no work without blocking
  // out its timeout, and nothing is left to pop.
  EXPECT_FALSE(former.wait_for_work(std::chrono::hours(1)));
  EXPECT_FALSE(former.try_next_batch(batch));
}

TEST(BatchFormer, DrainAllPreservesAdmissionOrder) {
  BatchFormer former(BatchPolicy{});
  ASSERT_EQ(former.push(make_request(RequestKind::Encode, 4, 1)),
            PushResult::Accepted);
  ASSERT_EQ(former.push(make_request(RequestKind::Decode, 4, 2)),
            PushResult::Accepted);
  ASSERT_EQ(former.push(make_request(RequestKind::Encode, 4, 3)),
            PushResult::Accepted);
  const std::vector<PendingRequest> all = former.drain_all();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].payload_bytes, 1u);
  EXPECT_EQ(all[1].payload_bytes, 2u);
  EXPECT_EQ(all[2].payload_bytes, 3u);
  EXPECT_EQ(former.pending(), 0u);
}

TEST(BatchFormer, LaneCapacityCapsOneClassOnly) {
  BatchPolicy policy;
  policy.queue_capacity = 100;
  policy.lane_capacity = 2;
  BatchFormer former(policy);
  ASSERT_EQ(former.push(make_request(RequestKind::Encode, 4, 64)),
            PushResult::Accepted);
  ASSERT_EQ(former.push(make_request(RequestKind::Encode, 4, 64)),
            PushResult::Accepted);
  // The hot lane is full; the global queue is nowhere near capacity.
  EXPECT_EQ(former.push(make_request(RequestKind::Encode, 4, 64)),
            PushResult::QueueFull);
  // Other classes still find room — the fairness property.
  EXPECT_EQ(former.push(make_request(RequestKind::Decode, 4, 64)),
            PushResult::Accepted);
  EXPECT_EQ(former.push(make_request(RequestKind::Encode, 6, 64)),
            PushResult::Accepted);
  // Draining the hot lane reopens it.
  std::vector<PendingRequest> batch;
  ASSERT_TRUE(former.try_next_batch(batch));
  EXPECT_EQ(former.push(make_request(RequestKind::Encode, 4, 64)),
            PushResult::Accepted);
}

TEST(BatchFormer, LaneCapRejectionLeavesNoEmptyLane) {
  // A rejected push against a *drained* lane must not recreate it: the
  // lane map only holds lanes with queued work (oldest_lane_locked
  // assumes non-empty lanes exist whenever total_ > 0).
  BatchPolicy policy;
  policy.lane_capacity = 1;
  BatchFormer former(policy);
  ASSERT_EQ(former.push(make_request(RequestKind::Encode, 4, 64)),
            PushResult::Accepted);
  EXPECT_EQ(former.push(make_request(RequestKind::Encode, 4, 64)),
            PushResult::QueueFull);
  std::vector<PendingRequest> batch;
  ASSERT_TRUE(former.try_next_batch(batch));
  EXPECT_FALSE(former.try_next_batch(batch));
  EXPECT_EQ(former.pending(), 0u);
}

TEST(BatchFormer, ShedsRequestWithUnmeetableDeadline) {
  BatchPolicy policy;
  policy.deadline_shedding = true;
  BatchFormer former(policy);
  // A deadline already in the past is unmeetable under any EWMA.
  PendingRequest doomed = make_request(RequestKind::Encode, 4, 64);
  doomed.req.deadline = Clock::now() - std::chrono::milliseconds(1);
  EXPECT_EQ(former.push(std::move(doomed)), PushResult::Shed);
  // A comfortable deadline passes (EWMA starts at zero).
  PendingRequest fine = make_request(RequestKind::Encode, 4, 64);
  fine.req.deadline = Clock::now() + std::chrono::hours(1);
  EXPECT_EQ(former.push(std::move(fine)), PushResult::Accepted);
  // No deadline at all is never shed.
  EXPECT_EQ(former.push(make_request(RequestKind::Encode, 4, 64)),
            PushResult::Accepted);
  EXPECT_EQ(former.pending(), 2u);
}

TEST(BatchFormer, SheddingDisabledNeverSheds) {
  BatchFormer former(BatchPolicy{});
  PendingRequest late = make_request(RequestKind::Encode, 4, 64);
  late.req.deadline = Clock::now() - std::chrono::milliseconds(1);
  // Queued normally; deadline enforcement happens at batch formation.
  EXPECT_EQ(former.push(std::move(late)), PushResult::Accepted);
}

TEST(BatchFormer, QueueWaitEwmaTracksObservedWaits) {
  BatchFormer former(BatchPolicy{});
  EXPECT_EQ(former.queue_wait_ewma().count(), 0);
  // Backdate the submission to fake a long queue wait; the EWMA must
  // move toward it (one step of alpha=1/8 from zero = wait/8).
  PendingRequest p = make_request(RequestKind::Encode, 4, 64);
  p.submitted = Clock::now() - std::chrono::milliseconds(80);
  ASSERT_EQ(former.push(std::move(p)), PushResult::Accepted);
  std::vector<PendingRequest> batch;
  ASSERT_TRUE(former.try_next_batch(batch));
  const auto ewma = former.queue_wait_ewma();
  EXPECT_GE(ewma, std::chrono::milliseconds(80) / 8);
  EXPECT_LT(ewma, std::chrono::milliseconds(80));
}

TEST(BatchFormer, EwmaFeedsBackIntoShedding) {
  BatchPolicy policy;
  policy.deadline_shedding = true;
  BatchFormer former(policy);
  // Drive the EWMA up with backdated requests (~1s observed waits).
  for (int i = 0; i < 20; ++i) {
    PendingRequest p = make_request(RequestKind::Encode, 4, 64);
    p.submitted = Clock::now() - std::chrono::seconds(1);
    ASSERT_EQ(former.push(std::move(p)), PushResult::Accepted);
    std::vector<PendingRequest> batch;
    ASSERT_TRUE(former.try_next_batch(batch));
  }
  const auto ewma = former.queue_wait_ewma();
  ASSERT_GT(ewma, std::chrono::milliseconds(500));
  // Keep the queue non-empty so the empty-queue liveness probe does not
  // apply: this test pins the backlogged-shedding behavior.
  ASSERT_EQ(former.push(make_request(RequestKind::Encode, 4, 64)),
            PushResult::Accepted);
  // A deadline tighter than the predicted wait is shed on arrival...
  PendingRequest tight = make_request(RequestKind::Encode, 4, 64);
  tight.req.deadline = Clock::now() + ewma / 2;
  EXPECT_EQ(former.push(std::move(tight)), PushResult::Shed);
  // ...while one with plenty of slack is admitted.
  PendingRequest slack = make_request(RequestKind::Encode, 4, 64);
  slack.req.deadline = Clock::now() + ewma * 4;
  EXPECT_EQ(former.push(std::move(slack)), PushResult::Accepted);
}

TEST(BatchFormer, EmptyQueueProbeBreaksShedStarvation) {
  BatchPolicy policy;
  policy.deadline_shedding = true;
  BatchFormer former(policy);
  // Leave a large stale wait estimate behind an empty queue.
  for (int i = 0; i < 20; ++i) {
    PendingRequest p = make_request(RequestKind::Encode, 4, 64);
    p.submitted = Clock::now() - std::chrono::seconds(1);
    ASSERT_EQ(former.push(std::move(p)), PushResult::Accepted);
    std::vector<PendingRequest> batch;
    ASSERT_TRUE(former.try_next_batch(batch));
  }
  const auto stale = former.queue_wait_ewma();
  ASSERT_GT(stale, std::chrono::milliseconds(500));
  // A not-yet-expired request predicted to miss is admitted anyway as a
  // liveness probe when the queue is empty: without it, a stale
  // estimate would shed every future request and never refresh.
  PendingRequest probe = make_request(RequestKind::Encode, 4, 64);
  probe.req.deadline = Clock::now() + stale / 2;
  EXPECT_EQ(former.push(std::move(probe)), PushResult::Accepted);
  // With the probe queued, the next doomed request sheds as usual.
  PendingRequest doomed = make_request(RequestKind::Encode, 4, 64);
  doomed.req.deadline = Clock::now() + stale / 2;
  EXPECT_EQ(former.push(std::move(doomed)), PushResult::Shed);
  // Popping the probe observes a near-zero wait and walks the estimate
  // back toward reality.
  std::vector<PendingRequest> batch;
  ASSERT_TRUE(former.try_next_batch(batch));
  EXPECT_LT(former.queue_wait_ewma(), stale);
  // An already-expired request never rides the probe path.
  PendingRequest dead = make_request(RequestKind::Encode, 4, 64);
  dead.req.deadline = Clock::now() - std::chrono::milliseconds(1);
  EXPECT_EQ(former.push(std::move(dead)), PushResult::Shed);
}

TEST(BatchFormer, ServiceTimeEwmaFeedsShedding) {
  BatchPolicy policy;
  policy.deadline_shedding = true;
  BatchFormer former(policy);
  EXPECT_EQ(former.service_time_ewma().count(), 0);
  // Converge the service estimate to ~1s with no queue wait at all: the
  // shedder must reject a request whose deadline leaves room to *start*
  // but not to *finish*.
  for (int i = 0; i < 64; ++i)
    former.note_service_time(std::chrono::seconds(1));
  const auto svc = former.service_time_ewma();
  ASSERT_GT(svc, std::chrono::milliseconds(900));
  ASSERT_EQ(former.queue_wait_ewma().count(), 0);
  // Non-empty queue so the empty-queue liveness probe does not apply.
  ASSERT_EQ(former.push(make_request(RequestKind::Encode, 4, 64)),
            PushResult::Accepted);
  PendingRequest doomed = make_request(RequestKind::Encode, 4, 64);
  doomed.req.deadline = Clock::now() + svc / 2;
  EXPECT_EQ(former.push(std::move(doomed)), PushResult::Shed);
  PendingRequest fine = make_request(RequestKind::Encode, 4, 64);
  fine.req.deadline = Clock::now() + svc * 4;
  EXPECT_EQ(former.push(std::move(fine)), PushResult::Accepted);
}

TEST(BatchFormer, ConcurrentProducersAndConsumersLoseNothing) {
  BatchFormer former(BatchPolicy{.queue_capacity = 1 << 20,
                                 .max_batch_requests = 4});
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::atomic<int> consumed{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i)
        ASSERT_EQ(former.push(make_request(RequestKind::Encode, 4, 64)),
                  PushResult::Accepted);
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      std::vector<PendingRequest> batch;
      for (;;) {
        if (former.try_next_batch(batch)) {
          consumed.fetch_add(static_cast<int>(batch.size()));
          continue;
        }
        // false only once the former is closed and drained.
        if (!former.wait_for_work(std::chrono::hours(1))) return;
      }
    });
  }
  for (auto& t : producers) t.join();
  former.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  EXPECT_EQ(former.pending(), 0u);
}

}  // namespace
}  // namespace tvmec::serve
