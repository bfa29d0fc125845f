// serve/autotune.h — traffic profiling and the continuous autotuner's
// tune/install/persist cycle into a tune::ScheduleCache.

#include "serve/autotune.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>

#include "serve/ec_service.h"

namespace tvmec::serve {
namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(::testing::TempDir() + "/" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

constexpr CodecKey kKey{4, 2, 8, ec::RsFamily::CauchyGood};

tune::TaskShape shape_of(const CodecKey& key, std::size_t unit) {
  return tune::TaskShape{key.r * key.w, unit / (8 * key.w), key.k * key.w};
}

TEST(TrafficProfile, RecordsTopAndFirstSeen) {
  TrafficProfile traffic;
  traffic.record(kKey, 512);
  traffic.record(kKey, 512);
  for (int i = 0; i < 9; ++i) traffic.record(kKey, 1024);
  EXPECT_EQ(traffic.total(), 11u);
  EXPECT_EQ(traffic.distinct_pairs(), 2u);

  const auto top = traffic.top(10, /*min_requests=*/1);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].unit_size, 1024u);  // hotter pair first
  EXPECT_EQ(top[0].requests, 9u);
  EXPECT_EQ(top[1].unit_size, 512u);

  // min_requests filters, n truncates.
  EXPECT_EQ(traffic.top(10, 5).size(), 1u);
  EXPECT_EQ(traffic.top(1, 1).size(), 1u);
}

TEST(TrafficProfile, DecayHalvesAndForgets) {
  TrafficProfile traffic;
  traffic.record(kKey, 512);  // count 1
  for (int i = 0; i < 4; ++i) traffic.record(kKey, 1024);
  traffic.decay();  // 512 -> 0 (forgotten), 1024 -> 2
  EXPECT_EQ(traffic.distinct_pairs(), 1u);
  EXPECT_EQ(traffic.total(), 2u);
}

TEST(ContinuousAutotuner, CtorValidates) {
  tune::ScheduleCache cache;
  AutotunePolicy policy;
  policy.trials = 0;
  EXPECT_THROW(ContinuousAutotuner(policy, cache), std::invalid_argument);
  policy.trials = 1;
  policy.max_pairs_per_cycle = 0;
  EXPECT_THROW(ContinuousAutotuner(policy, cache), std::invalid_argument);
}

TEST(ContinuousAutotuner, CycleTunesHotPairAndInstalls) {
  tune::ScheduleCache cache;
  AutotunePolicy policy;
  policy.enabled = true;
  policy.background = false;
  policy.trials = 2;
  policy.min_requests = 4;
  policy.max_pairs_per_cycle = 1;
  policy.min_gain = 1.0;
  ContinuousAutotuner tuner(policy, cache);

  // Below min_requests: nothing to tune.
  tuner.record(kKey, 512);
  EXPECT_EQ(tuner.run_cycle(), 0u);
  EXPECT_EQ(tuner.stats().pairs_considered, 0u);
  EXPECT_EQ(cache.size(), 0u);

  for (int i = 0; i < 8; ++i) tuner.record(kKey, 512);
  // Measured throughput > 0 beats the empty cache.
  EXPECT_EQ(tuner.run_cycle(), 1u);
  const AutotuneStats st = tuner.stats();
  EXPECT_EQ(st.cycles, 2u);
  EXPECT_EQ(st.pairs_considered, 1u);
  EXPECT_GE(st.trials_run, 2u);
  EXPECT_EQ(st.installs, 1u);
  EXPECT_EQ(st.cache.installs, 1u);
  // The winner landed in the cache under the pair's task shape, the
  // only entry there.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.lookup(shape_of(kKey, 512)).has_value());
}

TEST(ContinuousAutotuner, WarmStartPublishesCachedScheduleOnce) {
  tune::ScheduleCache cache;
  // A cached record no live measurement can beat: the cycle tunes, but
  // the warm-started entry stays the one every codec reads.
  tensor::Schedule best = default_service_schedule();
  best.tile_m = 2;
  cache.install(shape_of(kKey, 512), {best, 1.0e18});

  AutotunePolicy policy;
  policy.enabled = true;
  policy.background = false;
  policy.trials = 1;
  policy.min_requests = 1;
  ContinuousAutotuner tuner(policy, cache);
  tuner.record(kKey, 512);
  EXPECT_EQ(tuner.run_cycle(), 0u);
  EXPECT_EQ(tuner.stats().installs, 0u);
  EXPECT_EQ(tuner.stats().pairs_considered, 1u);
  EXPECT_EQ(cache.stats().installs, 1u);  // only the seed above
  EXPECT_EQ(cache.lookup(shape_of(kKey, 512))->schedule, best);
}

TEST(ContinuousAutotuner, PersistsWinnersForWarmRestart) {
  TempFile tmp("autotune_persist.log");
  tune::ScheduleCache cache;
  AutotunePolicy policy;
  policy.enabled = true;
  policy.background = false;
  policy.trials = 2;
  policy.min_requests = 1;
  policy.min_gain = 1.0;
  policy.log_path = tmp.path;

  ContinuousAutotuner tuner(policy, cache);
  tuner.record(kKey, 512);
  ASSERT_EQ(tuner.run_cycle(), 1u);
  EXPECT_EQ(cache.stats().saves, 1u);

  // "Restart": a fresh cache warm-starts from the persisted log.
  tune::ScheduleCache restarted;
  EXPECT_EQ(restarted.load(tmp.path), 1u);
  const auto entry = restarted.lookup(shape_of(kKey, 512));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->schedule, cache.lookup(shape_of(kKey, 512))->schedule);
}

TEST(ContinuousAutotuner, BackgroundThreadStartsAndStops) {
  tune::ScheduleCache cache;
  AutotunePolicy policy;
  policy.enabled = true;
  policy.background = true;
  policy.interval = std::chrono::milliseconds(1);
  policy.trials = 1;
  policy.min_requests = 1;
  {
    ContinuousAutotuner tuner(policy, cache);
    tuner.start();
    tuner.record(kKey, 512);
    // Wait (bounded) for at least one background cycle.
    for (int i = 0; i < 2000 && tuner.stats().cycles == 0; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GE(tuner.stats().cycles, 1u);
    tuner.stop();
    tuner.stop();  // idempotent
  }
  SUCCEED();
}

}  // namespace
}  // namespace tvmec::serve
