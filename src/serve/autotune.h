#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/request.h"
#include "tune/tuning_log.h"

/// Warm-start continuous autotuning for the sharded front.
///
/// The offline story (tune once, load the log) assumes you knew the
/// workload before deployment. A serving front does not: codec keys and
/// unit sizes arrive with the traffic. This module closes the loop the
/// way ML serving systems re-profile hot models: the autotuner samples
/// which (codec key, unit size) pairs are actually hot (TrafficProfile),
/// a background thread runs *bounded* tuning trials for the hottest
/// pairs off the serving path (ContinuousAutotuner), and winners land in
/// the front's tune::ScheduleCache, which every shard's codecs read by
/// task shape on each GEMM call. The cache persists in the tuning-log
/// format (ScheduleCache::save/load), so a restarted front warm-starts
/// by loading it instead of re-tuning from scratch.
namespace tvmec::serve {

/// One traffic-hot (codec key, unit size) pair and its sampled count.
struct HotPair {
  CodecKey key;
  std::size_t unit_size = 0;
  std::uint64_t requests = 0;
};

/// Thread-safe request-mix sampler: the autotuner records one sample
/// per front submission and asks for the top pairs each cycle. decay()
/// halves every count (dropping zeros) so the profile tracks the
/// *current* mix rather than all of history.
class TrafficProfile {
 public:
  /// Counts one request.
  void record(const CodecKey& key, std::size_t unit_size);

  /// The `n` highest-count pairs with at least `min_requests` samples,
  /// descending by count (ties broken by key order, deterministically).
  std::vector<HotPair> top(std::size_t n, std::uint64_t min_requests) const;

  /// Exponential decay step: every count is halved, zeroed pairs are
  /// forgotten.
  void decay();

  std::uint64_t total() const;
  std::size_t distinct_pairs() const;

 private:
  using Pair = std::pair<CodecKey, std::size_t>;
  mutable std::mutex mutex_;
  std::map<Pair, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Bounds for the background tuner. Deliberately tiny defaults: a cycle
/// is a handful of trials for a couple of pairs, because the tuner
/// shares the machine with the serving path it is trying to speed up.
struct AutotunePolicy {
  bool enabled = false;
  /// Sleep between background cycles.
  std::chrono::nanoseconds interval = std::chrono::milliseconds(250);
  /// Measurement budget per (key, unit) pair per cycle.
  std::size_t trials = 12;
  /// Hottest pairs examined per cycle.
  std::size_t max_pairs_per_cycle = 2;
  /// A pair is tunable only once this many samples accumulate.
  std::uint64_t min_requests = 16;
  /// A freshly-tuned schedule replaces the cached one only when its
  /// measured throughput beats the cached record by this factor
  /// (hysteresis against measurement noise flapping installs).
  double min_gain = 1.05;
  /// Tuning-log path for persistence ("" = no persistence). Loaded into
  /// the front's cache at construction (warm start), rewritten after any
  /// cycle that installed a new winner.
  std::string log_path;
  std::uint64_t seed = 42;
  /// false = no background thread; the owner drives run_cycle()
  /// manually (tests, manual-pump fuzzing).
  bool background = true;
};

struct AutotuneStats {
  std::uint64_t cycles = 0;
  std::uint64_t pairs_considered = 0;
  std::uint64_t trials_run = 0;
  std::uint64_t installs = 0;  ///< tuned winners installed in the cache
  tune::ScheduleCache::Stats cache;
};

/// The background tuning loop. Owns the traffic profile and no shards:
/// it publishes a winner by installing it in `cache`, which the serving
/// codecs read. Trials run on a scratch Codec, never a serving one.
class ContinuousAutotuner {
 public:
  /// `cache` must outlive the autotuner. Throws std::invalid_argument
  /// on zero trials or zero pairs per cycle.
  ContinuousAutotuner(const AutotunePolicy& policy,
                      tune::ScheduleCache& cache);
  ~ContinuousAutotuner();

  ContinuousAutotuner(const ContinuousAutotuner&) = delete;
  ContinuousAutotuner& operator=(const ContinuousAutotuner&) = delete;

  /// Spawns the background thread (no-op when policy.background is
  /// false or already started).
  void start();
  /// Stops and joins the background thread. Idempotent.
  void stop();

  /// Samples one submission into the traffic profile (the front calls
  /// this once per submission).
  void record(const CodecKey& key, std::size_t unit_size) {
    traffic_.record(key, unit_size);
  }

  /// One tuning cycle on the calling thread: examine the hottest pairs,
  /// run bounded trials, install winners that beat the cached entry by
  /// policy.min_gain, persist when something changed. Returns the
  /// winners installed this cycle. Safe to call concurrently with the
  /// serving path; not reentrant with itself.
  std::size_t run_cycle();

  AutotuneStats stats() const;

 private:
  void loop();

  const AutotunePolicy policy_;
  TrafficProfile traffic_;
  tune::ScheduleCache& cache_;

  std::thread thread_;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;  // under stop_mutex_

  mutable std::mutex stats_mutex_;
  AutotuneStats stats_;
};

}  // namespace tvmec::serve
