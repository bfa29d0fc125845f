#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/request.h"
#include "tensor/schedule.h"
#include "tune/search_space.h"
#include "tune/tuning_log.h"

/// Warm-start continuous autotuning for the sharded front.
///
/// The offline story (tune once, load the log) assumes you knew the
/// workload before deployment. A serving front does not: codec keys and
/// unit sizes arrive with the traffic. This module closes the loop the
/// way ML serving systems re-profile hot models: the front samples
/// which (codec key, unit size) pairs are actually hot
/// (TrafficProfile), a background thread runs *bounded* tuning trials
/// for the hottest pairs off the serving path (ContinuousAutotuner),
/// winners are installed atomically into every shard's codec slot
/// (EcService::install_schedule), and the best-known schedule per GEMM
/// task shape persists in the existing tuning-log format
/// (ScheduleCache::save/load) so a restarted front warm-starts instead
/// of re-tuning from scratch.
namespace tvmec::serve {

/// One traffic-hot (codec key, unit size) pair and its sampled count.
struct HotPair {
  CodecKey key;
  std::size_t unit_size = 0;
  std::uint64_t requests = 0;
};

/// Thread-safe request-mix sampler: the sharded front calls record()
/// once per submission; the autotuner asks for the top pairs each
/// cycle. decay() halves every count (dropping zeros) so the profile
/// tracks the *current* mix rather than all of history.
class TrafficProfile {
 public:
  /// Counts one request; true the first time this (key, unit) pair is
  /// ever seen (the front's warm-start trigger).
  bool record(const CodecKey& key, std::size_t unit_size);

  /// The `n` highest-count pairs with at least `min_requests` samples,
  /// descending by count (ties broken by key order, deterministically).
  std::vector<HotPair> top(std::size_t n, std::uint64_t min_requests) const;

  /// Exponential decay step: every count is halved, zeroed pairs are
  /// forgotten (they re-register as first_seen if they return).
  void decay();

  std::uint64_t total() const;
  std::size_t distinct_pairs() const;

 private:
  using Pair = std::pair<CodecKey, std::size_t>;
  mutable std::mutex mutex_;
  std::map<Pair, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// tune::TaskShape has no ordering of its own; the cache keys on it.
struct TaskShapeLess {
  bool operator()(const tune::TaskShape& a,
                  const tune::TaskShape& b) const noexcept {
    if (a.m != b.m) return a.m < b.m;
    if (a.n != b.n) return a.n < b.n;
    return a.k < b.k;
  }
};

/// The best-known schedule per GEMM task shape, shared by warm-start
/// (front) and the tuner (background). Persistence speaks the existing
/// tuning-log format — one `MxNxK | schedule | throughput` line per
/// shape — so cache files interoperate with tune::load_log and the
/// offline tuning tools.
class ScheduleCache {
 public:
  struct Entry {
    tensor::Schedule schedule;
    double throughput = 0.0;
  };
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t installs = 0;
    std::uint64_t saves = 0;
    std::uint64_t loaded_records = 0;
    std::uint64_t dropped_unavailable_variant = 0;
  };

  /// Best-known entry for the shape (counted as a hit/miss).
  std::optional<Entry> lookup(const tune::TaskShape& shape) const;

  /// Installs/overwrites the entry for a shape.
  void install(const tune::TaskShape& shape, const Entry& entry);

  /// Merges a tuning log into the cache (best record per shape wins —
  /// both within the file and against anything already cached).
  /// A missing file loads zero records; a malformed one throws
  /// std::runtime_error (load_log's contract). Records for kernel
  /// variants this host lacks are dropped and counted, both in `stats`
  /// (when given) and in this cache's own Stats.
  std::size_t load(const std::string& path,
                   tune::LoadLogStats* stats = nullptr);

  /// Writes the whole cache to `path` in the tuning-log format —
  /// snapshot under the lock, write to `path + ".tmp"`, rename — so a
  /// concurrently restarting front never reads a half-written file.
  /// Throws std::runtime_error on I/O failure.
  void save(const std::string& path) const;

  std::size_t size() const;
  Stats stats() const;

 private:
  mutable std::mutex mutex_;
  std::map<tune::TaskShape, Entry, TaskShapeLess> entries_;
  mutable Stats stats_;  ///< hits/misses mutate under lookup() const
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
  /// Tuning-log path for persistence ("" = no persistence). Loaded at
  /// front construction (warm start), rewritten after any cycle that
  /// installed a new winner.
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
  std::uint64_t installs = 0;             ///< tuned winners published
  std::uint64_t warm_start_installs = 0;  ///< cache hits published
  ScheduleCache::Stats cache;
};

/// The background tuning loop. Owns no shards: publishing goes through
/// `install`, which the sharded front binds to "install into every
/// shard for this key". Trials run on a scratch Codec, never a serving
/// one.
class ContinuousAutotuner {
 public:
  using InstallFn =
      std::function<void(const CodecKey&, const tensor::Schedule&)>;

  /// `traffic` and `cache` must outlive the autotuner. Throws
  /// std::invalid_argument on a null install fn or zero trials.
  ContinuousAutotuner(const AutotunePolicy& policy, TrafficProfile& traffic,
                      ScheduleCache& cache, InstallFn install);
  ~ContinuousAutotuner();

  ContinuousAutotuner(const ContinuousAutotuner&) = delete;
  ContinuousAutotuner& operator=(const ContinuousAutotuner&) = delete;

  /// Spawns the background thread (no-op when policy.background is
  /// false or already started).
  void start();
  /// Stops and joins the background thread. Idempotent.
  void stop();

  /// One tuning cycle on the calling thread: examine the hottest pairs,
  /// warm-start-install any cached schedule not yet published for its
  /// key, run bounded trials, publish and cache winners, persist when
  /// something changed. Returns the number of schedules published this
  /// cycle (warm starts + tuned winners). Safe to call concurrently
  /// with the serving path; not reentrant with itself.
  std::size_t run_cycle();

  AutotuneStats stats() const;

 private:
  void loop();

  const AutotunePolicy policy_;
  TrafficProfile& traffic_;
  ScheduleCache& cache_;
  InstallFn install_;

  std::thread thread_;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;  // under stop_mutex_

  /// Keys whose cached schedule was already published (warm-start is
  /// install-once per key+shape; re-publishing happens only when tuning
  /// finds a better winner).
  std::mutex published_mutex_;
  std::map<std::pair<CodecKey, std::size_t>, bool> published_;

  mutable std::mutex stats_mutex_;
  AutotuneStats stats_;
};

}  // namespace tvmec::serve
