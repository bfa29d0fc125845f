#include "serve/autotune.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "core/tvmec.h"
#include "tune/tuner.h"

namespace tvmec::serve {

// ---------------------------------------------------------------------------
// TrafficProfile

void TrafficProfile::record(const CodecKey& key, std::size_t unit_size) {
  std::lock_guard lock(mutex_);
  ++counts_[Pair{key, unit_size}];
  ++total_;
}

std::vector<HotPair> TrafficProfile::top(std::size_t n,
                                         std::uint64_t min_requests) const {
  std::vector<HotPair> out;
  {
    std::lock_guard lock(mutex_);
    out.reserve(counts_.size());
    for (const auto& [pair, count] : counts_) {
      if (count < min_requests) continue;
      out.push_back(HotPair{pair.first, pair.second, count});
    }
  }
  // Map order is ascending (key, unit); a stable sort by count keeps
  // that as the deterministic tiebreak.
  std::stable_sort(out.begin(), out.end(),
                   [](const HotPair& a, const HotPair& b) {
                     return a.requests > b.requests;
                   });
  if (out.size() > n) out.resize(n);
  return out;
}

void TrafficProfile::decay() {
  std::lock_guard lock(mutex_);
  total_ = 0;
  for (auto it = counts_.begin(); it != counts_.end();) {
    it->second /= 2;
    if (it->second == 0) {
      it = counts_.erase(it);
    } else {
      total_ += it->second;
      ++it;
    }
  }
}

std::uint64_t TrafficProfile::total() const {
  std::lock_guard lock(mutex_);
  return total_;
}

std::size_t TrafficProfile::distinct_pairs() const {
  std::lock_guard lock(mutex_);
  return counts_.size();
}

// ---------------------------------------------------------------------------
// ContinuousAutotuner

ContinuousAutotuner::ContinuousAutotuner(const AutotunePolicy& policy,
                                         tune::ScheduleCache& cache)
    : policy_(policy), cache_(cache) {
  if (policy.trials == 0)
    throw std::invalid_argument("ContinuousAutotuner: trials must be >= 1");
  if (policy.max_pairs_per_cycle == 0)
    throw std::invalid_argument(
        "ContinuousAutotuner: max_pairs_per_cycle must be >= 1");
}

ContinuousAutotuner::~ContinuousAutotuner() { stop(); }

void ContinuousAutotuner::start() {
  if (!policy_.background || thread_.joinable()) return;
  {
    std::lock_guard lock(stop_mutex_);
    stop_ = false;
  }
  thread_ = std::thread([this] { loop(); });
}

void ContinuousAutotuner::stop() {
  {
    std::lock_guard lock(stop_mutex_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void ContinuousAutotuner::loop() {
  std::unique_lock lock(stop_mutex_);
  for (;;) {
    if (stop_cv_.wait_for(lock, policy_.interval, [&] { return stop_; }))
      return;
    lock.unlock();
    try {
      run_cycle();
    } catch (const std::exception& e) {
      // Tuning is advisory: a failed cycle (I/O error persisting, an
      // unexpected measurement throw) must never take the serving path
      // down with it.
      std::fprintf(stderr, "tvmec: autotune cycle failed: %s\n", e.what());
    }
    lock.lock();
  }
}

std::size_t ContinuousAutotuner::run_cycle() {
  const std::vector<HotPair> hot =
      traffic_.top(policy_.max_pairs_per_cycle, policy_.min_requests);
  std::size_t installed = 0;

  for (const HotPair& pair : hot) {
    {
      std::lock_guard lock(stop_mutex_);
      if (stop_ && thread_.joinable()) break;  // shutting down mid-cycle
    }
    {
      std::lock_guard lock(stats_mutex_);
      ++stats_.pairs_considered;
    }
    // Scratch codec: tuning trials time its schedules, never a serving
    // codec's. Publishing is the cache install below.
    core::Codec scratch(
        ec::CodeParams{pair.key.k, pair.key.r, pair.key.w},
        pair.key.family);
    const tune::TaskShape shape =
        scratch.encoder().task_shape(pair.unit_size);
    const std::optional<tune::ScheduleCache::Entry> cached =
        cache_.lookup(shape);

    tune::TuneOptions options;
    options.trials = policy_.trials;
    options.seed = policy_.seed ^ (shape.m * 1000003 + shape.n * 10007 +
                                   shape.k * 101);
    // Serial trials: a tuning run must never fork the shared GEMM pool
    // out from under live batches. The winner's thread knob is moot:
    // serving codecs take only its kernel shape from the cache.
    const tune::TuneResult result =
        scratch.tune(pair.unit_size, options, /*max_threads=*/1);
    {
      std::lock_guard lock(stats_mutex_);
      stats_.trials_run += result.history.size();
    }
    const double baseline = cached ? cached->throughput : 0.0;
    if (result.best_throughput > policy_.min_gain * baseline &&
        result.best_throughput > 0.0) {
      // The next batch of this shape, on any shard, runs the winner.
      cache_.install(shape, {result.best_schedule, result.best_throughput});
      ++installed;
      std::lock_guard lock(stats_mutex_);
      ++stats_.installs;
    }
  }

  traffic_.decay();
  if (installed != 0 && !policy_.log_path.empty())
    cache_.save(policy_.log_path);
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.cycles;
  }
  return installed;
}

AutotuneStats ContinuousAutotuner::stats() const {
  std::lock_guard lock(stats_mutex_);
  AutotuneStats out = stats_;
  out.cache = cache_.stats();
  return out;
}

}  // namespace tvmec::serve
