#include "serve/autotune.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "core/tvmec.h"
#include "tune/tuner.h"

namespace tvmec::serve {

// ---------------------------------------------------------------------------
// TrafficProfile

bool TrafficProfile::record(const CodecKey& key, std::size_t unit_size) {
  std::lock_guard lock(mutex_);
  auto [it, inserted] = counts_.try_emplace(Pair{key, unit_size}, 0);
  ++it->second;
  ++total_;
  return inserted;
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
// ScheduleCache

std::optional<ScheduleCache::Entry> ScheduleCache::lookup(
    const tune::TaskShape& shape) const {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(shape);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return it->second;
}

void ScheduleCache::install(const tune::TaskShape& shape,
                            const Entry& entry) {
  std::lock_guard lock(mutex_);
  entries_[shape] = entry;
  ++stats_.installs;
}

std::size_t ScheduleCache::load(const std::string& path,
                                tune::LoadLogStats* stats) {
  tune::LoadLogStats local;
  const std::vector<tune::LogRecord> records =
      tune::load_log_all(path, &local);
  if (stats != nullptr)
    stats->dropped_unavailable_variant += local.dropped_unavailable_variant;

  std::lock_guard lock(mutex_);
  stats_.loaded_records += records.size();
  stats_.dropped_unavailable_variant += local.dropped_unavailable_variant;
  std::size_t merged = 0;
  for (const tune::LogRecord& rec : records) {
    const auto it = entries_.find(rec.shape);
    if (it == entries_.end()) {
      entries_.emplace(rec.shape, Entry{rec.schedule, rec.throughput});
      ++merged;
    } else if (rec.throughput > it->second.throughput) {
      it->second = Entry{rec.schedule, rec.throughput};
      ++merged;
    }
  }
  return merged;
}

void ScheduleCache::save(const std::string& path) const {
  std::vector<std::pair<tune::TaskShape, Entry>> snapshot;
  {
    std::lock_guard lock(mutex_);
    snapshot.assign(entries_.begin(), entries_.end());
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out)
      throw std::runtime_error("ScheduleCache::save: cannot open " + tmp);
    out << "# tvmec schedule cache: best schedule per GEMM task shape "
           "(tuning-log format)\n";
    for (const auto& [shape, entry] : snapshot) {
      out << shape.m << "x" << shape.n << "x" << shape.k << " | "
          << entry.schedule.to_string() << " | " << entry.throughput << "\n";
    }
    if (!out)
      throw std::runtime_error("ScheduleCache::save: write failed on " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("ScheduleCache::save: rename failed for " +
                             path);
  std::lock_guard lock(mutex_);
  ++stats_.saves;
}

std::size_t ScheduleCache::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

ScheduleCache::Stats ScheduleCache::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

// ---------------------------------------------------------------------------
// ContinuousAutotuner

ContinuousAutotuner::ContinuousAutotuner(const AutotunePolicy& policy,
                                         TrafficProfile& traffic,
                                         ScheduleCache& cache,
                                         InstallFn install)
    : policy_(policy),
      traffic_(traffic),
      cache_(cache),
      install_(std::move(install)) {
  if (!install_)
    throw std::invalid_argument("ContinuousAutotuner: null install fn");
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
  std::size_t published_now = 0;
  bool cache_changed = false;

  for (const HotPair& pair : hot) {
    {
      std::lock_guard lock(stop_mutex_);
      if (stop_ && thread_.joinable()) break;  // shutting down mid-cycle
    }
    {
      std::lock_guard lock(stats_mutex_);
      ++stats_.pairs_considered;
    }
    // Scratch codec: tuning trials mutate *its* schedule, never a
    // serving slot's. Publishing goes through install_.
    core::Codec scratch(
        ec::CodeParams{pair.key.k, pair.key.r, pair.key.w},
        pair.key.family);
    const tune::TaskShape shape =
        scratch.encoder().task_shape(pair.unit_size);

    const std::optional<ScheduleCache::Entry> cached = cache_.lookup(shape);
    const auto pub_key = std::make_pair(pair.key, pair.unit_size);
    bool already_published;
    {
      std::lock_guard lock(published_mutex_);
      already_published = published_.count(pub_key) != 0;
    }
    // Warm start: a cached best (from a previous run's log, or an
    // earlier cycle) is published immediately — the serving path gets
    // yesterday's tuned schedule now, refined measurements later.
    if (cached && !already_published) {
      install_(pair.key, cached->schedule);
      {
        std::lock_guard lock(published_mutex_);
        published_[pub_key] = true;
      }
      std::lock_guard lock(stats_mutex_);
      ++stats_.warm_start_installs;
      ++published_now;
    }

    tune::TuneOptions options;
    options.trials = policy_.trials;
    options.seed = policy_.seed ^ (shape.m * 1000003 + shape.n * 10007 +
                                   shape.k * 101);
    // Serial trials: a tuning run must never fork the shared GEMM pool
    // out from under live batches.
    const tune::TuneResult result =
        scratch.tune(pair.unit_size, options, /*max_threads=*/1);
    {
      std::lock_guard lock(stats_mutex_);
      stats_.trials_run += result.history.size();
    }
    const double baseline = cached ? cached->throughput : 0.0;
    if (result.best_throughput > policy_.min_gain * baseline &&
        result.best_throughput > 0.0) {
      cache_.install(shape,
                     {result.best_schedule, result.best_throughput});
      install_(pair.key, result.best_schedule);
      {
        std::lock_guard lock(published_mutex_);
        published_[pub_key] = true;
      }
      cache_changed = true;
      std::lock_guard lock(stats_mutex_);
      ++stats_.installs;
      ++published_now;
    }
  }

  traffic_.decay();
  if (cache_changed && !policy_.log_path.empty())
    cache_.save(policy_.log_path);
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.cycles;
  }
  return published_now;
}

AutotuneStats ContinuousAutotuner::stats() const {
  std::lock_guard lock(stats_mutex_);
  AutotuneStats out = stats_;
  out.cache = cache_.stats();
  return out;
}

}  // namespace tvmec::serve
