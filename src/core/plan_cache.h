#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "ec/decoder.h"

/// A process-wide decode-plan cache.
///
/// Building a DecodePlan means inverting a survivor submatrix — orders
/// of magnitude more work than the GEMM that executes it at serving unit
/// sizes. Loss patterns repeat heavily in practice: a failed disk erases
/// the same unit id in every stripe, so the scrubber, the serve workers,
/// the repair DAG and direct Codec::decode callers keep asking for the
/// same handful of plans. This cache is one shared, thread-safe,
/// LRU-bounded map from PlanKey to an immutable plan that every consumer
/// can hold by shared_ptr. Unrecoverable patterns are cached negatively
/// (a null plan), so repeated hopeless repairs don't re-run the rank
/// computation either. Codec::plan is the only code that builds keys.
namespace tvmec::core {

/// Cache key: exactly what a plan is computed from, nothing else.
/// `code` is the code's exact identity (Codec computes it once: w, the
/// generator's shape and entries, and the LRC group count its planner
/// uses) — exact rather than hashed, so two codes can never share an
/// entry. `erased` is the sorted, deduplicated loss pattern.
/// `preferred` is the caller's survivor preference in order (empty =
/// every survivor, ascending): the cluster's repair DAG prefers
/// failure-domain-local helpers, so one loss pattern can yield different
/// plans per placement. The kernel variant is not part of the key — a
/// plan is pure field math; per-variant coders live in each Codec.
struct PlanKey {
  std::vector<std::uint32_t> code;
  std::vector<std::size_t> erased;
  std::vector<std::size_t> preferred;

  friend auto operator<=>(const PlanKey&, const PlanKey&) = default;
};

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;

  double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class PlanCache {
 public:
  /// `max_entries` bounds the cache; the least recently used entry is
  /// evicted past it. Disk-failure workloads touch O(n) patterns per
  /// incident, so the default is generous without being unbounded.
  explicit PlanCache(std::size_t max_entries = 4096);

  /// Returns nullopt for unrecoverable patterns; the result is cached
  /// either way.
  using Builder = std::function<std::optional<ec::DecodePlan>()>;

  /// Returns the cached plan for `key`, or invokes `build` and caches the
  /// result. A null return means the pattern is unrecoverable (negative
  /// result — also cached). The builder runs under the cache mutex, which
  /// deduplicates concurrent builds of the same pattern: the first caller
  /// inverts, everyone else hits.
  std::shared_ptr<const ec::DecodePlan> get_or_build(const PlanKey& key,
                                                     const Builder& build);

  PlanCacheStats stats() const;
  void clear();

 private:
  struct Entry {
    PlanKey key;
    std::shared_ptr<const ec::DecodePlan> plan;  // null = unrecoverable
  };

  mutable std::mutex mutex_;
  std::size_t max_entries_;
  std::list<Entry> lru_;  // front = most recently used
  std::map<PlanKey, std::list<Entry>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace tvmec::core
