#pragma once

#include <chrono>
#include <cstdint>
#include <functional>

/// Retry with exponential backoff and deterministic jitter — the standard
/// client-side answer to transient storage errors. Wraps the unit reads
/// of cluster::Cluster (get, read_unit, write_unit and repair, which the
/// RAID block array and the checkpoint manager run on): a read that
/// fails transiently is re-attempted up to `max_attempts`
/// times with exponentially growing, jittered, capped delays; only after
/// the budget is exhausted does the caller fall back to degraded
/// (parity) reconstruction. The delays are virtual time: accounted in
/// RetryStats::backoff_total, never slept.
///
/// Jitter is derived from a splitmix64 hash of (salt, attempt), not a
/// shared RNG, so retry timing is reproducible per unit and independent
/// of what other ops did — the same determinism contract as
/// FaultInjector.
namespace tvmec::storage {

struct RetryPolicy {
  std::size_t max_attempts = 4;  ///< total attempts, including the first
  std::chrono::microseconds base_delay{50};   ///< backoff before attempt 2
  std::chrono::microseconds max_delay{5000};  ///< backoff cap
  double jitter = 0.5;  ///< fraction of each delay that is randomized

  /// Backoff before attempt `attempt` (attempts are 1-based; attempt 1
  /// has no backoff): min(base * 2^(attempt-2), cap), jittered down by up
  /// to `jitter` deterministically from `salt`.
  std::chrono::microseconds backoff(std::size_t attempt,
                                    std::uint64_t salt) const noexcept;
};

struct RetryStats {
  std::uint64_t attempts = 0;   ///< individual attempts made
  std::uint64_t retries = 0;    ///< attempts beyond the first
  std::uint64_t exhausted = 0;  ///< ops that failed every attempt
  std::chrono::microseconds backoff_total{0};  ///< injected wait (virtual)
};

/// One attempt's verdict: succeed, retry after backoff, or give up now
/// (the failure is known to be permanent — e.g. the unit is gone).
enum class Attempt { Success, Retry, Abort };

/// Runs `attempt` up to policy.max_attempts times, accumulating `stats`
/// and the backoff between tries (accounted in virtual time, never
/// slept).
/// Returns true on Success; false on Abort or an exhausted budget.
bool with_retries(const RetryPolicy& policy, RetryStats& stats,
                  std::uint64_t salt, const std::function<Attempt()>& attempt);

}  // namespace tvmec::storage
