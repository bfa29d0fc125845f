#include "storage/retry.h"

#include <algorithm>

namespace tvmec::storage {

namespace {
/// splitmix64: the standard cheap stateless mixer.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}
}  // namespace

std::chrono::microseconds RetryPolicy::backoff(
    std::size_t attempt, std::uint64_t salt) const noexcept {
  if (attempt <= 1) return std::chrono::microseconds{0};
  // base * 2^(attempt-2), saturating well before overflow.
  const std::size_t shift = std::min<std::size_t>(attempt - 2, 40);
  const auto exp =
      std::chrono::microseconds{base_delay.count() << shift};
  const auto capped = std::min(exp, max_delay);
  if (jitter <= 0.0 || capped.count() == 0) return capped;
  // Deterministic jitter: scale by a factor in [1 - jitter, 1].
  const double unit = static_cast<double>(mix64(salt ^ attempt) >> 11) /
                      static_cast<double>(1ull << 53);
  const double factor = 1.0 - std::min(jitter, 1.0) * unit;
  return std::chrono::microseconds{
      static_cast<std::int64_t>(static_cast<double>(capped.count()) * factor)};
}

bool with_retries(const RetryPolicy& policy, RetryStats& stats,
                  std::uint64_t salt,
                  const std::function<Attempt()>& attempt) {
  const std::size_t budget = std::max<std::size_t>(policy.max_attempts, 1);
  for (std::size_t i = 1; i <= budget; ++i) {
    if (i > 1) {
      stats.backoff_total += policy.backoff(i, salt);
      ++stats.retries;
    }
    ++stats.attempts;
    switch (attempt()) {
      case Attempt::Success:
        return true;
      case Attempt::Abort:
        return false;
      case Attempt::Retry:
        break;
    }
  }
  ++stats.exhausted;
  return false;
}

}  // namespace tvmec::storage
