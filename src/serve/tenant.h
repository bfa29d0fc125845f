#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "serve/request.h"

/// Tenant QoS for the sharded front: weighted fair shares, per-tenant
/// deadline budgets, and per-tenant counters whose identities mirror
/// the service-wide ones.
///
/// The model is max-min-flavored but deliberately simple: each tenant
/// owns a *share* of the front's total queue capacity proportional to
/// its weight (with a small floor so a zero-traffic tenant can always
/// get a foot in the door), and admission rejects a tenant whose
/// in-queue occupancy already fills its share. Because shares are
/// computed against total capacity — not against current load — an
/// underloaded front admits everyone (shares only bind once the sum of
/// demands exceeds capacity), which is the behavior operators expect
/// from "weighted fair": isolation under contention, no throttling
/// without it.
namespace tvmec::serve {

struct TenantPolicy {
  /// Relative share of the front's queue capacity. Must be > 0.
  double weight = 1.0;
  /// Per-tenant deadline cap: when nonzero, every admitted request's
  /// deadline is clamped to now + budget (a request with a looser — or
  /// absent — deadline gets this one; a tighter one is kept). Layered
  /// on the shards' deadline shedding, this turns one tenant's
  /// patience into bounded queue occupancy instead of unbounded
  /// buffering.
  std::chrono::nanoseconds deadline_budget{0};
  /// Occupancy floor: a tenant may always have at least this many
  /// requests queued regardless of how small its weighted share gets.
  std::size_t min_share = 1;
};

/// One tenant's request buckets (the same RequestCounters a shard keeps,
/// fed the same events) plus its admission gauge.
struct TenantCounters : RequestCounters {
  TenantId tenant = 0;
  /// Admission gauge: +1 Accepted, -1 Completed (admitted). This is the
  /// occupancy weighted-fair admission compares against the share.
  /// Signed and order-tolerant: a shard worker can pop and complete a
  /// request before the submitting thread's Accepted event is observed,
  /// so the gauge may transiently read -1 for that request; the late
  /// Accepted restores it, and a drained front always reads 0.
  std::int64_t in_queue = 0;

  /// accepted == terminal buckets and nothing in flight (holds once the
  /// front is drained).
  bool drained_balanced() const noexcept {
    return RequestCounters::drained_balanced() && in_queue == 0;
  }

  TenantCounters& operator+=(const TenantCounters& o) noexcept {
    RequestCounters::operator+=(o);
    in_queue += o.in_queue;
    return *this;
  }
};

/// Thread-safe registry: policies, per-tenant counters, and the
/// weighted-fair admission decision. Tenants materialize lazily (first
/// policy write or first request) with the default policy.
///
/// Counting protocol (the front and its shards drive it): each event
/// counts in RequestCounters::bucket(event), and the gauge moves
/// in_queue++ on Accepted, in_queue-- on an admitted Completed
/// (rejections never occupied). The front's own QoS rejections
/// synthesize the Submitted + Completed pair via observe(), so
/// per-tenant identities hold whether a request died at the front, at a
/// shard's admission, or after execution.
class TenantRegistry {
 public:
  /// `capacity` is the front's total queue capacity (sum over shards) —
  /// the denominator shares are carved from. `enforce` = false turns
  /// the registry into pure accounting: admit() never rejects and never
  /// clamps deadlines (the qos_enforcement=false mode of the front).
  explicit TenantRegistry(std::size_t capacity, bool enforce = true);

  /// Throws std::invalid_argument on weight <= 0 or NaN.
  void set_policy(TenantId tenant, const TenantPolicy& policy);
  TenantPolicy policy(TenantId tenant) const;

  /// The tenant's current occupancy allowance:
  ///   max(min_share, floor(capacity * weight / total_weight))
  /// where total_weight sums over every known tenant. More tenants =>
  /// thinner slices; one tenant owns the whole capacity.
  std::size_t share(TenantId tenant) const;

  /// Weighted-fair admission check. Returns std::nullopt to admit —
  /// clamping *deadline to now + deadline_budget when the tenant has a
  /// budget tighter than the request — or RequestStatus::Overloaded
  /// when the tenant's in-queue occupancy already fills its share.
  /// Does NOT count anything; callers report the outcome via observe().
  std::optional<RequestStatus> admit(TenantId tenant, Clock::time_point now,
                                     Clock::time_point* deadline);

  /// Feed one lifecycle event (see the counting protocol above).
  void observe(const RequestEvent& event);

  /// Snapshot of one tenant (zeroes for a never-seen tenant).
  TenantCounters counters(TenantId tenant) const;
  /// All known tenants, ascending by id.
  std::vector<TenantCounters> all() const;
  /// Sum over all tenants — by construction equals the front-wide
  /// counters, which is the cross-check the fuzzer asserts.
  TenantCounters aggregate() const;

  std::size_t capacity() const noexcept { return capacity_; }
  bool enforcing() const noexcept { return enforce_; }

 private:
  struct Entry {
    TenantPolicy policy;
    TenantCounters counters;
  };

  Entry& entry_locked(TenantId tenant);
  std::size_t share_locked(const Entry& e) const;

  const std::size_t capacity_;
  const bool enforce_;
  mutable std::mutex mutex_;
  std::map<TenantId, Entry> tenants_;
  double total_weight_ = 0;  ///< sum of known tenants' weights
};

}  // namespace tvmec::serve
