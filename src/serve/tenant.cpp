#include "serve/tenant.h"

#include <cmath>
#include <stdexcept>

namespace tvmec::serve {

TenantRegistry::TenantRegistry(std::size_t capacity, bool enforce)
    : capacity_(capacity), enforce_(enforce) {
  if (capacity == 0)
    throw std::invalid_argument("TenantRegistry: capacity must be >= 1");
}

TenantRegistry::Entry& TenantRegistry::entry_locked(TenantId tenant) {
  auto [it, inserted] = tenants_.try_emplace(tenant);
  if (inserted) {
    it->second.counters.tenant = tenant;
    total_weight_ += it->second.policy.weight;
  }
  return it->second;
}

std::size_t TenantRegistry::share_locked(const Entry& e) const {
  // total_weight_ >= this entry's weight > 0, so the division is safe.
  const double fraction = e.policy.weight / total_weight_;
  const auto carved =
      static_cast<std::size_t>(static_cast<double>(capacity_) * fraction);
  return std::max(e.policy.min_share, carved);
}

void TenantRegistry::set_policy(TenantId tenant, const TenantPolicy& policy) {
  if (!(policy.weight > 0.0) || !std::isfinite(policy.weight))
    throw std::invalid_argument(
        "TenantRegistry: weight must be finite and > 0");
  std::lock_guard lock(mutex_);
  Entry& e = entry_locked(tenant);
  total_weight_ += policy.weight - e.policy.weight;
  e.policy = policy;
}

TenantPolicy TenantRegistry::policy(TenantId tenant) const {
  std::lock_guard lock(mutex_);
  const auto it = tenants_.find(tenant);
  return it != tenants_.end() ? it->second.policy : TenantPolicy{};
}

std::size_t TenantRegistry::share(TenantId tenant) const {
  std::lock_guard lock(mutex_);
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    // A never-seen tenant would join the weight pool on first touch;
    // report the share it would get.
    const TenantPolicy def;
    const double total = total_weight_ + def.weight;
    const auto carved = static_cast<std::size_t>(
        static_cast<double>(capacity_) * (def.weight / total));
    return std::max(def.min_share, carved);
  }
  return share_locked(it->second);
}

std::optional<RequestStatus> TenantRegistry::admit(
    TenantId tenant, Clock::time_point now, Clock::time_point* deadline) {
  std::lock_guard lock(mutex_);
  Entry& e = entry_locked(tenant);
  if (!enforce_) return std::nullopt;
  if (e.counters.in_queue >= static_cast<std::int64_t>(share_locked(e)))
    return RequestStatus::Overloaded;
  if (deadline != nullptr &&
      e.policy.deadline_budget > std::chrono::nanoseconds{0}) {
    const Clock::time_point budget_deadline = now + e.policy.deadline_budget;
    if (budget_deadline < *deadline) *deadline = budget_deadline;
  }
  return std::nullopt;
}

void TenantRegistry::observe(const RequestEvent& event) {
  std::lock_guard lock(mutex_);
  TenantCounters& c = entry_locked(event.tenant).counters;
  c.count(event);
  // The decrement is unconditional: clamping at 0 would strand the
  // gauge at +1 whenever a worker's Completed lands before the
  // submitter's Accepted (the decrement skipped, the late increment
  // never paired).
  if (event.kind == RequestEvent::Kind::Accepted)
    ++c.in_queue;
  else if (event.kind == RequestEvent::Kind::Completed && event.admitted)
    --c.in_queue;
}

TenantCounters TenantRegistry::counters(TenantId tenant) const {
  std::lock_guard lock(mutex_);
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    TenantCounters zero;
    zero.tenant = tenant;
    return zero;
  }
  return it->second.counters;
}

std::vector<TenantCounters> TenantRegistry::all() const {
  std::lock_guard lock(mutex_);
  std::vector<TenantCounters> out;
  out.reserve(tenants_.size());
  for (const auto& [id, e] : tenants_) out.push_back(e.counters);
  return out;
}

TenantCounters TenantRegistry::aggregate() const {
  std::lock_guard lock(mutex_);
  TenantCounters sum;
  for (const auto& [id, e] : tenants_) sum += e.counters;
  return sum;
}

}  // namespace tvmec::serve
