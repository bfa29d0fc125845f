#include "storage/fault_injector.h"

namespace tvmec::storage {

FaultInjector::FaultInjector(const FaultPolicy& policy, std::uint64_t seed)
    : policy_(policy), rng_(seed) {}

bool FaultInjector::roll(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng_) < p;
}

void FaultInjector::delay_op() {
  if (!roll(policy_.delay)) return;
  ++stats_.delays;
  stats_.delay_injected += policy_.delay_amount;
}

bool FaultInjector::on_write(std::size_t node, std::uint64_t /*unit_key*/,
                             std::span<std::uint8_t> bytes) {
  ++stats_.writes;
  if (crashed_.contains(node)) return false;
  if (policy_.quiet()) return true;
  delay_op();
  if (roll(policy_.crash)) {
    crash_node(node);
    return false;
  }
  bool corrupted = false;
  if (!bytes.empty() && roll(policy_.write_bit_flip)) {
    const std::size_t byte = std::uniform_int_distribution<std::size_t>(
        0, bytes.size() - 1)(rng_);
    const unsigned bit =
        std::uniform_int_distribution<unsigned>(0, 7)(rng_);
    bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
    ++stats_.write_bit_flips;
    corrupted = true;
  }
  // Torn write: a prefix persists, the tail holds stale garbage. The
  // garbage tail is >= 8 bytes so it is corrupt with overwhelming
  // probability (chaos tests rely on every tear being detectable).
  if (bytes.size() >= 16 && roll(policy_.torn_write)) {
    const std::size_t off = std::uniform_int_distribution<std::size_t>(
        0, bytes.size() - 8)(rng_);
    for (std::size_t i = off; i < bytes.size(); ++i)
      bytes[i] = static_cast<std::uint8_t>(rng_());
    ++stats_.torn_writes;
    corrupted = true;
  }
  if (corrupted) ++stats_.writes_corrupted;
  return true;
}

ReadFault FaultInjector::on_read(std::size_t node, std::uint64_t unit_key,
                                 std::span<std::uint8_t> bytes) {
  ++stats_.reads;
  if (crashed_.contains(node)) return ReadFault::Crash;
  // An in-flight transient burst keeps failing regardless of the active
  // policy, so a policy swap cannot strand a half-consumed burst.
  if (const auto it = transient_left_.find(unit_key);
      it != transient_left_.end()) {
    ++stats_.transient_errors;
    if (--it->second == 0) transient_left_.erase(it);
    return ReadFault::Transient;
  }
  if (policy_.quiet()) return ReadFault::None;
  delay_op();
  if (roll(policy_.crash)) {
    crash_node(node);
    return ReadFault::Crash;
  }
  if (policy_.transient_failures > 0 && roll(policy_.transient_read)) {
    ++stats_.transient_bursts;
    ++stats_.transient_errors;
    if (policy_.transient_failures > 1)
      transient_left_[unit_key] = policy_.transient_failures - 1;
    return ReadFault::Transient;
  }
  if (!bytes.empty() && roll(policy_.read_bit_flip)) {
    const std::size_t byte = std::uniform_int_distribution<std::size_t>(
        0, bytes.size() - 1)(rng_);
    const unsigned bit =
        std::uniform_int_distribution<unsigned>(0, 7)(rng_);
    bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
    ++stats_.read_bit_flips;
  }
  return ReadFault::None;
}

LinkFault FaultInjector::on_send(std::uint64_t link_key) {
  ++stats_.link_sends;
  // An open partition window eats every send until it expires, matching
  // the transient-burst discipline: a policy swap mid-window cannot
  // strand a half-consumed partition.
  if (const auto it = partitioned_left_.find(link_key);
      it != partitioned_left_.end()) {
    ++stats_.partition_drops;
    if (--it->second == 0) partitioned_left_.erase(it);
    return LinkFault::Drop;
  }
  if (policy_.quiet()) return LinkFault::None;
  if (roll(policy_.link_drop)) {
    ++stats_.link_drops;
    return LinkFault::Drop;
  }
  if (roll(policy_.link_duplicate)) {
    ++stats_.link_duplicates;
    return LinkFault::Duplicate;
  }
  if (policy_.partition_ops > 0 && roll(policy_.link_partition)) {
    ++stats_.partitions_opened;
    ++stats_.partition_drops;
    if (policy_.partition_ops > 1)
      partitioned_left_[link_key] = policy_.partition_ops - 1;
    return LinkFault::Drop;
  }
  return LinkFault::None;
}

void FaultInjector::partition_link(std::uint64_t link_key, std::size_t ops) {
  if (ops == 0) return;
  ++stats_.partitions_opened;
  partitioned_left_[link_key] = ops;
}

void FaultInjector::crash_node(std::size_t node) {
  if (crashed_.insert(node).second) ++stats_.crashes;
}

namespace {
constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}
}  // namespace

std::uint64_t FaultInjector::key(std::string_view name, std::size_t a,
                                 std::size_t b) noexcept {
  std::uint64_t h = kFnvOffset;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return fnv_mix(fnv_mix(h, a), b);
}

}  // namespace tvmec::storage
