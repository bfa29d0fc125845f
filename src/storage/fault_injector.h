#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <span>
#include <string_view>

/// Deterministic, seeded fault injection for the simulated storage
/// layers. The paper motivates erasure coding with failure-driven
/// workloads (RAID, object stores, in-memory checkpointing, §3); this is
/// the failure side of that story. The node layer of cluster::Cluster
/// (which also backs the RAID block array and the checkpoint manager)
/// consults an attached FaultInjector on *every* simulated read and
/// write, so chaos tests can subject the whole stack to the classic
/// taxonomy:
///
///  - silent bit flips     (persisted payload corrupted, checksum not)
///  - torn writes          (only a prefix persists; the tail is stale
///                          garbage, as on a powered-off sector)
///  - transient read errors (an op fails N times, then succeeds — the
///                          retry-with-backoff target)
///  - permanent crashes    (a node/device dies mid-op and stays dead
///                          until explicitly repaired)
///  - injected latency     (slow-node simulation; accounted in
///                          FaultStats, never slept — the simulated
///                          stack runs in virtual time)
///
/// The simulated cluster's network layer consults the same injector for
/// link-level faults, so one seeded fault source drives both disk and
/// wire chaos (no second injector to keep in sync for reruns):
///
///  - message drops        (a send vanishes; the retry layer's problem)
///  - duplicate delivery   (the message arrives twice — consumers must
///                          be idempotent)
///  - partition windows    (a link blackholes every send for N ops,
///                          then heals — the transient-burst discipline
///                          applied to links)
///
/// Everything is driven by one seeded mt19937_64, so the same seed and
/// the same op sequence reproduce the same faults byte for byte — the
/// property the chaos tests assert.
namespace tvmec::storage {

/// Per-op fault probabilities. All default to zero (a no-op injector).
struct FaultPolicy {
  double write_bit_flip = 0.0;  ///< P[flip one stored bit] per write
  double torn_write = 0.0;      ///< P[tail replaced by garbage] per write
  double read_bit_flip = 0.0;   ///< P[flip one bit of the returned copy]
  double transient_read = 0.0;  ///< P[start a transient-error burst]
  std::size_t transient_failures = 2;  ///< burst length: fail N, then ok
  double crash = 0.0;           ///< P[node dies permanently] per op
  double delay = 0.0;           ///< P[op is slowed] per op
  std::chrono::microseconds delay_amount{0};  ///< accounted, never slept

  // Link-level fault kinds, consulted by the cluster's network model on
  // every send. Same seeded stream as the disk faults above.
  double link_drop = 0.0;       ///< P[a send silently vanishes]
  double link_duplicate = 0.0;  ///< P[a send is delivered twice]
  double link_partition = 0.0;  ///< P[a send opens a partition window]
  std::size_t partition_ops = 16;  ///< window length: drop N sends, then heal

  /// True when every probability is zero (fast-path check).
  bool quiet() const noexcept {
    return write_bit_flip == 0.0 && torn_write == 0.0 &&
           read_bit_flip == 0.0 && transient_read == 0.0 && crash == 0.0 &&
           delay == 0.0 && link_drop == 0.0 && link_duplicate == 0.0 &&
           link_partition == 0.0;
  }
};

struct FaultStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t write_bit_flips = 0;
  std::uint64_t torn_writes = 0;
  std::uint64_t writes_corrupted = 0;  ///< writes hit by >=1 flip/tear
  std::uint64_t read_bit_flips = 0;
  std::uint64_t transient_bursts = 0;  ///< bursts started
  std::uint64_t transient_errors = 0;  ///< individual failed read attempts
  std::uint64_t crashes = 0;
  std::uint64_t delays = 0;
  std::chrono::microseconds delay_injected{0};
  std::uint64_t link_sends = 0;        ///< on_send calls
  std::uint64_t link_drops = 0;        ///< random drops (not partition drops)
  std::uint64_t link_duplicates = 0;
  std::uint64_t partitions_opened = 0;
  std::uint64_t partition_drops = 0;   ///< sends eaten by an open window
};

/// What on_read did to the attempt.
enum class ReadFault {
  None,      ///< read served (payload may still have been bit-flipped)
  Transient, ///< this attempt failed; retrying may succeed
  Crash,     ///< the node died; its contents are gone
};

/// What on_send did to the message.
enum class LinkFault {
  None,       ///< delivered once
  Drop,       ///< never arrives (random drop or open partition window)
  Duplicate,  ///< delivered twice; receivers must be idempotent
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPolicy& policy = {},
                         std::uint64_t seed = 0xFA17);

  const FaultPolicy& policy() const noexcept { return policy_; }
  /// Swaps the active policy (e.g. fault phase -> clean heal phase).
  /// Crashed nodes and in-flight transient bursts are kept.
  void set_policy(const FaultPolicy& policy) noexcept { policy_ = policy; }

  /// Called with the bytes about to be persisted on `node`; may corrupt
  /// them in place (bit flip / torn tail). Returns false when the node
  /// crashed — the write is lost and the node is dead from now on.
  /// `unit_key` identifies the logical unit (see key()).
  bool on_write(std::size_t node, std::uint64_t unit_key,
                std::span<std::uint8_t> bytes);

  /// Called with a freshly read *copy* of a unit's stored bytes; may
  /// corrupt the copy (read-side flip, caught by checksums and healed by
  /// a re-read), fail the attempt (Transient), or kill the node (Crash).
  ReadFault on_read(std::size_t node, std::uint64_t unit_key,
                    std::span<std::uint8_t> bytes);

  /// Called by the network model for every message on `link_key` (use
  /// key("link", src, dst) for a directed link). An open partition window eats
  /// the send and shortens by one op; otherwise the drop / duplicate /
  /// partition-open probabilities roll in that order.
  LinkFault on_send(std::uint64_t link_key);

  bool link_partitioned(std::uint64_t link_key) const {
    return partitioned_left_.contains(link_key);
  }
  /// Chaos hook: blackhole `link_key` for the next `ops` sends.
  void partition_link(std::uint64_t link_key, std::size_t ops);
  /// Chaos hook: heal a partition window early.
  void heal_link(std::uint64_t link_key) { partitioned_left_.erase(link_key); }

  bool crashed(std::size_t node) const { return crashed_.contains(node); }
  /// Chaos hook: kill a node now, deterministically.
  void crash_node(std::size_t node);
  /// The operator replaced the hardware: ops on `node` may succeed again.
  void repair_node(std::size_t node) { crashed_.erase(node); }

  const FaultStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = FaultStats{}; }

  /// Stable keys for transient-burst and partition tracking: unit b of
  /// stripe a of object `name`, or key("link", src, dst) for a link.
  static std::uint64_t key(std::string_view name, std::size_t a,
                           std::size_t b) noexcept;

 private:
  bool roll(double p);
  void delay_op();

  FaultPolicy policy_;
  std::mt19937_64 rng_;
  std::set<std::size_t> crashed_;
  /// Remaining failures of an active transient burst, per unit key.
  std::map<std::uint64_t, std::size_t> transient_left_;
  /// Remaining dropped sends of an open partition window, per link key.
  std::map<std::uint64_t, std::size_t> partitioned_left_;
  FaultStats stats_;
};

}  // namespace tvmec::storage
