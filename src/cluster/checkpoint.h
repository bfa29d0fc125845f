#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cluster/cluster.h"

/// In-memory erasure-coded checkpointing for accelerator-native training —
/// the motivating application of the paper's §3: "High-performance
/// checkpointing libraries often leverage in-memory erasure coding across
/// multiple nodes to reduce the time-overhead of writing checkpoints to
/// stable storage."
///
/// Each of k training ranks contributes its state shard; r parity shards
/// let training survive up to r simultaneous rank failures without
/// touching stable storage. A rank layout over a one-domain Cluster of
/// n = k + r nodes: a checkpoint is one object of one stripe, and rank i's
/// shard (zero-padded to the capacity) is its data unit i. Each
/// checkpoint replaces the previous one. Cluster::put rotates placement,
/// so version v stores unit u on node (u + v - 1) % n; version 1 puts
/// rank u on node u. Everything else is the cluster's: faults, retries,
/// CRCs, degraded reads, DAG repair and stats, all reached through
/// cluster().
namespace tvmec::cluster {

class CheckpointManager {
 public:
  /// `params.k` = number of training ranks. `shard_capacity` is the
  /// fixed per-rank shard buffer size (a multiple of 8*w; shorter shards
  /// are zero-padded). Throws std::invalid_argument on bad sizes.
  CheckpointManager(const ec::CodeParams& params, std::size_t shard_capacity);

  /// The backing store, for fault injection, the retry policy and stats.
  Cluster& cluster() noexcept { return cluster_; }
  std::size_t shard_capacity() const noexcept { return cluster_.unit_size(); }

  /// Takes a checkpoint from all k ranks (shards[i] is rank i's state,
  /// size <= shard_capacity). Returns the new checkpoint version. The
  /// previous checkpoint and its losses are dropped: a fresh checkpoint
  /// is a fresh failure domain. Throws std::invalid_argument on a wrong
  /// shard count or oversize.
  std::uint64_t checkpoint(
      const std::vector<std::span<const std::uint8_t>>& shards);

  std::optional<std::uint64_t> latest_version() const noexcept;

  /// Simulates losing a rank's in-memory state for the latest checkpoint:
  /// the node holding the rank's unit dies and its replacement rejoins
  /// empty. Losing more than r ranks is permitted (failures don't consult
  /// quotas); the unrecoverable condition is reported by recover_shard.
  void lose_rank(std::size_t rank);

  /// Reconstructs the exact bytes rank `rank` checkpointed last. The
  /// stripe is scrubbed first, so every lost or corrupt unit is rebuilt
  /// in place and CRC-verified. Throws std::runtime_error with a clear
  /// message when more than r units are lost or corrupt, or
  /// std::logic_error when no checkpoint was ever taken.
  std::vector<std::uint8_t> recover_shard(std::size_t rank);

 private:
  Cluster cluster_;
  std::uint64_t version_ = 0;
  std::vector<std::size_t> shard_sizes_;  ///< original per-rank sizes
};

}  // namespace tvmec::cluster
