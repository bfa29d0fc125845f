#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/cluster.h"

/// A RAID-6-style erasure-coded block array — the classic block-layer
/// integration of erasure coding (Patterson/Gibson/Katz RAID, cited by
/// the paper as the origin story) — as a logical-block layout over a
/// one-domain Cluster whose n = k + r nodes are the devices.
///
/// The cluster holds one object, and stripe s of the object is LBA
/// stripe s: logical block `lba` is data unit lba % k of stripe lba / k.
/// Cluster::put rotates stripe s to start at node s, so unit u of
/// stripe s lives on node (u + s) % n (a left-symmetric layout: parity
/// traffic spreads evenly). Everything else is the cluster's: faults,
/// retries, CRCs, degraded reads, small writes (Cluster::write_unit),
/// DAG rebuild (Cluster::repair), scrub (Scrubber over cluster()) and
/// stats.
namespace tvmec::cluster {

class RaidArray {
 public:
  /// block_size must be a positive multiple of 8*w and stripes positive;
  /// throws std::invalid_argument otherwise. The array starts all zero.
  RaidArray(const ec::CodeParams& params, std::size_t block_size,
            std::size_t stripes);

  /// The backing store, for device operations (fail_node, revive_node,
  /// repair), fault injection, the retry policy, the plan cache and
  /// stats.
  Cluster& cluster() noexcept { return cluster_; }
  std::size_t block_size() const noexcept { return cluster_.unit_size(); }
  std::size_t num_stripes() const noexcept { return stripes_; }
  /// Logical capacity in blocks (k per stripe).
  std::size_t capacity_blocks() const noexcept {
    return cluster_.params().k * stripes_;
  }

  /// Writes one logical block: a RAID small write when the old block
  /// and every parity read clean, a stripe re-encode otherwise. Throws
  /// std::invalid_argument on a bad lba or size, std::runtime_error
  /// when the stripe is unrecoverable.
  void write_block(std::size_t lba, std::span<const std::uint8_t> data);

  /// Reads one logical block, reconstructing it through parity when its
  /// device is down or its copy fails the checksum after retries.
  std::vector<std::uint8_t> read_block(std::size_t lba);

  /// Parity audit: reads every unit of every stripe, re-encodes the data
  /// and compares the parities. Returns the number of inconsistent or
  /// unreadable stripes (0 on a healthy array). CRCs only show that a
  /// unit holds what its metadata recorded; this is the one check that
  /// a patched parity is the right parity.
  std::size_t verify();

  /// Test/chaos hook: flips one byte of the stored copy of `unit` in
  /// `stripe`, checksum left stale. Returns false when the device is
  /// down or the slot invalid.
  bool corrupt_unit(std::size_t stripe, std::size_t unit);

 private:
  std::size_t stripes_;
  Cluster cluster_;
};

}  // namespace tvmec::cluster
