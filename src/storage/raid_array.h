#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/tvmec.h"
#include "ec/code_params.h"
#include "storage/fault_injector.h"
#include "storage/retry.h"
#include "storage/scrub_types.h"

/// A RAID-6-style erasure-coded block array over simulated devices — the
/// classic block-layer integration of erasure coding (Patterson/Gibson/
/// Katz RAID, cited by the paper as the origin story).
///
/// n = k + r devices hold fixed-size blocks. Logical block `lba` lives in
/// stripe lba/k at stripe-position lba%k; units are rotated across
/// devices per stripe (left-symmetric layout) so parity traffic spreads
/// evenly. Small writes use the I/O-minimal parity patch (read old block
/// + r parities, GEMM the delta, write back) instead of re-encoding the
/// stripe; reads reconstruct through parity when devices are failed; a
/// replaced device is rebuilt stripe by stripe.
///
/// Fault model: every device block read/write consults an attached
/// FaultInjector. An array-level CRC-32C table (RAID metadata, separate
/// from device contents) records the intended checksum of every unit, so
/// silent device corruption is caught on read, retried (read-side flips
/// and transient errors are transient), and finally reconstructed
/// through parity — with the reconstruction itself CRC-verified.
namespace tvmec::storage {

struct RaidStats {
  std::uint64_t block_writes = 0;
  std::uint64_t small_write_patches = 0;  ///< writes served by parity delta
  std::uint64_t full_stripe_writes = 0;   ///< writes that re-encoded a stripe
  std::uint64_t degraded_reads = 0;
  std::uint64_t blocks_rebuilt = 0;
  std::uint64_t corruptions_detected = 0;  ///< checksum mismatches caught
  std::uint64_t units_repaired = 0;        ///< units rewritten by scrub
};

class RaidArray {
 public:
  /// block_size must be a positive multiple of 8*w. Throws
  /// std::invalid_argument on bad geometry.
  RaidArray(const ec::CodeParams& params, std::size_t block_size,
            std::size_t stripes);

  std::size_t num_devices() const noexcept { return params_.n(); }
  std::size_t block_size() const noexcept { return block_size_; }
  /// Logical capacity in blocks (k per stripe).
  std::size_t capacity_blocks() const noexcept {
    return params_.k * stripes_;
  }
  std::size_t num_stripes() const noexcept { return stripes_; }
  const RaidStats& stats() const noexcept { return stats_; }

  /// Non-owning fault injector consulted on every device read/write.
  void attach_fault_injector(FaultInjector* injector) noexcept {
    injector_ = injector;
  }
  FaultInjector* fault_injector() const noexcept { return injector_; }

  void set_retry_policy(const RetryPolicy& policy) noexcept {
    retry_ = policy;
  }
  const RetryPolicy& retry_policy() const noexcept { return retry_; }
  const RetryStats& retry_stats() const noexcept { return retry_stats_; }

  /// Shares a decode-plan cache (see cluster::Cluster::set_plan_cache):
  /// degraded reads and rebuilds skip inversion for already-planned loss
  /// patterns. Null detaches.
  void set_plan_cache(std::shared_ptr<core::PlanCache> cache) {
    codec_.set_plan_cache(std::move(cache));
  }

  /// Writes one logical block. When every device is online this is a
  /// RAID small write (1 data read + 1 data write + r parity
  /// read-modify-writes); with failures it falls back to a full-stripe
  /// read-reconstruct-re-encode. Throws std::invalid_argument on a bad
  /// lba or size, std::runtime_error when the stripe is unrecoverable.
  void write_block(std::size_t lba, std::span<const std::uint8_t> data);

  /// Reads one logical block, reconstructing if its device is down or
  /// its contents fail the checksum after retries.
  std::vector<std::uint8_t> read_block(std::size_t lba);

  /// Takes a device offline, losing its contents.
  void fail_device(std::size_t device);
  /// Installs a blank replacement for a failed device (does not rebuild).
  /// Also clears any crash the attached fault injector recorded.
  void replace_device(std::size_t device);
  bool device_failed(std::size_t device) const;

  /// Reconstructs every block of every online-but-blank device.
  /// Returns blocks rebuilt. Throws std::runtime_error if some stripe
  /// has more than r unavailable units.
  std::size_t rebuild();

  /// Verifies parity of every stripe; returns the number of inconsistent
  /// stripes (0 on a healthy array).
  std::size_t verify();

  /// Verifies and repairs one stripe (CRC per unit, parity consistency,
  /// GEMM reconstruction of bad units, verified rewrite). Driven
  /// incrementally by cluster::Scrubber. Unlike Cluster::scrub_stripe it
  /// keeps the parity re-encode cross-check: small writes patch parity
  /// in place, so a stale-but-CRC-valid parity is a failure mode here.
  /// Throws std::invalid_argument on a bad stripe index.
  StripeScrubResult scrub_stripe(std::size_t stripe);

  /// Test/chaos hook: flips one byte of the stored copy of unit `unit`
  /// in `stripe` without touching the CRC table. Returns false if the
  /// device is failed or the slot invalid.
  bool corrupt_unit(std::size_t stripe, std::size_t unit);

 private:
  struct Device {
    bool failed = false;
    std::vector<std::uint8_t> blocks;    // stripes * block_size bytes
    std::vector<bool> valid;             // per stripe-slot
  };

  enum class UnitRead { Ok, Missing, Corrupt };

  /// Device holding unit `u` of stripe `s` (rotated layout).
  std::size_t device_of(std::size_t stripe, std::size_t unit) const noexcept {
    return (unit + stripe) % params_.n();
  }
  std::uint8_t* slot(std::size_t device, std::size_t stripe) noexcept {
    return devices_[device].blocks.data() + stripe * block_size_;
  }
  std::uint32_t& unit_crc(std::size_t stripe, std::size_t unit) noexcept {
    return crcs_[stripe * params_.n() + unit];
  }

  /// Reads unit u of `stripe` into dest through faults/retries/CRC.
  UnitRead read_unit(std::size_t stripe, std::size_t u, std::uint8_t* dest);
  /// Persists `src` as unit u of `stripe` (records the intended CRC in
  /// the metadata table even when the device is down, so a later rebuild
  /// can be verified). Returns false when nothing was persisted.
  bool write_unit(std::size_t stripe, std::size_t u, const std::uint8_t* src);
  void mark_device_failed(std::size_t device);

  /// Reads the full stripe into `out` (n units), reconstructing missing/
  /// corrupt units (CRC-verified); returns true if reconstruction ran.
  bool read_stripe(std::size_t stripe, std::span<std::uint8_t> out);
  /// Writes stripe units from `in` to every online device.
  void write_stripe(std::size_t stripe, std::span<const std::uint8_t> in);

  ec::CodeParams params_;
  std::size_t block_size_;
  std::size_t stripes_;
  core::Codec codec_;
  std::vector<Device> devices_;
  /// Array-level metadata: intended CRC-32C of every (stripe, unit).
  std::vector<std::uint32_t> crcs_;
  RaidStats stats_;
  FaultInjector* injector_ = nullptr;
  RetryPolicy retry_;
  RetryStats retry_stats_;
};

}  // namespace tvmec::storage
