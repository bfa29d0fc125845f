#pragma once

#include <cstddef>

/// Shared result types for stripe-granular scrubbing, used by the
/// per-stripe scrub hooks of cluster::Cluster / RaidArray and aggregated
/// by cluster::Scrubber (cluster/scrubber.h).
namespace tvmec::storage {

/// Outcome of verifying (and repairing) one stripe.
struct StripeScrubResult {
  std::size_t units_verified = 0;  ///< units whose copy passed its CRC
  std::size_t crc_errors = 0;      ///< units whose checksum disagreed
  std::size_t parity_errors = 0;   ///< consistent-CRC units that failed
                                   ///< the parity re-encode cross-check
                                   ///< (RaidArray only)
  std::size_t units_repaired = 0;  ///< units rewritten with good bytes
  bool unrecoverable = false;      ///< > r units lost/corrupt: left as-is

  std::size_t errors() const noexcept { return crc_errors + parity_errors; }
};

}  // namespace tvmec::storage
