#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ec/code_params.h"
#include "ec/decoder.h"
#include "gf/gf_matrix.h"

/// Local Reconstruction Codes (Azure-style; Huang et al. ATC'12), the
/// first code family the paper's future-work section commits to adding:
/// "we plan to include other classes of codes in our prototype, such as
/// local reconstruction codes (LRCs)".
///
/// An LRC(k, l, g) splits k data units into l equal groups, adds one
/// local XOR parity per group, and g global Reed-Solomon parities over
/// all k data units. A single lost unit is repaired from its group alone
/// (k/l reads instead of k), while any g simultaneous failures remain
/// recoverable via the global parities. Because every parity is still a
/// linear combination of the data, the whole code is one coefficient
/// matrix — so LRC encoding runs through the same GEMM path as RS,
/// exactly the "all linear codes can be developed via a highly optimized
/// GEMM routine" claim of the paper.
namespace tvmec::ec {

struct LrcParams {
  std::size_t k = 0;  ///< data units
  std::size_t l = 0;  ///< local groups (one local parity each)
  std::size_t g = 0;  ///< global parities
  unsigned w = 8;

  std::size_t n() const noexcept { return k + l + g; }
  std::size_t group_size() const noexcept { return k / l; }

  /// Throws std::invalid_argument unless k, l, g >= 1, l divides k, the
  /// field supports k + g distinct points, and w is supported.
  void validate() const;
};

/// Unit layout: [0, k) data, [k, k+l) local parities (group order),
/// [k+l, k+l+g) global parities.
class Lrc {
 public:
  explicit Lrc(const LrcParams& params);

  const LrcParams& params() const noexcept { return params_; }
  const gf::Field& field() const noexcept { return generator_.field(); }

  /// Full n x k generator: identity, then local rows, then global rows.
  const gf::Matrix& generator() const noexcept { return generator_; }

  /// (l + g) x k parity block (everything below the identity).
  gf::Matrix parity_matrix() const;

  /// Group index of a data or local-parity unit; nullopt for globals.
  std::optional<std::size_t> group_of(std::size_t unit) const;

  /// Reference encoder over contiguous buffers (k units in, l+g out).
  void encode_reference(std::span<const std::uint8_t> data,
                        std::span<std::uint8_t> parity,
                        std::size_t unit_size) const;

  /// Locality-aware repair plan for a single failed data or local-parity
  /// unit: reads only the group_size() surviving members of its group.
  /// Falls back to nullopt for global parities (use decode_plan).
  std::optional<DecodePlan> local_repair_plan(std::size_t failed_unit) const;

  /// The LRC's decode planner: a single lost data unit or local parity
  /// gets its local_repair_plan (group_size() reads instead of k); every
  /// other pattern goes to make_decode_plan. nullopt when the pattern is
  /// unrecoverable. Any pattern with at most g failures is always
  /// recoverable (Cauchy global parities), as is one failure per group
  /// via locals.
  std::optional<DecodePlan> decode_plan(
      std::span<const std::size_t> erased_ids) const;

 private:
  LrcParams params_;
  gf::Matrix generator_;
};

}  // namespace tvmec::ec
