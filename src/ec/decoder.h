#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gf/gf_matrix.h"

/// Decode planning: turning "these units are lost" into a coefficient
/// matrix over the survivors. Because decoding an erasure code is "encode
/// with a different matrix" (paper §2: "the decoding process is very
/// similar to that of encoding"), every backend — including the GEMM one —
/// executes a DecodePlan through its ordinary encoding path.
namespace tvmec::ec {

/// A plan for recovering erased units from surviving ones.
struct DecodePlan {
  /// The unit ids (rows of the generator) the plan reads, ascending.
  /// make_decode_plan always chooses exactly k linearly independent
  /// survivors; the LRC planner reads only the group for a single
  /// local loss.
  std::vector<std::size_t> survivors;
  /// The erased unit ids the plan reconstructs, in input order.
  std::vector<std::size_t> erased;
  /// erased.size() x survivors.size() matrix:
  /// erased units = recovery * survivor units.
  gf::Matrix recovery;
};

/// Builds a decode plan against an arbitrary (n x k) generator matrix
/// whose row i generates unit i — the one planner every decode path
/// uses.
///
/// Survivors are taken greedily from `preferred`, in the caller's order,
/// until k linearly independent rows are found; an empty preference
/// means every survivor, in ascending order. For an MDS code that is
/// the first k survivors; for non-MDS codes such as LRCs the rank check
/// skips dependent rows. Erased and repeated ids in `preferred` are
/// skipped. The plan never reads outside the preference: when the
/// preferred set cannot recover the pattern the result is nullopt, so
/// a caller (the cluster passes failure-domain-local helpers first)
/// widens the set rather than getting a silently different plan.
/// Returns nullopt when the erasure pattern is unrecoverable. Throws
/// std::invalid_argument on an empty pattern, out-of-range or duplicate
/// erased ids, or an out-of-range preferred id.
std::optional<DecodePlan> make_decode_plan(
    const gf::Matrix& generator, std::span<const std::size_t> erased_ids,
    std::span<const std::size_t> preferred = {});

}  // namespace tvmec::ec
