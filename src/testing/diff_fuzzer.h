#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "tensor/schedule.h"
#include "testing/fuzz_config.h"

/// Cross-backend differential fuzzing (the correctness analogue of the
/// paper's cross-backend performance comparison): every registered
/// encoder/decoder backend is run on the same randomized configuration
/// and compared byte-for-byte against the embedding-appropriate
/// reference oracle — apply_matrix_reference_bitpacket for the bitmatrix
/// family, apply_matrix_reference for the byte-embedding family
/// (DESIGN.md §4b/§6). Cluster scenarios round-trip whole objects
/// through the simulated cluster under disk and link chaos.
///
/// Everything is deterministic in the FuzzConfig: a failure is reported
/// as a one-line reproducer string (format_repro) that replays the exact
/// divergence via `fuzz_repro` on any machine, after greedy shrinking to
/// a minimal failing config.
namespace tvmec::testing {

/// Result of one fuzz iteration or one campaign.
struct FuzzOutcome {
  bool ok = true;
  /// The failing config, formatted (minimized when from a campaign).
  std::string repro;
  /// First divergent byte: backend, unit, offset, got vs want — or the
  /// unexpected exception text.
  std::string detail;
  /// Configs executed (1 for run_one; campaign count otherwise).
  std::size_t iterations = 0;
};

class DiffFuzzer {
 public:
  /// The fixed GEMM schedule menu FuzzConfig::sched indexes (entry 0 is
  /// the default schedule). Kept small and stable so reproducer strings
  /// stay meaningful across versions.
  static const std::vector<tensor::Schedule>& schedule_menu();

  /// Executes one config against every applicable backend. Never throws
  /// for a valid config: unexpected exceptions come back as ok == false
  /// with the exception text in `detail`.
  static FuzzOutcome run_one(const FuzzConfig& config);

  /// Seeded random campaign: draws configs from random_config until
  /// `iterations` have run or `deadline_ms` elapses (0 = no deadline).
  /// Stops at the first divergence, shrinks it with minimize(), and
  /// returns the minimized reproducer.
  static FuzzOutcome run_campaign(std::uint64_t seed, std::size_t iterations,
                                  std::uint64_t deadline_ms = 0);

  /// Greedy config shrinking: repeatedly tries dropping loss ids,
  /// halving/decrementing the code shape, shrinking the unit size, and
  /// resetting schedule/family to defaults, accepting any reduction for
  /// which `still_fails` holds; returns the fixed point. The predicate
  /// is injected (rather than hard-wired to run_one) so the shrinking
  /// logic itself is unit-testable against synthetic bugs.
  static FuzzConfig minimize(
      const FuzzConfig& start,
      const std::function<bool(const FuzzConfig&)>& still_fails);
};

}  // namespace tvmec::testing
