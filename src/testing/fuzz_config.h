#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "ec/reed_solomon.h"
#include "tensor/variant.h"

/// Configuration space of the cross-backend differential fuzzer: one
/// FuzzConfig pins down everything a fuzz iteration does — the scenario,
/// the code shape, the unit size, the payload seed, the loss pattern and
/// the GEMM schedule — so a single short string reproduces any failure
/// byte for byte on any machine.
namespace tvmec::testing {

/// What one fuzz iteration exercises.
enum class Scenario {
  RsEncode,        ///< every backend's encode vs the embedding oracles
  RsDecode,        ///< every backend executing a DecodePlan vs originals
  LrcRoundTrip,    ///< LRC through core::Codec: encode/decode vs the
                   ///< bitpacket reference, and single local losses
                   ///< planned from the group alone
  Serve,           ///< random request mix through a one-shard
                   ///< ShardedEcService (manual pump, no threads) vs a
                   ///< sequential per-request Codec oracle, including
                   ///< queue-capacity admission accounting
  ServeChaos,      ///< Serve plus chaos: random cancels, pre-expired
                   ///< deadlines, shedding, and injected backend faults
                   ///< with the circuit breaker enabled — completed bytes
                   ///< must still match the oracle (faults may only cost
                   ///< latency), and the widened counter identities must
                   ///< balance exactly
  ServeShard,      ///< random tenant/client mixes through the sharded
                   ///< multi-tenant front (ShardedEcService, manual pump)
                   ///< vs the sequential per-request Codec oracle: client
                   ///< hashing, front-level QoS shares, and bounded work
                   ///< stealing may only decide *where* a request runs or
                   ///< whether it is admitted — completed bytes must match
                   ///< the oracle, rejected/expired requests must leave
                   ///< their buffers untouched, and the per-tenant counter
                   ///< identities must balance unconditionally (each
                   ///< tenant, the tenant aggregate vs the front
                   ///< aggregate, and the per-shard decomposition)
  Cluster,         ///< simulated multi-node cluster put / fail_node / get
                   ///< under seeded disk + link chaos (drops, duplicates,
                   ///< partition windows): returned bytes must match the
                   ///< original payload (degraded reads and hedging may
                   ///< only cost latency), and the network byte ledger
                   ///< must balance. The retired single-store names
                   ///< "store" and "store-fault" parse to this scenario
  ClusterRepair,   ///< cluster DAG repair under chaos with mid-repair
                   ///< faults (helper crashes, partitions): repair
                   ///< counter identity and network ledger must balance,
                   ///< and a healed cluster must read back byte-identical
                   ///< to the single-process oracle (the original bytes)
  ClusterHeal,     ///< the self-healing control plane under a seeded
                   ///< campaign of node crashes/revives, partitions, and
                   ///< disk corruption against a *running* healer
                   ///< (membership heartbeats + risk-prioritized queue +
                   ///< token bucket): after convergence every stripe must
                   ///< be fully redundant, reads must match the original
                   ///< payloads byte for byte, and the membership, queue,
                   ///< repair, and network-ledger identities must balance
                   ///< unconditionally
};

const char* to_string(Scenario s) noexcept;

/// One point in the fuzz space. Defaults form a small valid RS config.
struct FuzzConfig {
  Scenario scenario = Scenario::RsEncode;
  ec::RsFamily family = ec::RsFamily::CauchyGood;
  std::size_t k = 4;  ///< data units (LrcRoundTrip: data units, l must divide)
  std::size_t r = 2;  ///< parities (LrcRoundTrip: g, the global parities)
  std::size_t l = 0;  ///< LrcRoundTrip only: local groups (0 otherwise)
  unsigned w = 8;
  std::size_t unit_size = 64;  ///< bytes per unit; any multiple of w
  std::uint64_t seed = 1;      ///< drives payload bytes and fault injection
  /// Losses: erased unit ids (decode scenarios), failed node ids
  /// (cluster scenarios), empty for pure-encode runs. Kept verbatim —
  /// deliberately allowed to be unsorted or to hold duplicates, because
  /// tolerating such inputs is part of the decode contract under test.
  std::vector<std::size_t> losses;
  /// Index into the fuzzer's fixed GEMM schedule menu (0 = default
  /// schedule). See DiffFuzzer::schedule_menu().
  std::size_t sched = 0;
  /// Scattered-operand axis (RsEncode only): when nonzero, seeds the
  /// random fragmentation of two extra arms — Codec::encode_scattered
  /// over separately allocated per-unit buffers (aligned and misaligned
  /// mixed), and gemm_xorand_scattered over operands split at random
  /// word boundaries — both compared byte-for-byte against the
  /// contiguous result. 0 = contiguous-only iteration.
  std::uint64_t frag = 0;
  /// Kernel-variant axis (RsEncode only): when not Auto, the iteration
  /// forces this SIMD tier (via the TVMEC_FORCE_VARIANT machinery) for
  /// its GEMM arms and additionally diffs the forced result against a
  /// forced-scalar run of the same config — the cross-variant
  /// byte-equality contract. On a host lacking the tier the force is
  /// ignored with a warning (the repro still runs, on what the host
  /// has). Auto = no forcing, the default dispatch.
  tensor::KernelVariant variant = tensor::KernelVariant::Auto;

  /// Total units in the code (k + r, or k + l + g for LRC).
  std::size_t n() const noexcept {
    return scenario == Scenario::LrcRoundTrip ? k + l + r : k + r;
  }

  /// Throws std::invalid_argument when the config does not describe a
  /// runnable iteration (bad code shape, unit size, or loss ids).
  void validate() const;

  bool operator==(const FuzzConfig&) const = default;
};

/// Serializes a config as a one-line reproducer, e.g.
///   fuzz:v1 s=rs-decode f=cauchy-good k=6 r=3 w=8 u=128 seed=42
///       loss=1,3 sched=2
/// (single line; loss/sched/frag/var omitted when empty/zero/auto).
/// parse_repro is the exact inverse: parse_repro(format_repro(c)) == c
/// for every valid c.
std::string format_repro(const FuzzConfig& config);

/// Parses a reproducer string. Throws std::invalid_argument on malformed
/// input (bad magic, unknown key, unparsable number) — with a message
/// naming the offending token.
FuzzConfig parse_repro(const std::string& text);

/// Draws a uniformly-ish random valid config. The generator deliberately
/// over-weights edge cases the bug sweep targeted: k == 1, r == 0,
/// unit_size == w (one-byte packets), and unsorted/duplicate loss ids.
FuzzConfig random_config(std::mt19937_64& rng);

}  // namespace tvmec::testing
