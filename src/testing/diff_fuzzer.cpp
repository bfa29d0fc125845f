#include "testing/diff_fuzzer.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "cluster/cluster.h"
#include "cluster/healer.h"
#include "cluster/membership.h"
#include "cluster/repair.h"
#include "core/backends.h"
#include "core/tvmec.h"
#include "ec/decoder.h"
#include "ec/lrc.h"
#include "ec/reed_solomon.h"
#include "serve/ec_service.h"
#include "serve/shard.h"
#include "serve/tenant.h"
#include "storage/fault_injector.h"
#include "tensor/buffer.h"
#include "tensor/kernel.h"
#include "tensor/scattered.h"

namespace tvmec::testing {

namespace {

using Bytes = tensor::AlignedBuffer<std::uint8_t>;

Bytes seeded_bytes(std::size_t size, std::uint64_t seed) {
  Bytes buf(size);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < size; ++i)
    buf[i] = static_cast<std::uint8_t>(rng());
  return buf;
}

std::string hex_byte(std::uint8_t b) {
  static const char* digits = "0123456789abcdef";
  return std::string{'0', 'x', digits[b >> 4], digits[b & 0xF]};
}

/// First divergent byte between two equal-length unit arrays, reported
/// as "<label>: unit U byte B: got 0xGG want 0xWW"; nullopt when equal.
std::optional<std::string> first_divergence(std::span<const std::uint8_t> got,
                                            std::span<const std::uint8_t> want,
                                            std::size_t unit_size,
                                            const std::string& label) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] == want[i]) continue;
    std::ostringstream out;
    out << label << ": unit " << i / unit_size << " byte " << i % unit_size
        << ": got " << hex_byte(got[i]) << " want " << hex_byte(want[i]);
    return out.str();
  }
  return std::nullopt;
}

/// Pins the process-wide kernel-variant force for one scope, restoring
/// whatever force (or absence of one) was active before. Forcing an
/// Auto variant is a no-op; forcing a tier this host lacks warns and is
/// ignored inside set_forced_variant, so repro strings from bigger
/// machines still run here.
class ForcedVariantGuard {
 public:
  explicit ForcedVariantGuard(tensor::KernelVariant v)
      : prev_(tensor::forced_variant()) {
    if (v != tensor::KernelVariant::Auto) tensor::set_forced_variant(v);
  }
  ~ForcedVariantGuard() { tensor::set_forced_variant(prev_); }
  ForcedVariantGuard(const ForcedVariantGuard&) = delete;
  ForcedVariantGuard& operator=(const ForcedVariantGuard&) = delete;

 private:
  std::optional<tensor::KernelVariant> prev_;
};

/// Instantiates a backend coder, honoring the config's schedule-menu
/// index for the Gemm backend (other backends have no schedule knob).
std::unique_ptr<ec::MatrixCoder> make_backend_coder(core::Backend backend,
                                                    const gf::Matrix& coeffs,
                                                    std::size_t sched) {
  if (backend == core::Backend::Gemm && sched != 0)
    return core::make_gemm_coder(
        coeffs, DiffFuzzer::schedule_menu().at(sched));
  return core::make_coder(backend, coeffs);
}

/// Sorted, deduplicated copy of a loss pattern.
std::vector<std::size_t> distinct(const std::vector<std::size_t>& ids) {
  std::vector<std::size_t> out(ids);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Runs `coder` on `in` twice — once directly and once from a +1-offset
/// copy of the input — and reports a divergence if the unaligned path
/// does not reproduce the aligned result (the satellite regression the
/// sweep fixed: unaligned buffers must stage, not diverge or throw).
std::optional<std::string> check_unaligned_matches(
    const ec::MatrixCoder& coder, std::span<const std::uint8_t> in,
    std::span<const std::uint8_t> aligned_out, std::size_t unit_size,
    const std::string& label) {
  Bytes shifted(in.size() + 1);
  std::memcpy(shifted.data() + 1, in.data(), in.size());
  Bytes out(aligned_out.size());
  coder.apply(shifted.span().subspan(1), out.span(), unit_size);
  return first_divergence(out.span(), aligned_out, unit_size,
                          label + " (+1-offset input)");
}

FuzzOutcome fail(const FuzzConfig& config, std::string detail) {
  return FuzzOutcome{false, format_repro(config), std::move(detail), 1};
}

/// Short-stripe arm: Codec::encode given only the leading
/// c = 1 + seed % k data units must reproduce the bitpacket oracle of the
/// data with units c..k-1 zeroed. c comes from the seed, not a new draw,
/// so the repro format and every pinned campaign replay unchanged.
std::optional<std::string> check_short_encode(
    const FuzzConfig& c, const core::Codec& codec,
    const gf::Matrix& parity_matrix, std::span<const std::uint8_t> data) {
  const std::size_t units = 1 + c.seed % c.k;
  const std::size_t parity_bytes = parity_matrix.rows() * c.unit_size;
  Bytes padded(c.k * c.unit_size);
  std::memcpy(padded.data(), data.data(), units * c.unit_size);
  Bytes oracle(parity_bytes);
  Bytes got(parity_bytes);
  ec::apply_matrix_reference_bitpacket(parity_matrix, padded.span(),
                                       oracle.span(), c.unit_size);
  codec.encode(data.first(units * c.unit_size), got.span(), c.unit_size);
  return first_divergence(
      got.span(), oracle.span(), c.unit_size,
      "codec encode of the leading " + std::to_string(units) + " units");
}

/// Scattered arm 1 (config.frag != 0): Codec::encode_scattered over
/// separately allocated per-unit buffers — a random mix of word-aligned
/// and deliberately misaligned units — must reproduce the bitpacket
/// oracle byte for byte (aligned units ride the zero-copy kernel,
/// misaligned ones the staged fallback; both must agree).
std::optional<std::string> check_scattered_codec(
    const FuzzConfig& c, std::span<const std::uint8_t> data,
    std::span<const std::uint8_t> oracle_bitpacket) {
  if (c.r == 0) return std::nullopt;
  core::Codec codec(ec::CodeParams{c.k, c.r, c.w}, c.family);
  std::mt19937_64 rng(c.frag ^ 0x5CA77E4EDull);
  std::vector<Bytes> units;
  std::vector<const std::uint8_t*> in_ptrs;
  std::vector<std::uint8_t*> out_ptrs;
  units.reserve(c.k + c.r);
  for (std::size_t u = 0; u < c.k + c.r; ++u) {
    const std::size_t offset = rng() % 2 == 0 ? 0 : 1 + rng() % 7;
    units.emplace_back(c.unit_size + offset);
    std::uint8_t* p = units.back().data() + offset;
    if (u < c.k) {
      std::memcpy(p, data.data() + u * c.unit_size, c.unit_size);
      in_ptrs.push_back(p);
    } else {
      out_ptrs.push_back(p);
    }
  }
  codec.encode_scattered(in_ptrs, out_ptrs, c.unit_size);
  for (std::size_t u = 0; u < c.r; ++u) {
    if (auto d = first_divergence(
            std::span<const std::uint8_t>(out_ptrs[u], c.unit_size),
            oracle_bitpacket.subspan(u * c.unit_size, c.unit_size),
            c.unit_size, "encode_scattered parity " + std::to_string(u)))
      return d;
  }
  return std::nullopt;
}

/// Scattered arm 2 (config.frag != 0): the kernel itself. Random
/// broadcast masks A and random B, with B and C split into fragments at
/// random word boundaries; gemm_xorand_scattered must match
/// gemm_naive_xorand on the contiguous copies.
std::optional<std::string> check_scattered_kernel(const FuzzConfig& c) {
  std::mt19937_64 rng(c.frag);
  const std::size_t m = std::max<std::size_t>(1, c.r) * c.w;
  const std::size_t kdim = c.k * c.w;
  const std::size_t n =
      c.k * std::max<std::size_t>(1, c.unit_size / c.w / 8);
  tensor::AlignedBuffer<std::uint64_t> a(m * kdim);
  tensor::AlignedBuffer<std::uint64_t> b(kdim * n);
  tensor::AlignedBuffer<std::uint64_t> ref(m * n);
  tensor::AlignedBuffer<std::uint64_t> got(m * n);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = rng() % 2 == 0 ? ~std::uint64_t{0} : 0;
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng();

  const tensor::MatView<const std::uint64_t> av{a.data(), m, kdim, kdim};
  tensor::gemm_naive_xorand(av, {b.data(), kdim, n, n},
                            {ref.data(), m, n, n});

  const auto split = [&rng](auto* base, std::size_t words) {
    using T = std::remove_reference_t<decltype(*base)>;
    std::vector<tensor::Fragment<T>> frags;
    std::size_t pos = 0;
    while (pos < words) {
      const std::size_t len =
          std::min<std::size_t>(words - pos, 1 + rng() % 97);
      frags.push_back({base + pos, len});
      pos += len;
    }
    return frags;
  };
  const tensor::ScatteredView<const std::uint64_t> bs(
      kdim, n, split(static_cast<const std::uint64_t*>(b.data()), kdim * n));
  const tensor::ScatteredView<std::uint64_t> cs(m, n,
                                                split(got.data(), m * n));
  tensor::gemm_xorand_scattered(av, bs, cs,
                                DiffFuzzer::schedule_menu().at(c.sched));
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (got[i] == ref[i]) continue;
    std::ostringstream out;
    out << "scattered kernel: word " << i << ": got 0x" << std::hex << got[i]
        << " want 0x" << ref[i];
    return out.str();
  }
  return std::nullopt;
}

FuzzOutcome run_rs_encode(const FuzzConfig& c) {
  // The variant axis pins every kernel in this iteration (all backend
  // arms, the scattered arms) to one SIMD tier; the scalar oracles below
  // are reference code untouched by dispatch, so each forced tier is
  // byte-diffed against scalar truth.
  const ForcedVariantGuard variant_guard(c.variant);
  const ec::CodeParams params{c.k, c.r, c.w};
  const ec::ReedSolomon rs(params, c.family);
  const gf::Matrix parity_matrix = rs.parity_matrix();
  const Bytes data = seeded_bytes(c.k * c.unit_size, c.seed);

  // Oracles: one per byte-embedding family (DESIGN.md §4b).
  Bytes oracle_bitpacket(c.r * c.unit_size);
  Bytes oracle_byte(c.r * c.unit_size);
  ec::apply_matrix_reference_bitpacket(parity_matrix, data.span(),
                                       oracle_bitpacket.span(), c.unit_size);
  ec::apply_matrix_reference(parity_matrix, data.span(), oracle_byte.span(),
                             c.unit_size);

  for (const core::Backend backend : core::backends_for_w(c.w)) {
    const auto coder = make_backend_coder(backend, parity_matrix, c.sched);
    const std::string label =
        std::string("backend ") + core::to_string(backend);
    Bytes out(c.r * c.unit_size);
    coder->apply(data.span(), out.span(), c.unit_size);
    const Bytes& oracle = core::is_bitpacket_backend(backend)
                              ? oracle_bitpacket
                              : oracle_byte;
    if (auto d = first_divergence(out.span(), oracle.span(), c.unit_size,
                                  label))
      return fail(c, *d);
    if (auto d = check_unaligned_matches(*coder, data.span(), out.span(),
                                         c.unit_size, label))
      return fail(c, *d);
    // Cross-variant arm: the same backend under a forced-scalar run must
    // reproduce the forced-tier output byte for byte.
    if (c.variant != tensor::KernelVariant::Auto &&
        c.variant != tensor::KernelVariant::Scalar) {
      const ForcedVariantGuard scalar_guard(tensor::KernelVariant::Scalar);
      Bytes scalar_out(c.r * c.unit_size);
      coder->apply(data.span(), scalar_out.span(), c.unit_size);
      if (auto d = first_divergence(
              out.span(), scalar_out.span(), c.unit_size,
              label + " forced " +
                  std::string(tensor::to_string(c.variant)) +
                  " vs forced scalar"))
        return fail(c, *d);
    }
  }
  {
    core::Codec codec(params, c.family);
    if (c.sched != 0)
      codec.set_schedule(DiffFuzzer::schedule_menu().at(c.sched));
    if (auto d = check_short_encode(c, codec, parity_matrix, data.span()))
      return fail(c, *d);
  }
  if (c.frag != 0) {
    if (auto d = check_scattered_codec(c, data.span(),
                                       oracle_bitpacket.span()))
      return fail(c, *d);
    if (auto d = check_scattered_kernel(c)) return fail(c, *d);
  }
  return FuzzOutcome{true, {}, {}, 1};
}

FuzzOutcome run_rs_decode(const FuzzConfig& c) {
  const ec::CodeParams params{c.k, c.r, c.w};
  const ec::ReedSolomon rs(params, c.family);
  const std::size_t n = params.n();
  const std::size_t unit = c.unit_size;
  if (c.losses.empty()) return FuzzOutcome{true, {}, {}, 1};

  // Full stripes under both embeddings: data verbatim, then parity.
  const Bytes data = seeded_bytes(c.k * unit, c.seed);
  Bytes stripe_bitpacket(n * unit), stripe_byte(n * unit);
  std::memcpy(stripe_bitpacket.data(), data.data(), c.k * unit);
  std::memcpy(stripe_byte.data(), data.data(), c.k * unit);
  const gf::Matrix parity_matrix = rs.parity_matrix();
  ec::apply_matrix_reference_bitpacket(
      parity_matrix, data.span(),
      stripe_bitpacket.span().subspan(c.k * unit), unit);
  ec::apply_matrix_reference(parity_matrix, data.span(),
                             stripe_byte.span().subspan(c.k * unit), unit);

  const std::vector<std::size_t> erased = distinct(c.losses);
  const bool out_of_range = erased.back() >= n;
  const bool too_many = erased.size() > c.r;

  // The Codec front door must tolerate the raw (unsorted / duplicated)
  // loss pattern, and must reject out-of-range or excess patterns with
  // invalid_argument rather than garbage output.
  {
    core::Codec codec(params, c.family);
    Bytes work = stripe_bitpacket;
    for (const std::size_t id : erased)
      if (id < n) std::memset(work.data() + id * unit, 0xEE, unit);
    if (out_of_range || too_many) {
      try {
        codec.decode(work.span(), c.losses, unit);
        return fail(c, "codec.decode accepted an invalid loss pattern");
      } catch (const std::invalid_argument&) {
        if (!out_of_range)
          return fail(c,
                      "codec.decode: excess erasures should be runtime_error "
                      "(unrecoverable), not invalid_argument");
      } catch (const std::runtime_error&) {
        // expected for > r distinct erasures (unrecoverable pattern)
        if (out_of_range)
          return fail(c,
                      "codec.decode: out-of-range id should be "
                      "invalid_argument, not runtime_error");
      }
      return FuzzOutcome{true, {}, {}, 1};
    }
    codec.decode(work.span(), c.losses, unit);
    if (auto d = first_divergence(work.span(), stripe_bitpacket.span(), unit,
                                  "codec.decode"))
      return fail(c, *d);
  }

  // Every backend executes the same DecodePlan as an encode over the
  // survivors; recovered units must match the originals byte for byte
  // within the backend's embedding family.
  const auto plan = ec::make_decode_plan(rs.generator(), erased);
  if (!plan)
    return fail(c, "make_decode_plan failed on an MDS-decodable pattern");
  const std::size_t s = plan->survivors.size();
  for (const core::Backend backend : core::backends_for_w(c.w)) {
    const Bytes& stripe = core::is_bitpacket_backend(backend)
                              ? stripe_bitpacket
                              : stripe_byte;
    Bytes survivors(s * unit);
    for (std::size_t i = 0; i < s; ++i)
      std::memcpy(survivors.data() + i * unit,
                  stripe.data() + plan->survivors[i] * unit, unit);
    const auto coder = make_backend_coder(backend, plan->recovery, c.sched);
    Bytes recovered(erased.size() * unit);
    coder->apply(survivors.span(), recovered.span(), unit);
    for (std::size_t i = 0; i < plan->erased.size(); ++i) {
      const std::span<const std::uint8_t> want(
          stripe.data() + plan->erased[i] * unit, unit);
      const std::span<const std::uint8_t> got(recovered.data() + i * unit,
                                              unit);
      if (auto d = first_divergence(
              got, want, unit,
              std::string("backend ") + core::to_string(backend) +
                  " decode of unit " + std::to_string(plan->erased[i])))
        return fail(c, *d);
    }
  }
  return FuzzOutcome{true, {}, {}, 1};
}

FuzzOutcome run_lrc(const FuzzConfig& c) {
  const ec::LrcParams params{c.k, c.l, c.r, c.w};
  const ec::Lrc lrc(params);
  core::Codec codec(params);
  const std::size_t n = params.n();
  const std::size_t unit = c.unit_size;
  if (c.sched != 0)
    codec.set_schedule(DiffFuzzer::schedule_menu().at(c.sched));

  const Bytes data = seeded_bytes(c.k * unit, c.seed);
  Bytes stripe(n * unit);
  std::memcpy(stripe.data(), data.data(), c.k * unit);
  codec.encode(data.span(), stripe.span().subspan(c.k * unit), unit);

  // The GEMM LRC encode must match the bitpacket reference applied to
  // the same parity matrix.
  Bytes oracle((c.l + c.r) * unit);
  ec::apply_matrix_reference_bitpacket(lrc.parity_matrix(), data.span(),
                                       oracle.span(), unit);
  if (auto d = first_divergence(stripe.span().subspan(c.k * unit),
                                oracle.span(), unit, "lrc encode"))
    return fail(c, *d);
  if (auto d =
          check_short_encode(c, codec, lrc.parity_matrix(), data.span()))
    return fail(c, *d);

  if (c.losses.empty()) return FuzzOutcome{true, {}, {}, 1};
  const std::vector<std::size_t> erased = distinct(c.losses);
  if (erased.back() >= n) {
    Bytes work = stripe;
    try {
      codec.decode(work.span(), c.losses, unit);
      return fail(c, "lrc decode accepted an out-of-range loss id");
    } catch (const std::invalid_argument&) {
      return FuzzOutcome{true, {}, {}, 1};
    }
  }

  Bytes work = stripe;
  for (const std::size_t id : erased)
    std::memset(work.data() + id * unit, 0xEE, unit);
  const bool recoverable = lrc.decode_plan(erased).has_value();
  try {
    codec.decode(work.span(), c.losses, unit);
  } catch (const std::runtime_error&) {
    if (recoverable)
      return fail(c, "lrc decode refused a recoverable pattern");
    return FuzzOutcome{true, {}, {}, 1};
  }
  if (!recoverable)
    return fail(c, "lrc decode claimed success on an unrecoverable pattern");
  if (auto d =
          first_divergence(work.span(), stripe.span(), unit, "lrc decode"))
    return fail(c, *d);
  // Locality: one lost data unit or local parity reads only its group.
  if (erased.size() == 1 && erased[0] < c.k + c.l &&
      codec.plan(erased)->survivors.size() != params.group_size())
    return fail(c, "lrc single-unit plan reads outside the local group");
  return FuzzOutcome{true, {}, {}, 1};
}

/// Cluster scenarios: the simulated multi-node cluster vs the
/// single-process oracle (the original payload bytes). `repair` shifts
/// the chaos from the read path (degraded reads, hedging) to DAG repair
/// with mid-repair faults (helper crashes, partitions, drops). Whatever
/// the seeded disk + link chaos did, three things must hold: the network
/// byte ledger balances, the repair counter identity balances, and any
/// bytes returned are exactly the original payload — chaos may cost
/// latency or availability, never integrity.
FuzzOutcome run_cluster(const FuzzConfig& c, bool repair) {
  const ec::CodeParams params{c.k, c.r, c.w};
  const std::size_t unit = c.unit_size;
  const std::size_t num_nodes = params.n() + 2;

  cluster::ClusterConfig cc;
  cc.num_nodes = num_nodes;
  cc.num_domains = 1 + c.seed % 3;  // num_nodes >= 3 always
  cc.retry.max_attempts = 6;
  cc.hedge.min_samples = 2;
  cc.hedge.multiplier = 2.0;
  cc.seed = c.seed ^ 0xC1A5;
  cluster::Cluster cl(params, unit, cc);

  const std::size_t object_size = 1 + c.seed % (3 * c.k * unit);
  Bytes object = seeded_bytes(object_size, c.seed + 1);

  storage::FaultPolicy policy;
  policy.read_bit_flip = 0.05;   // healed by CRC-triggered re-reads
  policy.transient_read = 0.08;  // healed by retry-with-backoff
  policy.transient_failures = 2;
  policy.link_drop = 0.05;       // healed by RPC retries
  policy.link_duplicate = 0.05;  // aggregation must stay idempotent
  policy.link_partition = 0.01;
  policy.partition_ops = 3;
  if (repair) policy.crash = 0.005;  // mid-repair helper crashes
  storage::FaultInjector injector(policy, c.seed ^ 0xC7A05);

  if (repair) {
    cl.put("fuzz-object", object.span());  // store clean; chaos the repair
  } else {
    cl.attach_fault_injector(&injector);
    cl.put("fuzz-object", object.span());
  }

  const std::vector<std::size_t> failed = distinct(c.losses);
  for (const std::size_t node : failed) cl.fail_node(node);

  bool corrupted = false;
  if (repair) {
    cl.attach_fault_injector(&injector);
    if (c.r >= 1)
      corrupted = cl.corrupt_unit("fuzz-object", 0, c.seed % params.n());
    cl.repair();
    if (!cl.repair_stats().identity_holds())
      return fail(c, "repair counter identity violated under chaos");
    // Heal phase: quiet faults, scrub out what the chaos run left
    // behind. Chaos-crashed nodes stay dead — the durability check
    // below is exactly the question of whether repair preserved the
    // stripes within the code's budget anyway.
    injector.set_policy(storage::FaultPolicy{});
    cl.scrub();
    if (!cl.repair_stats().identity_holds())
      return fail(c, "repair counter identity violated after scrub");
  }

  if (!cl.net().stats().balanced())
    return fail(c, "network byte ledger does not balance");

  // Per stripe, the dead nodes (explicitly failed or chaos-crashed) that
  // hold a stored unit of it: at most one per node, and a node holding
  // only padding costs nothing.
  const auto dead_holders = [&] {
    std::vector<std::size_t> dead(cl.object_stripe_count("fuzz-object"), 0);
    for (std::size_t node = 0; node < num_nodes; ++node)
      if (cl.node_failed(node))
        for (const auto& [name, s] : cl.stripes_on_node(node)) ++dead[s];
    return dead;
  };
  // The most units any one stripe can still lose: its dead holders, plus
  // the one latent corruption if it was planted.
  const auto stripe_losses = [&] {
    const auto dead = dead_holders();
    return *std::max_element(dead.begin(), dead.end()) + (corrupted ? 1 : 0);
  };
  const std::size_t loss_budget = stripe_losses();

  const auto check_bytes =
      [&](const std::optional<std::vector<std::uint8_t>>& read,
          const char* label) -> std::optional<FuzzOutcome> {
    if (!read) return fail(c, std::string(label) + " lost the object");
    if (read->size() != object_size)
      return fail(c, std::string(label) + " returned " +
                         std::to_string(read->size()) + " bytes, want " +
                         std::to_string(object_size));
    if (auto d = first_divergence(*read, object.span(), unit, label))
      return fail(c, *d);
    return std::nullopt;
  };

  try {
    const auto read = cl.get("fuzz-object");
    if (auto failure = check_bytes(read, "cluster.get")) return *failure;
  } catch (const std::runtime_error&) {
    // Legal only past the code's budget — or when transient bursts and
    // drops chained past the retry budget (visible as exhausted ops,
    // including puts that could not place every unit).
    const bool transiently_unavailable = cl.retry_stats().exhausted > 0;
    if (loss_budget <= c.r && !transiently_unavailable)
      return fail(c, "cluster.get unrecoverable within the failure budget");
  }

  // Durability: transient unavailability must not have become data
  // loss. With the injector detached, every op fully retried during the
  // faulted phase, and at most r units of damage per stripe, a clean
  // re-read must succeed and match byte for byte.
  if (loss_budget <= c.r && cl.retry_stats().exhausted == 0) {
    cl.attach_fault_injector(nullptr);
    std::optional<std::vector<std::uint8_t>> clean;
    try {
      clean = cl.get("fuzz-object");
    } catch (const std::runtime_error& e) {
      return fail(c, std::string("clean re-read unrecoverable: ") + e.what());
    }
    if (auto failure = check_bytes(clean, "clean re-read")) return *failure;
    if (!cl.net().stats().balanced())
      return fail(c, "network byte ledger does not balance after clean read");

    // Small write: replace a seeded data unit of stripe 0 in place; the
    // object must then read back with that byte range replaced (clipped
    // to the object size). Where the nodes `losses` failed hold the old
    // unit or a parity, the write re-encodes; elsewhere it patches.
    const std::size_t target = c.seed % c.k;
    const Bytes fresh = seeded_bytes(unit, c.seed + 2);
    // A write into padding starts storing stripe 0's data units
    // [carried, target]: each whose holder is dead moves to a live node
    // outside the stripe while any is left. It may be refused only when
    // one finds none and more than r stored units would be on dead nodes.
    const std::size_t dead0 = dead_holders()[0];
    const auto placed = cl.placement("fuzz-object", 0);
    const std::size_t carried =
        (std::min(object_size, c.k * unit) + unit - 1) / unit;
    std::size_t moving = 0;
    for (std::size_t u = carried; u <= target; ++u)
      moving += cl.node_failed(placed[u]) ? 1 : 0;
    std::size_t spares = 0;
    for (std::size_t node = 0; node < num_nodes; ++node)
      if (!cl.node_failed(node) &&
          std::find(placed.begin(), placed.end(), node) == placed.end())
        ++spares;
    const std::size_t unplaced = moving > spares ? moving - spares : 0;
    try {
      cl.write_unit("fuzz-object", 0, target, fresh.span());
    } catch (const std::runtime_error& e) {
      if (unplaced == 0 || dead0 + unplaced <= c.r)
        return fail(c, std::string("small write unrecoverable: ") + e.what());
      // Refused: the object reads back unchanged.
      std::optional<std::vector<std::uint8_t>> kept;
      try {
        kept = cl.get("fuzz-object");
      } catch (const std::runtime_error& e2) {
        return fail(c, std::string("refused write left the object "
                                   "unreadable: ") + e2.what());
      }
      if (auto failure = check_bytes(kept, "refused-write re-read"))
        return *failure;
      return FuzzOutcome{true, {}, {}, 1};
    }
    const std::size_t off = target * unit;
    if (off < object_size)
      std::memcpy(object.data() + off, fresh.data(),
                  std::min(unit, object_size - off));
    // A write that returned normally leaves stripe 0 within r losses.
    if (dead_holders()[0] > c.r)
      return fail(c, "small write left more than r stored units on dead "
                     "nodes");
    const std::size_t written_losses = stripe_losses();
    std::optional<std::vector<std::uint8_t>> rewritten;
    try {
      rewritten = cl.get("fuzz-object");
    } catch (const std::runtime_error& e) {
      return fail(c, std::string("small write unrecoverable: ") + e.what());
    }
    if (auto failure = check_bytes(rewritten, "small-write re-read"))
      return *failure;

    // One more loss within the budget: the holder of another data unit
    // of stripe 0 dies. When the write landed in padding, the decode must
    // read the written unit, not the zeros it held before.
    if (c.k >= 2 && written_losses + 1 <= c.r) {
      cl.fail_node(cl.placement("fuzz-object", 0)[target == 0 ? 1 : 0]);
      std::optional<std::vector<std::uint8_t>> reread;
      try {
        reread = cl.get("fuzz-object");
      } catch (const std::runtime_error& e) {
        return fail(c, std::string("post-write loss unrecoverable: ") +
                           e.what());
      }
      if (auto failure = check_bytes(reread, "post-write loss re-read"))
        return *failure;
    }
  }
  return FuzzOutcome{true, {}, {}, 1};
}

/// The self-healing control plane under scripted chaos: a seeded
/// campaign of node crashes, revives, foreground reads/writes, and disk
/// corruption runs against a *live* healer (membership heartbeats,
/// risk-prioritized repair queue, token bucket), with probabilistic
/// link faults layered on top. The campaign keeps persistent damage
/// within the code's budget — at most min(2, r) dark nodes at a time,
/// corruption only while a parity of slack remains — so convergence is
/// always reachable: once the healer drains under a quiet fault policy,
/// every stripe must be fully redundant on the routing view, every
/// object must read back byte-identical to its payload, and the
/// membership, healer, repair, and network-ledger identities must
/// balance unconditionally.
FuzzOutcome run_cluster_heal(const FuzzConfig& c) {
  const ec::CodeParams params{c.k, c.r, c.w};
  const std::size_t unit = c.unit_size;
  const std::size_t num_nodes = params.n() + 2;

  cluster::ClusterConfig cc;
  cc.num_nodes = num_nodes;
  cc.num_domains = 1 + c.seed % 3;
  cc.retry.max_attempts = 6;
  cc.hedge.min_samples = 2;
  cc.hedge.multiplier = 2.0;
  cc.seed = c.seed ^ 0xC1A5;
  cluster::Cluster cl(params, unit, cc);

  // Two objects so repairs interleave across namespaces; sizes (and so
  // stripe counts) stay fixed for the whole campaign.
  const std::size_t stripe_bytes = c.k * unit;
  std::map<std::string, std::size_t> sizes;
  sizes["heal-a"] = 1 + c.seed % (3 * stripe_bytes);
  sizes["heal-b"] = 1 + (c.seed >> 8) % (2 * stripe_bytes);
  std::map<std::string, Bytes> payloads;
  for (const auto& [name, size] : sizes) {
    payloads.emplace(name, seeded_bytes(size, c.seed ^ size));
    cl.put(name, payloads.at(name).span());  // stored clean; chaos follows
  }
  const auto stripes_of = [&](const std::string& name) {
    return (sizes.at(name) + stripe_bytes - 1) / stripe_bytes;
  };

  storage::FaultPolicy policy;
  policy.read_bit_flip = 0.02;   // healed by CRC-triggered re-reads
  policy.transient_read = 0.04;  // healed by retry-with-backoff
  policy.transient_failures = 2;
  policy.link_drop = 0.02;       // lands on heartbeats and data alike
  policy.link_duplicate = 0.03;
  policy.link_partition = 0.005;  // short windows: Suspect, rarely Dead
  policy.partition_ops = 3;
  storage::FaultInjector injector(policy, c.seed ^ 0x4EA1);
  cl.attach_fault_injector(&injector);

  cluster::Membership membership(cl);
  cluster::HealerConfig hc;
  hc.max_requeues = 16;  // chaos makes individual attempts flaky
  hc.max_repairs_per_tick = 2 + c.seed % 3;
  hc.repair_bytes_per_sec = c.seed % 3 == 0 ? 0 : 512 * 1024;
  hc.burst_bytes = 64 * 1024;
  cluster::Healer healer(cl, &membership, hc);
  for (int t = 0; t < 16; ++t) healer.tick();  // warm the gap estimators

  // Scripted dark nodes: config losses seed the campaign, capped so
  // every stripe keeps at least one spare node for re-placement and the
  // persistent damage stays within the parity budget.
  const std::size_t dark_cap = std::min<std::size_t>(2, c.r);
  std::vector<std::size_t> dark;
  for (const std::size_t node : distinct(c.losses)) {
    if (dark.size() == dark_cap) break;
    injector.crash_node(node);
    dark.push_back(node);
  }
  std::mt19937_64 rng(c.seed ^ 0x8EA1D00D);
  if (dark.empty() && dark_cap > 0) {
    const std::size_t node = rng() % num_nodes;
    injector.crash_node(node);
    dark.push_back(node);
  }

  const auto check_bytes =
      [&](const std::optional<std::vector<std::uint8_t>>& read,
          const std::string& name,
          const char* label) -> std::optional<FuzzOutcome> {
    const Bytes& want = payloads.at(name);
    const std::string what = std::string(label) + " " + name;
    if (!read) return fail(c, what + " lost the object");
    if (read->size() != want.span().size())
      return fail(c, what + " returned " + std::to_string(read->size()) +
                         " bytes, want " +
                         std::to_string(want.span().size()));
    if (auto d = first_divergence(*read, want.span(), unit, what.c_str()))
      return fail(c, *d);
    return std::nullopt;
  };

  for (int round = 0; round < 6; ++round) {
    switch (rng() % 4) {
      case 0: {  // crash another node, honoring the dark cap. Fresh
                 // damage waits for a drained queue: outstanding revive
                 // debt or corruption still counts against the parity
                 // budget until the healer clears it.
        if (dark.size() < dark_cap && healer.pending() == 0 &&
            healer.parked_now() == 0) {
          const std::size_t node = rng() % num_nodes;
          if (std::find(dark.begin(), dark.end(), node) == dark.end()) {
            injector.crash_node(node);
            dark.push_back(node);
          }
        }
        break;
      }
      case 1: {  // revive a dark node: rejoin + re-replication debt
        if (!dark.empty()) {
          const std::size_t i = rng() % dark.size();
          cl.revive_node(dark[i]);
          dark.erase(dark.begin() + i);
        }
        break;
      }
      case 2: {  // plant corruption only while a parity of slack remains
                 // (and, as above, only on a drained queue)
        if (dark.size() + 1 <= c.r && healer.pending() == 0 &&
            healer.parked_now() == 0) {
          const std::string name = rng() % 2 ? "heal-a" : "heal-b";
          cl.corrupt_unit(name, rng() % stripes_of(name),
                          rng() % params.n());
        }
        break;
      }
      case 3: {  // foreground traffic against whatever is currently dark
        const std::string name = rng() % 2 ? "heal-a" : "heal-b";
        if (rng() % 2 == 0) {
          // A rewrite against undetected-dark nodes surfaces
          // WriteFailure damage; the healer owes the missing units.
          Bytes fresh = seeded_bytes(sizes.at(name), rng());
          cl.put(name, fresh.span());
          payloads.at(name) = std::move(fresh);
        } else {
          try {
            const auto read = cl.get(name);
            if (auto failure = check_bytes(read, name, "mid-campaign get"))
              return *failure;
          } catch (const std::runtime_error&) {
            // Mid-campaign unavailability is tolerated: undetected dark
            // nodes, retry exhaustion, and spurious partition verdicts
            // can all starve a single read. Integrity and availability
            // are gated deterministically after convergence below.
          }
        }
        break;
      }
    }
    // Let the control plane catch up: detector ticks, scrub converts
    // latent corruption into damage events, the queue partially drains.
    for (int t = 0; t < 8; ++t) healer.tick();
    cl.scrub();
    healer.run_until_idle(400);
  }

  // If every scripted crash was revived before the detector could rule,
  // plant one final dark node so the campaign always exercises at least
  // one full crash -> Dead -> re-placement cycle.
  if (dark.empty() && dark_cap > 0 &&
      healer.stats().nodes_declared_dead == 0) {
    healer.run_until_idle(400);  // plant only against a drained queue
    if (healer.pending() == 0 && healer.parked_now() == 0) {
      const std::size_t node = rng() % num_nodes;
      injector.crash_node(node);
      dark.push_back(node);
    }
  }
  // A node dark at quiet-phase entry is guaranteed a Dead verdict: under
  // a quiet policy every probe to it goes unanswered, so phi crosses
  // dead_phi within the settling ticks below.
  const bool expect_dead_verdict = !dark.empty();

  // Quiet the probabilistic faults (scripted crashes stay), let every
  // remaining verdict land, surface anything latent, and drain.
  injector.set_policy(storage::FaultPolicy{});
  for (int t = 0; t < 64; ++t) healer.tick();
  cl.scrub();
  for (int t = 0;
       t < 4000 && (healer.pending() != 0 || healer.parked_now() != 0); ++t)
    healer.tick();
  if (healer.pending() != 0 || healer.parked_now() != 0)
    return fail(c, "healer did not converge: pending=" +
                       std::to_string(healer.pending()) + " parked=" +
                       std::to_string(healer.parked_now()));

  // Zero unhealed recoverable damage: every stripe fully redundant on
  // the routing view, dark nodes re-placed around.
  for (const auto& [name, size] : sizes) {
    for (std::size_t s = 0; s < stripes_of(name); ++s) {
      const cluster::StripeHealth h = cl.repairer().stripe_health(name, s);
      if (!h.exists)
        return fail(c, "stripe " + name + "/" + std::to_string(s) +
                           " vanished during the campaign");
      if (h.erased != 0)
        return fail(c, "stripe " + name + "/" + std::to_string(s) +
                           " left with " + std::to_string(h.erased) +
                           " erasures after convergence");
    }
  }

  // Availability and integrity after convergence are unconditional.
  for (const auto& [name, size] : sizes) {
    std::optional<std::vector<std::uint8_t>> read;
    try {
      read = cl.get(name);
    } catch (const std::runtime_error& e) {
      return fail(c, "converged get(" + name + ") unrecoverable: " +
                         e.what());
    }
    if (auto failure = check_bytes(read, name, "converged get"))
      return *failure;
  }

  // The identity sweep — every counter family must balance, always.
  if (!healer.identity_holds())
    return fail(c, "healer accounting identity violated");
  if (!membership.probe_identity_holds())
    return fail(c, "membership probe identity violated");
  if (!membership.transitions_balance())
    return fail(c, "membership transition counters do not balance");
  if (!cl.repair_stats().identity_holds())
    return fail(c, "repair counter identity violated");
  if (!cl.net().stats().balanced())
    return fail(c, "network byte ledger does not balance");
  if (expect_dead_verdict && healer.stats().nodes_declared_dead == 0)
    return fail(c, "campaign crashed a node but no Dead verdict landed");
  return FuzzOutcome{true, {}, {}, 1};
}

/// The `serve` and `serve-chaos` harness: a one-shard front with no
/// serve threads (no workers, no watchdog) and no QoS, so the fuzzer's
/// own thread pumps it and every run replays deterministically.
serve::ShardedServiceConfig manual_one_shard_front() {
  serve::ShardedServiceConfig sc;
  sc.num_shards = 1;
  sc.workers_per_shard = 0;
  sc.qos_enforcement = false;
  sc.watchdog.enabled = false;
  return sc;
}

/// Serving-layer differential: a random mix of encode/decode requests
/// (some pre-expired) through a manual-pump one-shard front, checked
/// against a sequential per-request Codec oracle running the *default*
/// schedule — so batched wide-N execution under the menu schedule is
/// differentially compared with one-at-a-time execution, byte for byte.
/// Manual pump makes admission deterministic: nothing is consumed while
/// submitting, so exactly the first `queue_capacity` submissions are
/// accepted and the rest must be rejected Overloaded, and the stats
/// counters must balance exactly.
FuzzOutcome run_serve(const FuzzConfig& c) {
  const ec::CodeParams params{c.k, c.r, c.w};
  const std::size_t unit = c.unit_size;
  const std::size_t n = params.n();

  std::mt19937_64 rng(c.seed ^ 0x5E54E11CE);
  serve::ShardedServiceConfig sc = manual_one_shard_front();
  sc.shard.batch.queue_capacity = 1 + rng() % 8;
  sc.shard.batch.max_batch_requests = 1 + rng() % 4;
  sc.shard.schedule = DiffFuzzer::schedule_menu().at(c.sched);
  serve::ShardedEcService service(sc);
  const serve::CodecKey key{c.k, c.r, c.w, c.family};

  core::Codec oracle(params, c.family);  // default schedule, sequential

  struct ServeReq {
    bool decode = false;
    bool expired = false;
    bool expect_failed = false;  // unrecoverable decode pattern
    bool accepted = false;
    Bytes in{0}, out{0}, stripe{0}, want{0};
    serve::EcFuture future;
  };
  const bool can_decode = !c.losses.empty() && c.r > 0;
  const std::size_t num_requests = 2 + rng() % 10;
  std::vector<ServeReq> reqs(num_requests);
  std::size_t expected_accepted = 0;

  for (std::size_t i = 0; i < num_requests; ++i) {
    ServeReq& r = reqs[i];
    r.decode = can_decode && rng() % 2 == 0;
    r.expired = rng() % 5 == 0;
    const auto timeout =
        r.expired ? std::chrono::nanoseconds{-1} : std::chrono::nanoseconds{0};
    const Bytes data = seeded_bytes(c.k * unit, c.seed + 31 * i);

    if (r.decode) {
      r.stripe = Bytes(n * unit);
      std::memcpy(r.stripe.data(), data.data(), c.k * unit);
      oracle.encode(data.span(), r.stripe.span().subspan(c.k * unit), unit);
      for (const std::size_t id : distinct(c.losses))
        std::memset(r.stripe.data() + id * unit, 0xEE, unit);
      r.want = r.stripe;  // expired decodes must leave the holes untouched
      if (!r.expired) {
        try {
          oracle.decode(r.want.span(), c.losses, unit);
        } catch (const std::runtime_error&) {
          r.expect_failed = true;  // > r distinct erasures
        }
      }
      r.future = service.submit_decode(1, 0, key, r.stripe.span(), c.losses,
                                       unit, timeout);
    } else {
      r.in = data;
      r.out = Bytes(c.r * unit);  // zero-initialized
      r.want = Bytes(c.r * unit);
      if (!r.expired) oracle.encode(r.in.span(), r.want.span(), unit);
      r.future = service.submit_encode(1, 0, key, r.in.span(), r.out.span(),
                                       unit, timeout);
    }

    // Deterministic admission: accept iff the queue still had room.
    const bool should_accept =
        expected_accepted < sc.shard.batch.queue_capacity;
    r.accepted = should_accept;
    if (should_accept) {
      ++expected_accepted;
      if (r.future.ready())
        return fail(c, "serve: request " + std::to_string(i) +
                           " completed before any pump ran");
    } else {
      if (!r.future.ready())
        return fail(c, "serve: request " + std::to_string(i) +
                           " should have been rejected at admission");
      if (r.future.wait().status != serve::RequestStatus::Overloaded)
        return fail(c, std::string("serve: over-capacity request got ") +
                           serve::to_string(r.future.wait().status) +
                           ", want overloaded");
    }
  }

  service.run_pending();

  for (std::size_t i = 0; i < num_requests; ++i) {
    ServeReq& r = reqs[i];
    if (!r.accepted) continue;
    if (!r.future.ready())
      return fail(c, "serve: accepted request " + std::to_string(i) +
                         " not completed by run_pending");
    const serve::EcResult& result = r.future.wait();
    const serve::RequestStatus want_status =
        r.expired ? serve::RequestStatus::Expired
        : r.expect_failed ? serve::RequestStatus::Failed
                          : serve::RequestStatus::Ok;
    if (result.status != want_status)
      return fail(c, "serve: request " + std::to_string(i) + " got status " +
                         serve::to_string(result.status) + ", want " +
                         serve::to_string(want_status));
    if (r.expect_failed) continue;  // no byte contract after a failure
    const auto got = r.decode ? r.stripe.span() : r.out.span();
    if (auto d = first_divergence(
            got, r.want.span(), unit,
            "serve request " + std::to_string(i) +
                (r.decode ? " (decode)" : " (encode)") +
                (r.expired ? " expired-untouched" : "")))
      return fail(c, *d);
  }

  // Counter identities (the queue-capacity accounting contract).
  const serve::ServeStatsSnapshot s = service.stats().aggregate;
  const auto check = [&](bool ok, const std::string& what)
      -> std::optional<FuzzOutcome> {
    if (ok) return std::nullopt;
    return fail(c, "serve stats: " + what);
  };
  if (auto f = check(s.submitted == num_requests, "submitted != requests"))
    return *f;
  if (auto f = check(s.accepted == expected_accepted,
                     "accepted != min(requests, capacity)"))
    return *f;
  // Nothing here sheds, cancels or shuts down before this check, so
  // those buckets must be empty.
  if (auto f = check(s.rejected_shed == 0 && s.cancelled == 0 &&
                         s.shutdown_drained == 0,
                     "shed, cancelled or drained before shutdown"))
    return *f;
  if (auto f = check(s.admission_balanced(),
                     "submitted != accepted + rejected"))
    return *f;
  if (auto f = check(s.drained_balanced(),
                     "accepted != completed + expired + failed (drained)"))
    return *f;

  // Post-shutdown submissions must complete as Shutdown, not hang.
  service.shutdown();
  Bytes late_in(c.k * unit), late_out(c.r * unit);
  serve::EcFuture late =
      service.submit_encode(1, 0, key, late_in.span(), late_out.span(), unit);
  if (!late.ready() ||
      late.wait().status != serve::RequestStatus::Shutdown)
    return fail(c, "serve: post-shutdown submit did not complete as shutdown");
  return FuzzOutcome{true, {}, {}, 1};
}

/// Chaos variant of the serve differential: the same manual-pump
/// one-shard front and sequential Codec oracle, plus the
/// overload-protection machinery — random client cancels, pre-expired
/// deadlines with admission shedding, and injected primary-backend
/// faults with the circuit breaker enabled.
/// The invariant stays byte-exact: faults and breaker trips may only move
/// requests onto slower paths (singly-rescue, degraded naive backend),
/// never change completed bytes; cancelled/expired/shed requests leave
/// their buffers untouched; and the widened counter identities balance
/// exactly against a mirror of the admission rules.
FuzzOutcome run_serve_chaos(const FuzzConfig& c) {
  const ec::CodeParams params{c.k, c.r, c.w};
  const std::size_t unit = c.unit_size;
  const std::size_t n = params.n();

  std::mt19937_64 rng(c.seed ^ 0xC4A05C4A05ULL);
  serve::ShardedServiceConfig sc = manual_one_shard_front();
  serve::ServiceConfig& shard = sc.shard;
  shard.batch.queue_capacity = 2 + rng() % 8;
  shard.batch.max_batch_requests = 1 + rng() % 4;
  shard.batch.deadline_shedding = rng() % 2 == 0;
  shard.schedule = DiffFuzzer::schedule_menu().at(c.sched);
  shard.breaker.failure_threshold = 1 + rng() % 2;
  shard.breaker.success_threshold = 1 + rng() % 2;
  // Either probe immediately (exercises recovery) or never this run
  // (exercises the steady degraded path).
  shard.breaker.cooldown = rng() % 2 == 0 ? std::chrono::nanoseconds{0}
                                          : std::chrono::hours(1);
  // Deterministic fault sequence: the pump is single-threaded, so the
  // injector call order — hence the exact fault pattern — replays.
  const auto fault_rng = std::make_shared<std::mt19937_64>(c.seed ^ 0xFA017);
  std::size_t injected = 0;
  shard.fault_injector = [fault_rng, &injected](serve::RequestKind,
                                                const serve::CodecKey&,
                                                std::size_t) {
    const bool fire = (*fault_rng)() % 3 == 0;
    if (fire) ++injected;
    return fire;
  };
  serve::ShardedEcService service(sc);
  const serve::CodecKey key{c.k, c.r, c.w, c.family};

  core::Codec oracle(params, c.family);  // default schedule, sequential

  struct ChaosReq {
    bool decode = false;
    bool expired = false;        // submitted with an already-passed deadline
    bool cancelled = false;      // client cancel while queued
    bool expect_failed = false;  // unrecoverable decode pattern
    bool accepted = false;
    bool shed = false;
    Bytes in{0}, out{0}, stripe{0};
    Bytes want{0};  // oracle result (valid unless expect_failed)
    Bytes pre{0};   // decode pre-state: what dead requests leave behind
    serve::EcFuture future;
  };
  const bool can_decode = !c.losses.empty() && c.r > 0;
  const std::size_t num_requests = 4 + rng() % 10;
  std::vector<ChaosReq> reqs(num_requests);
  std::size_t expected_accepted = 0, expected_shed = 0, expected_overload = 0;

  for (std::size_t i = 0; i < num_requests; ++i) {
    ChaosReq& r = reqs[i];
    r.decode = can_decode && rng() % 2 == 0;
    r.expired = rng() % 4 == 0;
    const auto timeout =
        r.expired ? std::chrono::nanoseconds{-1} : std::chrono::nanoseconds{0};
    const Bytes data = seeded_bytes(c.k * unit, c.seed + 131 * i);

    if (r.decode) {
      r.stripe = Bytes(n * unit);
      std::memcpy(r.stripe.data(), data.data(), c.k * unit);
      oracle.encode(data.span(), r.stripe.span().subspan(c.k * unit), unit);
      for (const std::size_t id : distinct(c.losses))
        std::memset(r.stripe.data() + id * unit, 0xEE, unit);
      r.pre = r.stripe;  // dead decodes must leave the holes untouched
      r.want = r.stripe;
      try {
        oracle.decode(r.want.span(), c.losses, unit);
      } catch (const std::runtime_error&) {
        r.expect_failed = true;  // > r distinct erasures
      }
      r.future = service.submit_decode(1, 0, key, r.stripe.span(), c.losses,
                                       unit, timeout);
    } else {
      r.in = data;
      r.out = Bytes(c.r * unit);  // zero-initialized
      r.want = Bytes(c.r * unit);
      oracle.encode(r.in.span(), r.want.span(), unit);
      r.future = service.submit_encode(1, 0, key, r.in.span(), r.out.span(),
                                       unit, timeout);
    }

    // Mirror of the admission rules, in push order: shedding first (a
    // doomed request is shed even when the queue is full), then global
    // capacity. The pump consumes nothing while we submit, so the mirror
    // is exact.
    if (shard.batch.deadline_shedding && r.expired) {
      r.shed = true;
      ++expected_shed;
      if (!r.future.ready() ||
          r.future.wait().status != serve::RequestStatus::Shed)
        return fail(c, "serve-chaos: doomed request " + std::to_string(i) +
                           " was not shed at admission");
    } else if (expected_accepted < shard.batch.queue_capacity) {
      r.accepted = true;
      ++expected_accepted;
      if (r.future.ready())
        return fail(c, "serve-chaos: request " + std::to_string(i) +
                           " completed before any pump ran");
    } else {
      ++expected_overload;
      if (!r.future.ready() ||
          r.future.wait().status != serve::RequestStatus::Overloaded)
        return fail(c, "serve-chaos: over-capacity request " +
                           std::to_string(i) + " was not rejected overloaded");
    }
  }

  // Client cancels land while everything is still queued; cancellation
  // must win over deadline expiry at formation time.
  for (ChaosReq& r : reqs)
    if (r.accepted && rng() % 4 == 0) {
      r.cancelled = true;
      r.future.cancel();
    }

  service.run_pending();

  std::size_t want_ok = 0, want_expired = 0, want_cancelled = 0,
              want_failed = 0;
  for (std::size_t i = 0; i < num_requests; ++i) {
    ChaosReq& r = reqs[i];
    if (!r.accepted) continue;
    if (!r.future.ready())
      return fail(c, "serve-chaos: accepted request " + std::to_string(i) +
                         " not completed by run_pending");
    const serve::RequestStatus want_status =
        r.cancelled        ? serve::RequestStatus::Cancelled
        : r.expired        ? serve::RequestStatus::Expired
        : r.expect_failed  ? serve::RequestStatus::Failed
                           : serve::RequestStatus::Ok;
    switch (want_status) {
      case serve::RequestStatus::Ok: ++want_ok; break;
      case serve::RequestStatus::Expired: ++want_expired; break;
      case serve::RequestStatus::Cancelled: ++want_cancelled; break;
      case serve::RequestStatus::Failed: ++want_failed; break;
      default: break;
    }
    const serve::EcResult& result = r.future.wait();
    if (result.status != want_status)
      return fail(c, "serve-chaos: request " + std::to_string(i) +
                         " got status " + serve::to_string(result.status) +
                         ", want " + serve::to_string(want_status));
    if (want_status == serve::RequestStatus::Failed)
      continue;  // no byte contract after a failure
    // Ok requests must match the oracle; dead ones must be untouched —
    // encode outputs stay zero, decode stripes keep their holes.
    const bool ok = want_status == serve::RequestStatus::Ok;
    const auto got = r.decode ? r.stripe.span() : r.out.span();
    if (!ok && !r.decode) {
      for (const std::uint8_t b : got)
        if (b != 0)
          return fail(c, "serve-chaos: dead encode request " +
                             std::to_string(i) + " wrote to its output");
    } else if (auto d = first_divergence(
                   got, ok ? r.want.span() : r.pre.span(), unit,
                   "serve-chaos request " + std::to_string(i) +
                       (r.decode ? " (decode)" : " (encode)") +
                       (r.cancelled  ? " cancelled-untouched"
                        : r.expired  ? " expired-untouched"
                                     : "")))
      return fail(c, *d);
  }

  // Widened counter identities, balanced exactly against the mirror.
  const serve::ServeStatsSnapshot s = service.stats().aggregate;
  const auto check = [&](bool ok, const std::string& what)
      -> std::optional<FuzzOutcome> {
    if (ok) return std::nullopt;
    return fail(c, "serve-chaos stats: " + what);
  };
  if (auto f = check(s.submitted == num_requests, "submitted != requests"))
    return *f;
  if (auto f = check(s.accepted == expected_accepted, "accepted mismatch"))
    return *f;
  if (auto f = check(s.rejected_shed == expected_shed, "shed mismatch"))
    return *f;
  if (auto f = check(s.rejected_overload == expected_overload,
                     "overload mismatch"))
    return *f;
  if (auto f = check(s.completed_ok == want_ok, "completed_ok mismatch"))
    return *f;
  if (auto f = check(s.expired == want_expired, "expired mismatch")) return *f;
  if (auto f = check(s.cancelled == want_cancelled, "cancelled mismatch"))
    return *f;
  if (auto f = check(s.failed == want_failed, "failed mismatch")) return *f;
  if (auto f = check(s.admission_balanced(),
                     "submitted != accepted + rejected"))
    return *f;
  if (auto f = check(s.drained_balanced(),
                     "accepted != terminal outcomes (drained)"))
    return *f;
  // Breaker accounting sanity: every trip was caused by an injected
  // fault, and degraded batches only exist after a trip.
  if (auto f = check(s.breaker_trips <= injected, "trips > injected faults"))
    return *f;
  if (auto f = check(s.breaker_trips > 0 || s.degraded_batches == 0,
                     "degraded batches without a breaker trip"))
    return *f;

  service.shutdown();
  Bytes late_in(c.k * unit), late_out(c.r * unit);
  serve::EcFuture late =
      service.submit_encode(1, 0, key, late_in.span(), late_out.span(), unit);
  if (!late.ready() ||
      late.wait().status != serve::RequestStatus::Shutdown)
    return fail(c,
                "serve-chaos: post-shutdown submit did not complete as "
                "shutdown");
  return FuzzOutcome{true, {}, {}, 1};
}

/// Sharded multi-tenant differential: random tenant/client mixes through
/// ShardedEcService in manual-pump mode — client hashing across shards,
/// front-level tenant QoS (sometimes with hard weight skew so shares
/// bind), shared or per-shard plan caches, a cached schedule for the
/// encode task shape, and an opportunistic steal scan — against the
/// same sequential per-request Codec oracle. Sharding,
/// stealing, QoS and schedules may only decide *where* and *how* a
/// request runs or whether it is admitted: completed bytes must match
/// the oracle exactly, and rejected/expired requests must leave their
/// buffers untouched (encode outputs stay zero, decode stripes keep
/// their holes). The per-tenant counter identities are asserted
/// unconditionally — every tenant balances, the tenant aggregate equals
/// the front aggregate bucket for bucket, and the per-shard sums plus
/// front-level QoS rejections reproduce the aggregate admission counts.
FuzzOutcome run_serve_shard(const FuzzConfig& c) {
  const ec::CodeParams params{c.k, c.r, c.w};
  const std::size_t unit = c.unit_size;
  const std::size_t n = params.n();

  std::mt19937_64 rng(c.seed ^ 0x54A2DED5ULL);
  serve::ShardedServiceConfig sc;
  sc.num_shards = 1 + rng() % 3;
  sc.workers_per_shard = 0;  // manual pump: admission deterministic
  sc.shard.batch.queue_capacity = 1 + rng() % 6;
  sc.shard.batch.max_batch_requests = 1 + rng() % 4;
  sc.shard.schedule = DiffFuzzer::schedule_menu().at(c.sched);
  // Discarded: this draw once sized per-shard buffer pools; keeping it
  // keeps every pinned seed's configuration unchanged.
  (void)rng();
  if (rng() % 2 == 0)
    sc.shard.plan_cache = std::make_shared<core::PlanCache>();
  const std::size_t num_tenants = 1 + rng() % 3;
  // Sometimes skew the weights hard, so shares bind and front-level QoS
  // rejections fire alongside the shards' queue-capacity ones.
  if (rng() % 2 == 0) sc.tenant_policies[1] = serve::TenantPolicy{8.0, {}, 1};
  serve::ShardedEcService service(sc);
  const serve::CodecKey key{c.k, c.r, c.w, c.family};

  core::Codec oracle(params, c.family);  // default schedule, sequential
  // Encodes resolve their kernel shape through the front's schedule
  // cache: the menu's next entry, installed for this encode task shape
  // without an rng draw, so every pin replays the same configuration.
  const std::vector<tensor::Schedule>& menu = DiffFuzzer::schedule_menu();
  service.schedule_cache().install(oracle.encoder().task_shape(unit),
                                   {menu[(c.sched + 1) % menu.size()], 1.0});

  struct ShardReq {
    serve::TenantId tenant = 0;
    bool decode = false;
    bool expired = false;
    bool expect_failed = false;  // unrecoverable decode pattern
    bool accepted = false;
    Bytes in{0}, out{0}, stripe{0}, want{0};
    Bytes pre{0};  // decode pre-state: what dead requests leave behind
    serve::EcFuture future;
  };
  const bool can_decode = !c.losses.empty() && c.r > 0;
  const std::size_t num_requests = 3 + rng() % 12;
  std::vector<ShardReq> reqs(num_requests);
  std::size_t expected_accepted = 0, expected_rejected = 0;
  // Our own per-tenant ledger, mirrored against the registry at the end.
  std::map<serve::TenantId, serve::TenantCounters> mirror;

  for (std::size_t i = 0; i < num_requests; ++i) {
    ShardReq& r = reqs[i];
    r.tenant = 1 + rng() % num_tenants;
    const std::uint64_t client = rng() % (2 * sc.num_shards + 1);
    r.decode = can_decode && rng() % 2 == 0;
    r.expired = rng() % 5 == 0;
    const auto timeout =
        r.expired ? std::chrono::nanoseconds{-1} : std::chrono::nanoseconds{0};
    const Bytes data = seeded_bytes(c.k * unit, c.seed + 61 * i);

    if (r.decode) {
      r.stripe = Bytes(n * unit);
      std::memcpy(r.stripe.data(), data.data(), c.k * unit);
      oracle.encode(data.span(), r.stripe.span().subspan(c.k * unit), unit);
      for (const std::size_t id : distinct(c.losses))
        std::memset(r.stripe.data() + id * unit, 0xEE, unit);
      r.pre = r.stripe;  // dead decodes must leave the holes untouched
      r.want = r.stripe;
      if (!r.expired) {
        try {
          oracle.decode(r.want.span(), c.losses, unit);
        } catch (const std::runtime_error&) {
          r.expect_failed = true;  // > r distinct erasures
        }
      }
      r.future = service.submit_decode(r.tenant, client, key, r.stripe.span(),
                                       c.losses, unit, timeout);
    } else {
      r.in = data;
      r.out = Bytes(c.r * unit);  // zero-initialized
      r.want = Bytes(c.r * unit);
      if (!r.expired) oracle.encode(r.in.span(), r.want.span(), unit);
      r.future = service.submit_encode(r.tenant, client, key, r.in.span(),
                                       r.out.span(), unit, timeout);
    }

    // The admission verdict is whatever the front decided — a tenant
    // over its share and a full shard queue both land as an
    // immediately-ready Overloaded future; everything else must still
    // be pending (manual pump: nothing can have run yet).
    serve::TenantCounters& t = mirror[r.tenant];
    ++t.submitted;
    if (r.future.ready()) {
      if (r.future.wait().status != serve::RequestStatus::Overloaded)
        return fail(c, std::string("serve-shard: rejected request got ") +
                           serve::to_string(r.future.wait().status) +
                           ", want overloaded");
      ++expected_rejected;
      ++t.rejected_overload;
    } else {
      r.accepted = true;
      ++expected_accepted;
      ++t.accepted;
    }
  }

  // Exercise the steal path opportunistically: a bounded steal scan is
  // byte-neutral — it may only complete queued work on the thief's
  // thread, never change results or admission verdicts.
  if (sc.num_shards > 1 && rng() % 2 == 0)
    service.steal_for(rng() % sc.num_shards);

  service.run_pending();

  std::size_t want_ok = 0, want_expired = 0, want_failed = 0;
  for (std::size_t i = 0; i < num_requests; ++i) {
    ShardReq& r = reqs[i];
    serve::TenantCounters& t = mirror[r.tenant];
    if (!r.accepted) {
      // Rejections must have left the buffers alone: encode outputs
      // stay zero, decode stripes keep their holes.
      if (!r.decode) {
        for (const std::uint8_t b : r.out.span())
          if (b != 0)
            return fail(c, "serve-shard: rejected encode request " +
                               std::to_string(i) + " wrote to its output");
      } else if (auto d = first_divergence(
                     r.stripe.span(), r.pre.span(), unit,
                     "serve-shard rejected request " + std::to_string(i))) {
        return fail(c, *d);
      }
      continue;
    }
    if (!r.future.ready())
      return fail(c, "serve-shard: accepted request " + std::to_string(i) +
                         " not completed by run_pending");
    const serve::RequestStatus want_status =
        r.expired ? serve::RequestStatus::Expired
        : r.expect_failed ? serve::RequestStatus::Failed
                          : serve::RequestStatus::Ok;
    switch (want_status) {
      case serve::RequestStatus::Ok: ++want_ok; ++t.completed_ok; break;
      case serve::RequestStatus::Expired: ++want_expired; ++t.expired; break;
      default: ++want_failed; ++t.failed; break;
    }
    const serve::EcResult& result = r.future.wait();
    if (result.status != want_status)
      return fail(c, "serve-shard: request " + std::to_string(i) +
                         " got status " + serve::to_string(result.status) +
                         ", want " + serve::to_string(want_status));
    if (r.expect_failed) continue;  // no byte contract after a failure
    // Ok requests must match the oracle; expired ones must be untouched
    // (encode outputs stay zero — `want` was never written — and decode
    // stripes keep their holes).
    const auto got = r.decode ? r.stripe.span() : r.out.span();
    const auto want = r.decode && r.expired ? r.pre.span() : r.want.span();
    if (auto d = first_divergence(
            got, want, unit,
            "serve-shard request " + std::to_string(i) +
                (r.decode ? " (decode)" : " (encode)") +
                (r.expired ? " expired-untouched" : "")))
      return fail(c, *d);
  }

  const serve::ShardedStatsSnapshot s = service.stats();
  const serve::ServeStatsSnapshot& a = s.aggregate;
  const auto check = [&](bool ok, const std::string& what)
      -> std::optional<FuzzOutcome> {
    if (ok) return std::nullopt;
    return fail(c, "serve-shard stats: " + what);
  };
  if (auto f = check(a.submitted == num_requests, "submitted != requests"))
    return *f;
  if (auto f = check(a.accepted == expected_accepted, "accepted mismatch"))
    return *f;
  if (auto f = check(a.rejected_overload == expected_rejected,
                     "overload mismatch"))
    return *f;
  if (auto f = check(a.completed_ok == want_ok, "completed_ok mismatch"))
    return *f;
  if (auto f = check(a.expired == want_expired, "expired mismatch")) return *f;
  if (auto f = check(a.failed == want_failed, "failed mismatch")) return *f;
  if (auto f = check(a.admission_balanced(),
                     "submitted != accepted + rejected"))
    return *f;
  if (auto f = check(a.drained_balanced(),
                     "accepted != terminal outcomes (drained)"))
    return *f;

  // Per-shard decomposition and tenant roll-up: shard sums plus
  // front-level QoS rejections reproduce the aggregate admission counts,
  // and the tenant aggregate equals the front aggregate bucket for
  // bucket.
  if (auto f = check(s.front_balanced(),
                     "shard sums or tenant aggregate != front aggregate"))
    return *f;

  // Per-tenant identities, unconditional — each tenant balances and
  // matches our ledger exactly.
  for (const serve::TenantCounters& t : s.tenants) {
    if (auto f = check(t.admission_balanced() && t.drained_balanced(),
                       "tenant " + std::to_string(t.tenant) +
                           " identities do not balance"))
      return *f;
    const serve::TenantCounters& m = mirror[t.tenant];
    const bool exact = t.submitted == m.submitted &&
                       t.accepted == m.accepted &&
                       t.rejected_overload == m.rejected_overload &&
                       t.completed_ok == m.completed_ok &&
                       t.expired == m.expired && t.failed == m.failed &&
                       t.rejected_shed == 0 && t.cancelled == 0;
    if (auto f = check(exact, "tenant " + std::to_string(t.tenant) +
                                  " counters diverge from the mirror"))
      return *f;
  }
  if (auto f = check(s.tenant_aggregate.in_queue == 0,
                     "tenant aggregate still in queue"))
    return *f;

  // Post-shutdown submissions must complete as Shutdown — and the late
  // rejection must stay on the books with the identities still balanced.
  service.shutdown();
  Bytes late_in(c.k * unit), late_out(c.r * unit);
  serve::EcFuture late = service.submit_encode(1, 0, key, late_in.span(),
                                               late_out.span(), unit);
  if (!late.ready() ||
      late.wait().status != serve::RequestStatus::Shutdown)
    return fail(c,
                "serve-shard: post-shutdown submit did not complete as "
                "shutdown");
  const serve::ShardedStatsSnapshot s2 = service.stats();
  if (auto f = check(s2.aggregate.submitted == num_requests + 1 &&
                         s2.aggregate.rejected_shutdown == 1 &&
                         s2.tenant_aggregate.submitted ==
                             s2.aggregate.submitted &&
                         s2.tenant_aggregate.rejected_shutdown == 1,
                     "post-shutdown rejection not accounted"))
    return *f;
  return FuzzOutcome{true, {}, {}, 1};
}

}  // namespace

const std::vector<tensor::Schedule>& DiffFuzzer::schedule_menu() {
  static const std::vector<tensor::Schedule> menu = [] {
    std::vector<tensor::Schedule> m;
    m.push_back(tensor::default_schedule());
    m.push_back({.tile_m = 1, .tile_n = 1});                    // scalar
    m.push_back({.tile_m = 8, .tile_n = 64, .block_k = 8,
                 .block_n = 256});                              // big tiles
    m.push_back({.tile_m = 2, .tile_n = 16, .num_threads = 2,
                 .par_axis = tensor::ParAxis::N});              // parallel N
    m.push_back({.tile_m = 4, .tile_n = 4, .num_threads = 2,
                 .par_axis = tensor::ParAxis::MN,
                 .par_grain = 1});                              // 2D grid
    m.push_back({.tile_m = 4, .tile_n = 16,
                 .variant = tensor::KernelVariant::Scalar});    // pinned tier
    return m;
  }();
  return menu;
}

FuzzOutcome DiffFuzzer::run_one(const FuzzConfig& config) {
  try {
    config.validate();
    if (config.sched >= schedule_menu().size())
      throw std::invalid_argument("FuzzConfig: sched index out of range");
    switch (config.scenario) {
      case Scenario::RsEncode:
        return run_rs_encode(config);
      case Scenario::RsDecode:
        return run_rs_decode(config);
      case Scenario::LrcRoundTrip:
        return run_lrc(config);
      case Scenario::Serve:
        return run_serve(config);
      case Scenario::ServeChaos:
        return run_serve_chaos(config);
      case Scenario::ServeShard:
        return run_serve_shard(config);
      case Scenario::Cluster:
        return run_cluster(config, /*repair=*/false);
      case Scenario::ClusterRepair:
        return run_cluster(config, /*repair=*/true);
      case Scenario::ClusterHeal:
        return run_cluster_heal(config);
    }
    return fail(config, "unknown scenario");
  } catch (const std::exception& e) {
    return fail(config, std::string("unexpected exception: ") + e.what());
  }
}

FuzzOutcome DiffFuzzer::run_campaign(std::uint64_t seed,
                                     std::size_t iterations,
                                     std::uint64_t deadline_ms) {
  const auto start = std::chrono::steady_clock::now();
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < iterations; ++i) {
    if (deadline_ms != 0) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start);
      if (static_cast<std::uint64_t>(elapsed.count()) >= deadline_ms)
        return FuzzOutcome{true, {}, {}, i};
    }
    const FuzzConfig config = random_config(rng);
    FuzzOutcome outcome = run_one(config);
    if (!outcome.ok) {
      const FuzzConfig smallest = minimize(
          config, [](const FuzzConfig& c) { return !run_one(c).ok; });
      outcome = run_one(smallest);  // refresh detail for the minimized form
      outcome.ok = false;
      outcome.repro = format_repro(smallest);
      outcome.iterations = i + 1;
      return outcome;
    }
  }
  return FuzzOutcome{true, {}, {}, iterations};
}

namespace {

/// Drops loss ids that a shrunken shape can no longer address (they are
/// re-checked against still_fails, so semantics-changing clamps are only
/// ever *kept* when the failure survives them).
FuzzConfig clamp_losses(FuzzConfig c) {
  const std::size_t space =
      (c.scenario == Scenario::Cluster ||
       c.scenario == Scenario::ClusterRepair ||
       c.scenario == Scenario::ClusterHeal)
          ? c.n() + 2
          : c.n();
  std::erase_if(c.losses, [&](std::size_t id) { return id >= space; });
  return c;
}

bool is_valid(const FuzzConfig& c) {
  try {
    c.validate();
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

/// Simpler variants of `c`, most aggressive first.
std::vector<FuzzConfig> reductions(const FuzzConfig& c) {
  std::vector<FuzzConfig> out;
  const auto add = [&](FuzzConfig cand) {
    cand = clamp_losses(std::move(cand));
    if (cand != c && is_valid(cand)) out.push_back(std::move(cand));
  };
  for (std::size_t i = 0; i < c.losses.size(); ++i) {
    FuzzConfig cand = c;
    cand.losses.erase(cand.losses.begin() + static_cast<std::ptrdiff_t>(i));
    add(std::move(cand));
  }
  for (const std::size_t k : {c.k / 2, c.k - 1}) {
    FuzzConfig cand = c;
    cand.k = k;
    if (cand.scenario == Scenario::LrcRoundTrip)
      cand.l = std::min(cand.l, std::max<std::size_t>(cand.k, 1));
    add(std::move(cand));
  }
  if (c.r > 0) {
    FuzzConfig cand = c;
    cand.r = c.r - 1;
    add(std::move(cand));
  }
  if (c.scenario == Scenario::LrcRoundTrip && c.l > 1) {
    FuzzConfig cand = c;
    cand.l = 1;
    add(std::move(cand));
  }
  for (const std::size_t u : {static_cast<std::size_t>(c.w),
                              c.unit_size / 2 / c.w * c.w}) {
    FuzzConfig cand = c;
    cand.unit_size = u;
    add(std::move(cand));
  }
  if (c.sched != 0) {
    FuzzConfig cand = c;
    cand.sched = 0;
    add(std::move(cand));
  }
  if (c.frag != 0) {
    // Try the contiguous-only iteration first; if the failure persists,
    // the scattered arms were not the trigger. A fixed small seed keeps
    // the reproducer short when fragmentation does matter.
    FuzzConfig cand = c;
    cand.frag = 0;
    add(std::move(cand));
    if (c.frag > 9) {
      cand = c;
      cand.frag = c.frag % 7 + 1;
      add(std::move(cand));
    }
  }
  if (c.family != ec::RsFamily::CauchyGood) {
    FuzzConfig cand = c;
    cand.family = ec::RsFamily::CauchyGood;
    add(std::move(cand));
  }
  if (c.variant != tensor::KernelVariant::Auto) {
    // If the failure survives without the pinned tier, the variant was
    // irrelevant and the repro drops back to the dispatch default.
    FuzzConfig cand = c;
    cand.variant = tensor::KernelVariant::Auto;
    add(std::move(cand));
  }
  return out;
}

}  // namespace

FuzzConfig DiffFuzzer::minimize(
    const FuzzConfig& start,
    const std::function<bool(const FuzzConfig&)>& still_fails) {
  FuzzConfig best = start;
  // Greedy descent: accept the first reduction that still fails and
  // restart from it; stop at a fixed point. The step bound is a safety
  // net (every acceptance strictly shrinks some component).
  for (int step = 0; step < 1000; ++step) {
    bool improved = false;
    for (const FuzzConfig& cand : reductions(best)) {
      if (still_fails(cand)) {
        best = cand;
        improved = true;
        break;
      }
    }
    if (!improved) break;
  }
  return best;
}

}  // namespace tvmec::testing
