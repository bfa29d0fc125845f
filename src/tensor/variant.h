#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

/// Runtime SIMD-variant detection and dispatch — the seam that turns the
/// microkernel menu from a compile-time accident into a first-class tier.
///
/// Every binary carries scalar, AVX2, AVX-512 and GFNI (x86) or NEON
/// (aarch64) builds of the XorAnd microkernel family, compiled as separate
/// translation units with per-file target flags. Which one executes is a
/// *runtime* decision made here from CPUID, never from the flags the
/// library itself was compiled with: a generic build engages AVX-512 on a
/// capable host, and a binary built on that host still runs (scalar) on a
/// machine without it instead of dying on SIGILL. This is the
/// generator-emits-a-family-of-arch-specialized-microkernels pattern of
/// the TVM GEMM-generator line of work, applied at link time instead of
/// JIT time.
///
/// A schedule names the tier it was tuned on (Schedule::variant): the
/// tuner searches the tier calls resolve to (the forced one, else the
/// best), and tuning-log records carry it so a schedule tuned on one
/// ISA cannot silently mis-tune another.
namespace tvmec::tensor {

/// One member of the XorAnd microkernel family. `Auto` is not a kernel:
/// it resolves to the best available variant at dispatch time and is the
/// default of every schedule (and the meaning assigned to legacy tuning
/// logs that predate the variant field).
enum class KernelVariant : std::uint8_t {
  Auto = 0,
  Scalar,
  Avx2,
  Avx512,
  Neon,
  /// One gf2p8affineqb per 8x8 block of A (xorand_kernels_gfni.cpp),
  /// for an A of broadcast masks; otherwise the AVX-512 kernels.
  Gfni,
};

const char* to_string(KernelVariant v) noexcept;

/// Inverse of to_string; nullopt for unknown names.
std::optional<KernelVariant> variant_from_string(std::string_view name) noexcept;

/// CPUID-derived capabilities of the machine this process runs on (not
/// the machine it was built on). OS support for the wider register files
/// is included in the checks (XGETBV), so e.g. `avx2` is true only when
/// ymm state is actually saved/restored.
struct CpuFeatures {
  bool avx2 = false;
  bool avx512f = false;
  bool avx512bw = false;
  bool avx512vl = false;
  bool gfni = false;
  bool neon = false;
};

/// Cached one-shot detection.
const CpuFeatures& cpu_features() noexcept;

/// True when `v` can execute here: the hardware supports it *and* the
/// binary carries a compiled kernel table for it (a build whose compiler
/// lacked -mavx512f support reports Avx512 unavailable even on capable
/// hardware). Auto and Scalar are always available.
bool variant_available(KernelVariant v) noexcept;

/// The concrete variants available on this host, ascending (Scalar
/// first, best last). Never empty.
std::vector<KernelVariant> available_variants();

/// The fastest available concrete variant.
KernelVariant best_variant() noexcept;

/// The forced-variant override, if any. Initialized lazily from the
/// TVMEC_FORCE_VARIANT environment variable (values: scalar, avx2,
/// avx512, gfni, neon); a name that is unknown or unavailable on this
/// host is ignored with a one-time stderr warning rather than an error,
/// so a reproducing script copied across machines degrades instead of
/// dying.
std::optional<KernelVariant> forced_variant() noexcept;

/// Programmatic override (the test hook behind the env seam). nullopt
/// clears the force. Forcing an unavailable variant is ignored (with a
/// stderr warning) exactly like the env path.
void set_forced_variant(std::optional<KernelVariant> v) noexcept;

/// Re-reads TVMEC_FORCE_VARIANT and installs it (tests exercising the
/// env path call setenv then this). Returns what is now in force.
std::optional<KernelVariant> reload_forced_variant_from_env();

/// Dispatch resolution, in priority order: the forced variant if one is
/// set (reproducible benches force every call onto one tier), else
/// `requested` when it is concrete and available, else the best
/// available variant. Always returns a concrete, available variant.
KernelVariant resolve_variant(
    KernelVariant requested = KernelVariant::Auto) noexcept;

/// resolve_variant(Auto): what an unconstrained GEMM call executes now.
KernelVariant active_variant() noexcept;

}  // namespace tvmec::tensor
