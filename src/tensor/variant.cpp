#include "tensor/variant.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

#include "tensor/xorand_kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace tvmec::tensor {

namespace {

#if defined(__x86_64__) || defined(__i386__)

/// XGETBV: which register state the OS saves/restores. A CPU can report
/// AVX-512 while the kernel never context-switches zmm — executing it
/// anyway corrupts state, so feature bits count only with OS support.
std::uint64_t read_xcr0() {
  std::uint32_t eax = 0, edx = 0;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<std::uint64_t>(edx) << 32) | eax;
}

CpuFeatures detect() {
  CpuFeatures f;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return f;
  const bool osxsave = (ecx >> 27) & 1;
  if (!osxsave) return f;  // no XGETBV -> no extended state at all
  const std::uint64_t xcr0 = read_xcr0();
  const bool ymm_state = (xcr0 & 0x6) == 0x6;          // XMM + YMM
  const bool zmm_state = (xcr0 & 0xE6) == 0xE6;        // + opmask/zmm
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    f.avx2 = ymm_state && ((ebx >> 5) & 1);
    f.avx512f = zmm_state && ((ebx >> 16) & 1);
    f.avx512bw = zmm_state && ((ebx >> 30) & 1);
    f.avx512vl = zmm_state && ((ebx >> 31) & 1);
    f.gfni = ((ecx >> 8) & 1) && ymm_state;
  }
  return f;
}

#elif defined(__aarch64__)

CpuFeatures detect() {
  CpuFeatures f;
  f.neon = true;  // Advanced SIMD is architecturally mandatory on aarch64
  return f;
}

#else

CpuFeatures detect() { return {}; }

#endif

/// Forced-variant state. 0 = uninitialized (read env on first touch),
/// 1 = no force, otherwise 1 + variant value.
std::atomic<int> g_forced{0};
std::once_flag g_env_once;

void warn_ignored(const char* what, const std::string& name) {
  std::fprintf(stderr,
               "tvmec: TVMEC_FORCE_VARIANT: ignoring %s variant '%s' "
               "(running best available instead)\n",
               what, name.c_str());
}

/// Parses and installs a force request; unknown or unavailable names are
/// ignored with a warning (never fatal — a repro script copied to a
/// lesser machine should still run, on the tiers that machine has).
std::optional<KernelVariant> parse_force(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  const std::optional<KernelVariant> v = variant_from_string(text);
  if (!v || *v == KernelVariant::Auto) {
    warn_ignored("unknown", text);
    return std::nullopt;
  }
  if (!variant_available(*v)) {
    warn_ignored("unavailable", text);
    return std::nullopt;
  }
  return v;
}

void init_forced_from_env() {
  std::call_once(g_env_once, [] {
    const std::optional<KernelVariant> v =
        parse_force(std::getenv("TVMEC_FORCE_VARIANT"));
    int expected = 0;
    g_forced.compare_exchange_strong(
        expected, v ? 2 + static_cast<int>(*v) : 1,
        std::memory_order_relaxed);  // a racing set_forced_variant wins
  });
}

}  // namespace

const char* to_string(KernelVariant v) noexcept {
  switch (v) {
    case KernelVariant::Auto:
      return "auto";
    case KernelVariant::Scalar:
      return "scalar";
    case KernelVariant::Avx2:
      return "avx2";
    case KernelVariant::Avx512:
      return "avx512";
    case KernelVariant::Neon:
      return "neon";
    case KernelVariant::Gfni:
      return "gfni";
  }
  return "?";
}

std::optional<KernelVariant> variant_from_string(
    std::string_view name) noexcept {
  for (const KernelVariant v :
       {KernelVariant::Auto, KernelVariant::Scalar, KernelVariant::Avx2,
        KernelVariant::Avx512, KernelVariant::Neon, KernelVariant::Gfni})
    if (name == to_string(v)) return v;
  return std::nullopt;
}

const CpuFeatures& cpu_features() noexcept {
  static const CpuFeatures f = detect();
  return f;
}

bool variant_available(KernelVariant v) noexcept {
  const CpuFeatures& f = cpu_features();
  switch (v) {
    case KernelVariant::Auto:
    case KernelVariant::Scalar:
      return true;
    case KernelVariant::Avx2:
      return f.avx2 && xorand_table_avx2() != nullptr;
    case KernelVariant::Avx512:
      // The AVX-512 TU is compiled with f+bw+vl, so all three gate it.
      return f.avx512f && f.avx512bw && f.avx512vl &&
             xorand_table_avx512() != nullptr;
    case KernelVariant::Neon:
      return f.neon && xorand_table_neon() != nullptr;
    case KernelVariant::Gfni:
      // The GFNI TU is compiled with f+bw+vl+gfni and falls back to the
      // AVX-512 table.
      return f.gfni && gfni_kernels() != nullptr &&
             variant_available(KernelVariant::Avx512);
  }
  return false;
}

std::vector<KernelVariant> available_variants() {
  std::vector<KernelVariant> out{KernelVariant::Scalar};
  for (const KernelVariant v :
       {KernelVariant::Neon, KernelVariant::Avx2, KernelVariant::Avx512,
        KernelVariant::Gfni})
    if (variant_available(v)) out.push_back(v);
  return out;
}

KernelVariant best_variant() noexcept {
  if (variant_available(KernelVariant::Gfni)) return KernelVariant::Gfni;
  if (variant_available(KernelVariant::Avx512)) return KernelVariant::Avx512;
  if (variant_available(KernelVariant::Avx2)) return KernelVariant::Avx2;
  if (variant_available(KernelVariant::Neon)) return KernelVariant::Neon;
  return KernelVariant::Scalar;
}

std::optional<KernelVariant> forced_variant() noexcept {
  init_forced_from_env();
  const int raw = g_forced.load(std::memory_order_relaxed);
  if (raw <= 1) return std::nullopt;
  return static_cast<KernelVariant>(raw - 2);
}

void set_forced_variant(std::optional<KernelVariant> v) noexcept {
  init_forced_from_env();  // settle the env race once, then overwrite
  if (v && (*v == KernelVariant::Auto || !variant_available(*v))) {
    warn_ignored(*v == KernelVariant::Auto ? "unknown" : "unavailable",
                 to_string(*v));
    v = std::nullopt;
  }
  g_forced.store(v ? 2 + static_cast<int>(*v) : 1,
                 std::memory_order_relaxed);
}

std::optional<KernelVariant> reload_forced_variant_from_env() {
  init_forced_from_env();
  const std::optional<KernelVariant> v =
      parse_force(std::getenv("TVMEC_FORCE_VARIANT"));
  g_forced.store(v ? 2 + static_cast<int>(*v) : 1,
                 std::memory_order_relaxed);
  return v;
}

KernelVariant resolve_variant(KernelVariant requested) noexcept {
  if (const std::optional<KernelVariant> f = forced_variant()) return *f;
  if (requested != KernelVariant::Auto && variant_available(requested))
    return requested;
  return best_variant();
}

KernelVariant active_variant() noexcept {
  return resolve_variant(KernelVariant::Auto);
}

}  // namespace tvmec::tensor
