#include "tensor/variant.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <vector>

#include "tensor/buffer.h"
#include "tensor/kernel.h"
#include "tensor/microkernel.h"
#include "tensor/scattered.h"
#include "tensor/xorand_kernels.h"

#include "../test_util.h"

namespace tvmec::tensor {
namespace {

/// Every test that touches the process-wide force restores the prior
/// state on exit, so test order can't leak a pinned tier.
class ForceRestorer {
 public:
  ForceRestorer() : prev_(forced_variant()) {}
  ~ForceRestorer() { set_forced_variant(prev_); }

 private:
  std::optional<KernelVariant> prev_;
};

TEST(Variant, NamesRoundTrip) {
  for (const KernelVariant v :
       {KernelVariant::Auto, KernelVariant::Scalar, KernelVariant::Avx2,
        KernelVariant::Avx512, KernelVariant::Neon}) {
    const auto back = variant_from_string(to_string(v));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, v);
  }
  EXPECT_FALSE(variant_from_string("sse9").has_value());
  EXPECT_FALSE(variant_from_string("").has_value());
  EXPECT_FALSE(variant_from_string("AVX2").has_value());  // case-sensitive
}

TEST(Variant, ScalarIsAlwaysAvailable) {
  EXPECT_TRUE(variant_available(KernelVariant::Scalar));
  ASSERT_NE(xorand_table(KernelVariant::Scalar), nullptr);
}

TEST(Variant, AvailableVariantsStartAtScalarAndEndAtBest) {
  const std::vector<KernelVariant> menu = available_variants();
  ASSERT_FALSE(menu.empty());
  EXPECT_EQ(menu.front(), KernelVariant::Scalar);
  EXPECT_EQ(menu.back(), best_variant());
  for (const KernelVariant v : menu) EXPECT_TRUE(variant_available(v));
}

TEST(Variant, DetectionMatchesCompiledTables) {
  // variant_available means BOTH the CPU supports the tier and this
  // build compiled it; either side alone must not offer the variant.
  const CpuFeatures& f = cpu_features();
  if (variant_available(KernelVariant::Avx2)) {
    EXPECT_TRUE(f.avx2);
    EXPECT_NE(xorand_table_avx2(), nullptr);
  }
  if (variant_available(KernelVariant::Avx512)) {
    EXPECT_TRUE(f.avx512f && f.avx512bw && f.avx512vl);
    EXPECT_NE(xorand_table_avx512(), nullptr);
  }
  if (variant_available(KernelVariant::Neon)) {
    EXPECT_TRUE(f.neon);
    EXPECT_NE(xorand_table_neon(), nullptr);
  }
}

TEST(Variant, EveryAvailableTableIsFullyPopulated) {
  for (const KernelVariant v : available_variants()) {
    const XorAndKernelTable* table = xorand_table(v);
    ASSERT_NE(table, nullptr) << to_string(v);
    for (int mi = 0; mi < 4; ++mi)
      for (int ni = 0; ni < 7; ++ni)
        EXPECT_NE(table->fn[mi][ni], nullptr)
            << to_string(v) << " tile index " << mi << "," << ni;
  }
}

TEST(Variant, ResolveHonorsAvailableRequestAndFallsBackOtherwise) {
  ForceRestorer restore;
  set_forced_variant(std::nullopt);
  EXPECT_EQ(resolve_variant(KernelVariant::Auto), best_variant());
  EXPECT_EQ(resolve_variant(KernelVariant::Scalar), KernelVariant::Scalar);
  for (const KernelVariant v :
       {KernelVariant::Avx2, KernelVariant::Avx512, KernelVariant::Neon}) {
    if (variant_available(v))
      EXPECT_EQ(resolve_variant(v), v);
    else
      EXPECT_EQ(resolve_variant(v), best_variant());
  }
}

TEST(Variant, ForceBeatsScheduleRequest) {
  ForceRestorer restore;
  set_forced_variant(KernelVariant::Scalar);
  EXPECT_EQ(active_variant(), KernelVariant::Scalar);
  EXPECT_EQ(resolve_variant(best_variant()), KernelVariant::Scalar);
  set_forced_variant(std::nullopt);
  EXPECT_EQ(active_variant(), best_variant());
}

TEST(Variant, ForcingUnavailableTierIsIgnoredNotFatal) {
  ForceRestorer restore;
  set_forced_variant(std::nullopt);
  // At most one of NEON / AVX-512 exists on any real host; force the
  // missing one and expect dispatch to keep running on best-available.
  for (const KernelVariant v : {KernelVariant::Neon, KernelVariant::Avx512,
                                KernelVariant::Avx2}) {
    if (variant_available(v)) continue;
    set_forced_variant(v);
    EXPECT_EQ(active_variant(), best_variant()) << to_string(v);
  }
}

TEST(Variant, EnvOverrideRoundTrips) {
  ForceRestorer restore;
  ASSERT_EQ(setenv("TVMEC_FORCE_VARIANT", "scalar", 1), 0);
  EXPECT_EQ(reload_forced_variant_from_env(), KernelVariant::Scalar);
  EXPECT_EQ(active_variant(), KernelVariant::Scalar);

  ASSERT_EQ(setenv("TVMEC_FORCE_VARIANT", "not-a-variant", 1), 0);
  EXPECT_EQ(reload_forced_variant_from_env(), std::nullopt);
  EXPECT_EQ(active_variant(), best_variant());

  ASSERT_EQ(unsetenv("TVMEC_FORCE_VARIANT"), 0);
  EXPECT_EQ(reload_forced_variant_from_env(), std::nullopt);
}

TEST(Variant, SimdCodegenReportsRuntimeTruth) {
  ForceRestorer restore;
  set_forced_variant(KernelVariant::Scalar);
  EXPECT_FALSE(xorand_simd_codegen());
  set_forced_variant(std::nullopt);
  EXPECT_EQ(xorand_simd_codegen(),
            best_variant() != KernelVariant::Scalar);
}

/// Fills a matrix with a seeded pattern; A gets XorAnd broadcast masks
/// (0 or ~0), B gets arbitrary words.
void fill_mask(std::uint64_t* p, std::size_t n, std::mt19937_64& rng) {
  for (std::size_t i = 0; i < n; ++i)
    p[i] = rng() % 2 == 0 ? ~std::uint64_t{0} : 0;
}
void fill_words(std::uint64_t* p, std::size_t n, std::mt19937_64& rng) {
  for (std::size_t i = 0; i < n; ++i) p[i] = rng();
}

/// Runs gemm_xorand for one (shape, schedule) under the scalar tier and
/// under `v`, expecting byte-identical C. `misalign` shifts every
/// operand one word off the allocation start, denying the kernels any
/// 64-byte-alignment assumption.
void expect_variant_matches_scalar(KernelVariant v, std::size_t m,
                                   std::size_t n, std::size_t k,
                                   const Schedule& base, bool misalign) {
  std::mt19937_64 rng(m * 1000003 + n * 1009 + k);
  const std::size_t pad = misalign ? 1 : 0;
  AlignedBuffer<std::uint64_t> a(m * k + pad), b(k * n + pad);
  AlignedBuffer<std::uint64_t> c_scalar(m * n + pad), c_variant(m * n + pad);
  fill_mask(a.data() + pad, m * k, rng);
  fill_words(b.data() + pad, k * n, rng);

  const MatView<const std::uint64_t> av{a.data() + pad, m, k, k};
  const MatView<const std::uint64_t> bv{b.data() + pad, k, n, n};

  Schedule s = base;
  s.variant = KernelVariant::Scalar;
  gemm_xorand(av, bv, {c_scalar.data() + pad, m, n, n}, s);
  s.variant = v;
  gemm_xorand(av, bv, {c_variant.data() + pad, m, n, n}, s);

  for (std::size_t i = 0; i < m * n; ++i)
    ASSERT_EQ(c_variant[pad + i], c_scalar[pad + i])
        << to_string(v) << " diverged at word " << i << " (m=" << m
        << " n=" << n << " k=" << k << " sched=" << base.to_string()
        << " misalign=" << misalign << ")";
}

TEST(VariantDifferential, GemmMatchesScalarAcrossShapesAndTiles) {
  ForceRestorer restore;
  set_forced_variant(std::nullopt);
  const struct {
    std::size_t m, n, k;
  } shapes[] = {{1, 1, 1},   {3, 5, 7},    {8, 64, 16},
                {16, 100, 9}, {4, 257, 33}, {2, 31, 80}};
  for (const KernelVariant v : available_variants()) {
    if (v == KernelVariant::Scalar) continue;
    for (const auto& sh : shapes) {
      for (const int tm : {1, 4, 8}) {
        for (const int tn : {1, 4, 16, 64}) {
          Schedule s;
          s.tile_m = tm;
          s.tile_n = tn;
          s.block_n = 64;
          expect_variant_matches_scalar(v, sh.m, sh.n, sh.k, s, false);
        }
      }
    }
  }
}

TEST(VariantDifferential, GemmMatchesScalarOnMisalignedBuffers) {
  ForceRestorer restore;
  set_forced_variant(std::nullopt);
  for (const KernelVariant v : available_variants()) {
    if (v == KernelVariant::Scalar) continue;
    Schedule s;
    s.tile_m = 4;
    s.tile_n = 16;
    expect_variant_matches_scalar(v, 6, 77, 13, s, true);
    s.tile_n = 64;
    expect_variant_matches_scalar(v, 8, 130, 24, s, true);
  }
}

TEST(VariantDifferential, BatchedWideNMatchesScalar) {
  ForceRestorer restore;
  set_forced_variant(std::nullopt);
  const std::size_t m = 8, k = 16;
  const std::size_t widths[] = {3, 64, 17, 256, 1};
  std::mt19937_64 rng(42);

  AlignedBuffer<std::uint64_t> a(m * k);
  fill_mask(a.data(), m * k, rng);
  const MatView<const std::uint64_t> av{a.data(), m, k, k};

  std::vector<AlignedBuffer<std::uint64_t>> bs, cs_scalar, cs_variant;
  for (const std::size_t n : widths) {
    bs.emplace_back(k * n);
    fill_words(bs.back().data(), k * n, rng);
    cs_scalar.emplace_back(m * n);
    cs_variant.emplace_back(m * n);
  }

  const auto run = [&](KernelVariant v,
                       std::vector<AlignedBuffer<std::uint64_t>>& cs) {
    std::vector<testutil::GemmItem> items;
    for (std::size_t i = 0; i < std::size(widths); ++i)
      items.push_back({{bs[i].data(), k, widths[i], widths[i]},
                       {cs[i].data(), m, widths[i], widths[i]}});
    Schedule s;
    s.tile_m = 4;
    s.tile_n = 16;
    s.variant = v;
    const auto [wide_b, wide_c] = testutil::wide_n(items);
    gemm_xorand_scattered(av, wide_b, wide_c, s);
  };

  for (const KernelVariant v : available_variants()) {
    if (v == KernelVariant::Scalar) continue;
    run(KernelVariant::Scalar, cs_scalar);
    run(v, cs_variant);
    for (std::size_t i = 0; i < std::size(widths); ++i)
      for (std::size_t w = 0; w < m * widths[i]; ++w)
        ASSERT_EQ(cs_variant[i][w], cs_scalar[i][w])
            << to_string(v) << " batched item " << i << " word " << w;
  }
}

TEST(VariantDifferential, ScatteredFragmentsMatchScalar) {
  ForceRestorer restore;
  set_forced_variant(std::nullopt);
  const std::size_t m = 6, n = 143, k = 21;
  std::mt19937_64 rng(7);

  AlignedBuffer<std::uint64_t> a(m * k), b(k * n);
  AlignedBuffer<std::uint64_t> c_scalar(m * n), c_variant(m * n);
  fill_mask(a.data(), m * k, rng);
  fill_words(b.data(), k * n, rng);
  const MatView<const std::uint64_t> av{a.data(), m, k, k};

  const auto split = [&rng](auto* base, std::size_t words) {
    using T = std::remove_reference_t<decltype(*base)>;
    std::vector<Fragment<T>> frags;
    std::size_t pos = 0;
    while (pos < words) {
      const std::size_t len = std::min<std::size_t>(words - pos,
                                                    1 + rng() % 23);
      frags.push_back({base + pos, len});
      pos += len;
    }
    return frags;
  };
  // One fragmentation shared by both runs so the operands are identical.
  const auto b_frags =
      split(static_cast<const std::uint64_t*>(b.data()), k * n);
  const auto cs_frags = split(c_scalar.data(), m * n);
  const auto cv_frags = split(c_variant.data(), m * n);

  Schedule s;
  s.tile_m = 4;
  s.tile_n = 16;
  for (const KernelVariant v : available_variants()) {
    if (v == KernelVariant::Scalar) continue;
    s.variant = KernelVariant::Scalar;
    gemm_xorand_scattered(av, {k, n, b_frags}, {m, n, cs_frags}, s);
    s.variant = v;
    gemm_xorand_scattered(av, {k, n, b_frags}, {m, n, cv_frags}, s);
    for (std::size_t i = 0; i < m * n; ++i)
      ASSERT_EQ(c_variant[i], c_scalar[i])
          << to_string(v) << " scattered word " << i;
  }
}

TEST(VariantDifferential, EnvForcedRunMatchesUnforced) {
  // The env knob must select the same code the schedule knob selects:
  // force the best tier via env, compare against a schedule-pinned run.
  ForceRestorer restore;
  const KernelVariant best = best_variant();
  const std::size_t m = 4, n = 96, k = 12;
  std::mt19937_64 rng(11);
  AlignedBuffer<std::uint64_t> a(m * k), b(k * n);
  AlignedBuffer<std::uint64_t> c_env(m * n), c_sched(m * n);
  fill_mask(a.data(), m * k, rng);
  fill_words(b.data(), k * n, rng);
  const MatView<const std::uint64_t> av{a.data(), m, k, k};
  const MatView<const std::uint64_t> bv{b.data(), k, n, n};

  Schedule s;
  s.tile_m = 4;
  s.tile_n = 16;

  ASSERT_EQ(setenv("TVMEC_FORCE_VARIANT", to_string(best), 1), 0);
  reload_forced_variant_from_env();
  ASSERT_EQ(active_variant(), best);
  gemm_xorand(av, bv, {c_env.data(), m, n, n}, s);

  ASSERT_EQ(unsetenv("TVMEC_FORCE_VARIANT"), 0);
  reload_forced_variant_from_env();
  s.variant = best;
  gemm_xorand(av, bv, {c_sched.data(), m, n, n}, s);

  for (std::size_t i = 0; i < m * n; ++i)
    ASSERT_EQ(c_env[i], c_sched[i]) << "word " << i;
}

}  // namespace
}  // namespace tvmec::tensor
