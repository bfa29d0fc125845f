#include "tensor/variant.h"

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <random>
#include <thread>
#include <vector>

#include "core/gemm_coder.h"
#include "ec/reed_solomon.h"
#include "tensor/buffer.h"
#include "tensor/kernel.h"
#include "tensor/microkernel.h"
#include "tensor/scattered.h"
#include "tensor/xorand_kernels.h"

#include "../test_util.h"

namespace tvmec::tensor {
namespace {

using testutil::ForceRestorer;

TEST(Variant, NamesRoundTrip) {
  for (const KernelVariant v :
       {KernelVariant::Auto, KernelVariant::Scalar, KernelVariant::Avx2,
        KernelVariant::Avx512, KernelVariant::Neon, KernelVariant::Gfni}) {
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
  if (variant_available(KernelVariant::Gfni)) {
    EXPECT_TRUE(f.gfni && variant_available(KernelVariant::Avx512));
    EXPECT_NE(gfni_kernels(), nullptr);
    EXPECT_EQ(xorand_table(KernelVariant::Gfni),
              xorand_table(KernelVariant::Avx512));
    EXPECT_EQ(best_variant(), KernelVariant::Gfni);
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
  for (const KernelVariant v : {KernelVariant::Avx2, KernelVariant::Avx512,
                                KernelVariant::Neon, KernelVariant::Gfni}) {
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
  for (const KernelVariant v : {KernelVariant::Neon, KernelVariant::Gfni,
                                KernelVariant::Avx512, KernelVariant::Avx2}) {
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

/// The Gfni tier's A operand: bit s of byte 7 - i of block (I, J) is
/// A(8I + i, 8J + s), padded blocks are zero, and an A word that is
/// neither 0 nor ~0 leaves A without a block form.
TEST(AffineBlocks, LayoutPaddingAndNonMaskWords) {
  EXPECT_TRUE(affine_blocks({}).empty());
  if (!variant_available(KernelVariant::Gfni))
    GTEST_SKIP() << "host lacks GFNI + AVX-512: no tier reads a block form";
  const std::size_t m = 10, k = 11;
  AlignedBuffer<std::uint64_t> a(m * k);
  a[2 * k + 5] = ~std::uint64_t{0};  // block (0, 0), row 2, column 5
  a[9 * k + 10] = ~std::uint64_t{0};  // block (1, 1), row 1, column 2
  const AlignedBuffer<std::uint64_t> blocks =
      affine_blocks({a.data(), m, k, k});
  ASSERT_EQ(blocks.size(), 4u);
  EXPECT_EQ(blocks[0], std::uint64_t{1} << (8 * (7 - 2) + 5));
  EXPECT_EQ(blocks[1], 0u);
  EXPECT_EQ(blocks[2], 0u);
  EXPECT_EQ(blocks[3], std::uint64_t{1} << (8 * (7 - 1) + 2));

  a[3 * k + 7] = 0x8000000000000001ULL;
  EXPECT_TRUE(affine_blocks({a.data(), m, k, k}).empty());
  a[3 * k + 7] = 0x00000000FFFFFFFEULL;
  EXPECT_TRUE(affine_blocks({a.data(), m, k, k}).empty());
}

/// Runs gemm_xorand under the scalar tier and under Gfni through both
/// entries: the mask-only one (block form derived per call) and the
/// block-form one.
void expect_gfni_matches_scalar(std::size_t m, std::size_t n, std::size_t k,
                                const Schedule& base, bool misalign) {
  expect_variant_matches_scalar(KernelVariant::Gfni, m, n, k, base, misalign);
  std::mt19937_64 rng(m * 31 + n * 7 + k);
  AlignedBuffer<std::uint64_t> a(m * k), b(k * n), c(m * n), ref(m * n);
  fill_mask(a.data(), m * k, rng);
  fill_words(b.data(), k * n, rng);
  const MatView<const std::uint64_t> av{a.data(), m, k, k};
  const MatView<const std::uint64_t> bv{b.data(), k, n, n};
  const AlignedBuffer<std::uint64_t> blocks = affine_blocks(av);
  const std::size_t kg = (k + 7) / 8;
  Schedule s = base;
  s.variant = KernelVariant::Scalar;
  gemm_xorand(av, bv, {ref.data(), m, n, n}, s);
  s.variant = KernelVariant::Gfni;
  gemm_xorand(av, {blocks.data(), (m + 7) / 8, kg, kg}, bv, {c.data(), m, n, n},
              s);
  for (std::size_t i = 0; i < m * n; ++i)
    ASSERT_EQ(c[i], ref[i]) << "block-form entry, word " << i << " (m=" << m
                            << " n=" << n << " k=" << k
                            << " sched=" << base.to_string() << ")";
}

TEST(VariantDifferential, GfniMatchesScalarOnRaggedGroupsTailsAndBlocks) {
  if (!variant_available(KernelVariant::Gfni))
    GTEST_SKIP() << "host lacks GFNI + AVX-512";
  ForceRestorer restore;
  set_forced_variant(std::nullopt);
  // M and K off multiples of 8, N tails shorter than one 8-word chunk,
  // and RS(10,4) w=8's own shape.
  const struct {
    std::size_t m, n, k;
  } shapes[] = {{1, 1, 1},  {7, 3, 9},   {12, 7, 20},  {8, 8, 8},
                {32, 13, 80}, {33, 65, 81}, {17, 130, 15}};
  for (const auto& sh : shapes)
    for (const std::size_t block_k : {0, 5, 13})
      for (const std::size_t block_n : {0, 3, 64})
        for (const int threads : {1, 3}) {
          Schedule s;
          s.tile_m = 8;
          s.tile_n = 16;
          s.block_k = block_k;
          s.block_n = block_n;
          s.num_threads = threads;
          s.par_axis = ParAxis::MN;  // the Gfni road partitions N anyway
          expect_gfni_matches_scalar(sh.m, sh.n, sh.k, s, false);
        }
  Schedule s;
  s.tile_n = 1;
  expect_gfni_matches_scalar(6, 77, 13, s, true);
  s.block_k = 3;
  expect_gfni_matches_scalar(19, 9, 27, s, true);
}

/// A w=4 code's bitmatrix groups two field elements per 8-row block, and
/// a leading-units call's K = c * 4 can end inside a group: the Gfni
/// tier must still match the scalar tier byte for byte.
TEST(VariantDifferential, GfniRunsW4CodeAndLeadingUnits) {
  if (!variant_available(KernelVariant::Gfni))
    GTEST_SKIP() << "host lacks GFNI + AVX-512";
  ForceRestorer restore;
  const ec::ReedSolomon rs(ec::CodeParams{5, 3, 4});
  const core::GemmCoder coder(rs.parity_matrix());
  for (const std::size_t unit : {std::size_t{32}, std::size_t{96},
                                 std::size_t{32 * 21}}) {
    const AlignedBuffer<std::uint8_t> data = testutil::random_bytes(5 * unit,
                                                                    unit);
    for (std::size_t units = 1; units <= 5; ++units) {
      const std::span<const std::uint8_t> in(data.data(), units * unit);
      AlignedBuffer<std::uint8_t> ref(3 * unit), out(3 * unit);
      set_forced_variant(KernelVariant::Scalar);
      coder.apply_leading(in, ref.span(), unit);
      set_forced_variant(KernelVariant::Gfni);
      coder.apply_leading(in, out.span(), unit);
      ASSERT_TRUE(std::equal(ref.span().begin(), ref.span().end(),
                             out.span().begin()))
          << "unit=" << unit << " leading units=" << units;
    }
  }
}

TEST(VariantDifferential, GfniScatteredFragmentsEndInsideChunks) {
  if (!variant_available(KernelVariant::Gfni))
    GTEST_SKIP() << "host lacks GFNI + AVX-512";
  ForceRestorer restore;
  set_forced_variant(std::nullopt);
  const std::size_t m = 20, n = 61, k = 30;
  std::mt19937_64 rng(17);
  AlignedBuffer<std::uint64_t> a(m * k), b(k * n);
  AlignedBuffer<std::uint64_t> c_scalar(m * n), c_gfni(m * n);
  fill_mask(a.data(), m * k, rng);
  fill_words(b.data(), k * n, rng);
  const MatView<const std::uint64_t> av{a.data(), m, k, k};
  const AlignedBuffer<std::uint64_t> blocks = affine_blocks(av);
  // Fragments of 1-11 words: most end inside an 8-word chunk.
  const auto split = [&rng](auto* base, std::size_t words) {
    using T = std::remove_reference_t<decltype(*base)>;
    std::vector<Fragment<T>> frags;
    for (std::size_t pos = 0; pos < words;) {
      const std::size_t len =
          std::min<std::size_t>(words - pos, 1 + rng() % 11);
      frags.push_back({base + pos, len});
      pos += len;
    }
    return frags;
  };
  const auto b_frags =
      split(static_cast<const std::uint64_t*>(b.data()), k * n);
  const ScatteredView<const std::uint64_t> bs(k, n, b_frags);
  for (const std::size_t block_n : {0, 5, 24}) {
    Schedule s;
    s.tile_n = 4;
    s.block_n = block_n;
    s.block_k = 12;
    s.variant = KernelVariant::Scalar;
    gemm_xorand_scattered(av, bs, {m, n, split(c_scalar.data(), m * n)}, s);
    s.variant = KernelVariant::Gfni;
    gemm_xorand_scattered(av, {blocks.data(), 3, 4, 4}, bs,
                          {m, n, split(c_gfni.data(), m * n)}, s);
    for (std::size_t i = 0; i < m * n; ++i)
      ASSERT_EQ(c_gfni[i], c_scalar[i])
          << "block_n=" << block_n << " word " << i;
  }
}

/// The Gfni road reads B where it lives: an in-place RS(10,4)-shaped
/// call (M 32, K 80, 512-word n-blocks) retains the C panel alone,
/// 32 x 512 words, on a thread that ran nothing else.
TEST(VariantDifferential, GfniRoadTakesNoBPanel) {
  if (!variant_available(KernelVariant::Gfni))
    GTEST_SKIP() << "host lacks GFNI + AVX-512";
  ForceRestorer restore;
  set_forced_variant(std::nullopt);
  const std::size_t m = 32, n = 1024, k = 80;
  std::mt19937_64 rng(37);
  AlignedBuffer<std::uint64_t> a(m * k), b(k * n), c(m * n);
  fill_mask(a.data(), m * k, rng);
  fill_words(b.data(), k * n, rng);
  Schedule s;
  s.block_n = 512;
  s.variant = KernelVariant::Gfni;
  std::size_t retained = 0;
  std::thread([&] {
    gemm_xorand({a.data(), m, k, k}, {b.data(), k, n, n}, {c.data(), m, n, n},
                s);
    retained = kernel_scratch_retained_bytes();
  }).join();
  EXPECT_EQ(retained, m * 512 * sizeof(std::uint64_t));
}

/// The multiply step takes K two 8-row groups at a time: K of 1-40 (an
/// odd or even group count, a partial last group), M up to 9 output
/// groups, N tails, `block_k` and threads (which the road ignores), and
/// a fragmented B whose fragment ends fall inside a pair's rows (the
/// 16-row panel) all match the scalar tier byte for byte.
TEST(VariantDifferential, GfniGroupPairsMatchScalar) {
  if (!variant_available(KernelVariant::Gfni))
    GTEST_SKIP() << "host lacks GFNI + AVX-512";
  ForceRestorer restore;
  set_forced_variant(std::nullopt);
  std::mt19937_64 rng(41);
  for (std::size_t k = 1; k <= 40; ++k)
    for (const std::size_t m : {1, 12, 32, 72})
      for (const std::size_t n : {5, 64, 1100}) {
        AlignedBuffer<std::uint64_t> a(m * k), b(k * n), c(m * n), ref(m * n);
        fill_mask(a.data(), m * k, rng);
        fill_words(b.data(), k * n, rng);
        const MatView<const std::uint64_t> av{a.data(), m, k, k};
        const MatView<const std::uint64_t> bv{b.data(), k, n, n};
        const AlignedBuffer<std::uint64_t> blocks = affine_blocks(av);
        const std::size_t kg = (k + 7) / 8;
        const MatView<const std::uint64_t> blk{blocks.data(), (m + 7) / 8, kg,
                                               kg};
        Schedule s;
        s.variant = KernelVariant::Scalar;
        gemm_xorand(av, bv, {ref.data(), m, n, n}, s);
        // Fragments of n + 3 words: their ends drift through the rows.
        std::vector<Fragment<const std::uint64_t>> frags;
        for (std::size_t pos = 0; pos < k * n; pos += n + 3)
          frags.push_back({b.data() + pos, std::min(n + 3, k * n - pos)});
        const ScatteredView<const std::uint64_t> bs(k, n, frags);
        const ScatteredView<std::uint64_t> cs(
            m, n, std::vector<Fragment<std::uint64_t>>{{c.data(), m * n}});
        s.variant = KernelVariant::Gfni;
        s.block_n = 512;
        for (const std::size_t block_k : {0, 8, 24})
          for (const int threads : {1, 3})
            for (const bool fragmented : {false, true}) {
              s.block_k = block_k;
              s.num_threads = threads;
              std::fill_n(c.data(), m * n, 0xA5A5A5A5A5A5A5A5ULL);
              if (fragmented)
                gemm_xorand_scattered(av, blk, bs, cs, s);
              else
                gemm_xorand(av, blk, bv, {c.data(), m, n, n}, s);
              for (std::size_t i = 0; i < m * n; ++i)
                ASSERT_EQ(c[i], ref[i])
                    << "word " << i << " (m=" << m << " n=" << n << " k=" << k
                    << " sched=" << s.to_string()
                    << " fragmented=" << fragmented << ")";
            }
      }
}

/// Two pages, the second inaccessible: an operand placed to end at the
/// boundary faults on any read or write past its last word.
class GuardedPage {
 public:
  GuardedPage() : page_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))) {
    void* p = mmap(nullptr, 2 * page_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("mmap failed");
    base_ = static_cast<std::uint8_t*>(p);
    if (mprotect(base_ + page_, page_, PROT_NONE) != 0)
      throw std::runtime_error("mprotect failed");
  }
  ~GuardedPage() { munmap(base_, 2 * page_); }
  GuardedPage(const GuardedPage&) = delete;
  GuardedPage& operator=(const GuardedPage&) = delete;

  /// `words` words that end exactly at the inaccessible page.
  std::uint64_t* tail(std::size_t words) const {
    return reinterpret_cast<std::uint64_t*>(base_ + page_) - words;
  }

 private:
  std::size_t page_;
  std::uint8_t* base_ = nullptr;
};

/// N tails shorter than a chunk are loaded and stored under a mask: with
/// B and C ending at an inaccessible page, the Gfni tier neither reads
/// nor writes past their last row.
TEST(VariantDifferential, GfniTailsStayInsideTheirRows) {
  if (!variant_available(KernelVariant::Gfni))
    GTEST_SKIP() << "host lacks GFNI + AVX-512";
  ForceRestorer restore;
  set_forced_variant(std::nullopt);
  const std::size_t m = 12, n = 3, k = 9;
  std::mt19937_64 rng(31);
  AlignedBuffer<std::uint64_t> a(m * k), ref(m * n);
  fill_mask(a.data(), m * k, rng);
  const GuardedPage b_page, c_page;
  std::uint64_t* b = b_page.tail(k * n);
  std::uint64_t* c = c_page.tail(m * n);
  fill_words(b, k * n, rng);
  const MatView<const std::uint64_t> av{a.data(), m, k, k};
  const MatView<const std::uint64_t> bv{b, k, n, n};
  Schedule s;
  s.variant = KernelVariant::Scalar;
  gemm_xorand(av, bv, {ref.data(), m, n, n}, s);
  s.variant = KernelVariant::Gfni;
  gemm_xorand(av, bv, {c, m, n, n}, s);
  for (std::size_t i = 0; i < m * n; ++i) ASSERT_EQ(c[i], ref[i]) << i;
}

/// An A with a word that is neither 0 nor ~0 has no block form: the Gfni
/// tier runs its AVX-512 fallback, byte-identical to the scalar tier,
/// and a block form of the wrong shape is rejected.
TEST(VariantDifferential, GfniFallsBackOnNonMaskA) {
  if (!variant_available(KernelVariant::Gfni))
    GTEST_SKIP() << "host lacks GFNI + AVX-512";
  ForceRestorer restore;
  set_forced_variant(std::nullopt);
  const std::size_t m = 16, n = 40, k = 24;
  std::mt19937_64 rng(23);
  AlignedBuffer<std::uint64_t> a(m * k), b(k * n), c(m * n), ref(m * n);
  fill_mask(a.data(), m * k, rng);
  a[5 * k + 9] = 0x00FF00FF00FF00FFULL;
  fill_words(b.data(), k * n, rng);
  const MatView<const std::uint64_t> av{a.data(), m, k, k};
  const MatView<const std::uint64_t> bv{b.data(), k, n, n};
  ASSERT_TRUE(affine_blocks(av).empty());
  Schedule s;
  s.tile_m = 4;
  s.tile_n = 16;
  s.variant = KernelVariant::Scalar;
  gemm_xorand(av, bv, {ref.data(), m, n, n}, s);
  s.variant = KernelVariant::Gfni;
  gemm_xorand(av, bv, {c.data(), m, n, n}, s);
  for (std::size_t i = 0; i < m * n; ++i) ASSERT_EQ(c[i], ref[i]) << i;
  std::fill_n(c.data(), m * n, 0);
  gemm_xorand(av, {}, bv, {c.data(), m, n, n}, s);
  for (std::size_t i = 0; i < m * n; ++i) ASSERT_EQ(c[i], ref[i]) << i;

  const AlignedBuffer<std::uint64_t> wrong(2 * 2);
  EXPECT_THROW(gemm_xorand(av, {wrong.data(), 2, 2, 2}, bv,
                           {c.data(), m, n, n}, s),
               std::invalid_argument);
}

/// A cancel that lands while Gfni GEMMs run stops one at an n-block
/// poll: the loop below only ends by observing it, and every n-block the
/// kernel finished is exact while the rest keep their sentinel.
TEST(VariantDifferential, GfniStopsAtAnNBlockOnCancel) {
  if (!variant_available(KernelVariant::Gfni))
    GTEST_SKIP() << "host lacks GFNI + AVX-512";
  ForceRestorer restore;
  set_forced_variant(std::nullopt);
  const std::size_t m = 32, n = 2048, k = 80, block_n = 64;
  constexpr std::uint64_t kSentinel = 0x5E5E5E5E5E5E5E5EULL;
  std::mt19937_64 rng(29);
  AlignedBuffer<std::uint64_t> a(m * k), b(k * n), c(m * n), ref(m * n);
  fill_mask(a.data(), m * k, rng);
  fill_words(b.data(), k * n, rng);
  const MatView<const std::uint64_t> av{a.data(), m, k, k};
  const MatView<const std::uint64_t> bv{b.data(), k, n, n};
  Schedule s;
  s.block_n = block_n;
  s.variant = KernelVariant::Scalar;
  gemm_xorand(av, bv, {ref.data(), m, n, n}, s);

  s.variant = KernelVariant::Gfni;
  CancelSource source;
  std::atomic<bool> started{false};
  bool cancelled = false;
  std::thread worker([&] {
    for (;;) {
      std::fill_n(c.data(), m * n, kSentinel);
      started.store(true);
      try {
        gemm_xorand(av, bv, {c.data(), m, n, n}, s, source.token());
      } catch (const Cancelled&) {
        cancelled = true;
        return;
      }
    }
  });
  while (!started.load()) std::this_thread::yield();
  source.request_cancel();
  worker.join();
  ASSERT_TRUE(cancelled);
  for (std::size_t nb = 0; nb < n; nb += block_n) {
    const bool written = c[nb] != kSentinel;
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = nb; j < nb + block_n; ++j)
        ASSERT_EQ(c[i * n + j], written ? ref[i * n + j] : kSentinel)
            << "row " << i << " word " << j;
  }
}

}  // namespace
}  // namespace tvmec::tensor
