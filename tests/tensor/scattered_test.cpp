#include "tensor/scattered.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "tensor/buffer.h"
#include "tensor/kernel.h"
#include "tensor/schedule.h"

#include "../test_util.h"

namespace tvmec::tensor {
namespace {

AlignedBuffer<std::uint64_t> random_words(std::size_t count,
                                          std::uint64_t seed) {
  AlignedBuffer<std::uint64_t> buf(count);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < count; ++i) buf[i] = rng();
  return buf;
}

AlignedBuffer<std::uint64_t> random_masks(std::size_t count,
                                          std::uint64_t seed) {
  AlignedBuffer<std::uint64_t> buf(count);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < count; ++i)
    buf[i] = (rng() & 1) ? ~std::uint64_t{0} : 0;
  return buf;
}

/// Splits [data, data+words) into fragments at random word boundaries —
/// deliberately ignoring row and tile boundaries, which is the hardest
/// layout the view must handle.
template <typename T>
std::vector<Fragment<T>> random_split(T* data, std::size_t words,
                                      std::uint64_t seed,
                                      std::size_t max_frag) {
  std::mt19937_64 rng(seed);
  std::vector<Fragment<T>> frags;
  std::size_t pos = 0;
  while (pos < words) {
    const std::size_t len =
        std::min<std::size_t>(words - pos, 1 + rng() % max_frag);
    frags.push_back({data + pos, len});
    pos += len;
  }
  return frags;
}

struct Shape {
  std::size_t m, n, k;
};

/// Runs the scattered kernel over randomly fragmented copies of B/C and
/// checks byte identity against the contiguous gemm_xorand result.
void check_scattered_matches_contiguous(const Shape& shape, const Schedule& s,
                                        std::uint64_t frag_seed,
                                        std::size_t max_frag) {
  const auto a = random_masks(shape.m * shape.k, 11 + shape.m);
  const auto b = random_words(shape.k * shape.n, 22 + shape.n);
  AlignedBuffer<std::uint64_t> ref(shape.m * shape.n);
  AlignedBuffer<std::uint64_t> out(shape.m * shape.n);

  const MatView<const std::uint64_t> av{a.data(), shape.m, shape.k, shape.k};
  gemm_xorand(av, {b.data(), shape.k, shape.n, shape.n},
              {ref.data(), shape.m, shape.n, shape.n}, s);

  const ScatteredView<const std::uint64_t> bs(
      shape.k, shape.n,
      random_split<const std::uint64_t>(b.data(), shape.k * shape.n,
                                        frag_seed, max_frag));
  const ScatteredView<std::uint64_t> cs(
      shape.m, shape.n,
      random_split<std::uint64_t>(out.data(), shape.m * shape.n,
                                  frag_seed ^ 0x9E3779B9, max_frag));
  gemm_xorand_scattered(av, bs, cs, s);

  ASSERT_EQ(0, std::memcmp(ref.data(), out.data(),
                           shape.m * shape.n * sizeof(std::uint64_t)))
      << "m=" << shape.m << " n=" << shape.n << " k=" << shape.k
      << " frag_seed=" << frag_seed;
}

TEST(ScatteredView, ValidatesFragments) {
  AlignedBuffer<std::uint64_t> buf(8);
  using V = ScatteredView<std::uint64_t>;
  EXPECT_THROW(V(0, 4, {{buf.data(), 4}}), std::invalid_argument);
  EXPECT_THROW(V(2, 4, {{buf.data(), 4}}), std::invalid_argument);  // != 8
  EXPECT_THROW(V(2, 4, {{nullptr, 8}}), std::invalid_argument);
  EXPECT_THROW(V(2, 4, {{buf.data(), 0}, {buf.data(), 8}}),
               std::invalid_argument);
  EXPECT_NO_THROW(V(2, 4, {{buf.data(), 3}, {buf.data() + 3, 5}}));
}

TEST(ScatteredView, GatherScatterRoundTripAcrossBoundaries) {
  auto src = random_words(257, 7);
  auto split = random_split<std::uint64_t>(src.data(), 257, 99, 10);
  const ScatteredView<std::uint64_t> view(1, 257, std::move(split));
  std::vector<std::uint64_t> tmp(257);
  view.gather(0, 257, tmp.data());
  EXPECT_EQ(0, std::memcmp(tmp.data(), src.data(), 257 * 8));

  // Ranges that straddle several fragments.
  std::vector<std::uint64_t> mid(100);
  view.gather(57, 100, mid.data());
  EXPECT_EQ(0, std::memcmp(mid.data(), src.data() + 57, 100 * 8));
  for (auto& w : mid) w = ~w;
  view.scatter(57, 100, mid.data());
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(src[57 + i], mid[i]);
}

TEST(ScatteredGemm, SingleFragmentMatchesContiguousFastPath) {
  const Shape shape{8, 96, 24};
  const auto a = random_masks(shape.m * shape.k, 1);
  const auto b = random_words(shape.k * shape.n, 2);
  AlignedBuffer<std::uint64_t> ref(shape.m * shape.n);
  AlignedBuffer<std::uint64_t> out(shape.m * shape.n);
  const MatView<const std::uint64_t> av{a.data(), shape.m, shape.k, shape.k};
  const Schedule s = default_schedule();
  gemm_xorand(av, {b.data(), shape.k, shape.n, shape.n},
              {ref.data(), shape.m, shape.n, shape.n}, s);

  const ScatteredView<const std::uint64_t> bs(
      shape.k, shape.n, {{b.data(), shape.k * shape.n}});
  const ScatteredView<std::uint64_t> cs(shape.m, shape.n,
                                        {{out.data(), shape.m * shape.n}});
  EXPECT_TRUE(bs.contiguous());
  gemm_xorand_scattered(av, bs, cs, s);
  EXPECT_EQ(0, std::memcmp(ref.data(), out.data(),
                           shape.m * shape.n * sizeof(std::uint64_t)));
}

TEST(ScatteredGemm, WordMisalignedFragmentBoundaries) {
  // Fragment boundaries at arbitrary (odd, prime, non-tile) word offsets
  // that never line up with rows or register tiles.
  check_scattered_matches_contiguous({8, 131, 24}, default_schedule(),
                                     /*frag_seed=*/3, /*max_frag=*/7);
  check_scattered_matches_contiguous({5, 97, 17}, default_schedule(),
                                     /*frag_seed=*/5, /*max_frag=*/13);
}

TEST(ScatteredGemm, DegenerateShapes) {
  // k == 1 (single input row) and m == 1 (single output row — the r == 0
  // analogue at kernel level is "no call at all", so m == 1 is the
  // smallest computable C).
  check_scattered_matches_contiguous({1, 64, 1}, default_schedule(), 17, 5);
  check_scattered_matches_contiguous({1, 33, 7}, default_schedule(), 19, 3);
  check_scattered_matches_contiguous({9, 1, 4}, default_schedule(), 23, 2);
}

TEST(ScatteredGemm, FragmentsSmallerThanATile) {
  // Every fragment is 1..3 words while tiles are tile_n = 8..64 wide:
  // each panel gather crosses many fragments per register tile.
  Schedule s = default_schedule();
  s.tile_n = 16;
  check_scattered_matches_contiguous({8, 160, 24}, s, 29, 3);
  Schedule wide = default_schedule();
  wide.tile_n = 64;
  check_scattered_matches_contiguous({4, 256, 16}, wide, 31, 2);
}

TEST(ScatteredGemm, BlockedSchedulesAndRaggedEdges) {
  Schedule s = default_schedule();
  s.block_k = 8;
  s.block_n = 48;
  check_scattered_matches_contiguous({7, 133, 21}, s, 37, 11);
  s.block_n = 0;  // auto panel sizing
  s.block_k = 0;
  check_scattered_matches_contiguous({33, 130, 80}, s, 41, 19);
}

TEST(ScatteredGemm, ThreadedMatchesSerial) {
  for (const int threads : {2, 4}) {
    Schedule s = default_schedule();
    s.num_threads = threads;
    check_scattered_matches_contiguous({8, 1024, 40}, s, 43 + threads, 23);
    check_scattered_matches_contiguous({16, 517, 32}, s, 47 + threads, 9);
  }
}

TEST(ScatteredGemm, ShapeMismatchThrows) {
  const Shape shape{4, 16, 8};
  const auto a = random_masks(shape.m * shape.k, 3);
  auto b = random_words(shape.k * shape.n, 4);
  AlignedBuffer<std::uint64_t> out(shape.m * shape.n);
  const MatView<const std::uint64_t> av{a.data(), shape.m, shape.k, shape.k};
  const ScatteredView<const std::uint64_t> bs(
      shape.k, shape.n, {{b.data(), shape.k * shape.n}});
  const ScatteredView<std::uint64_t> c_wrong(
      shape.m, shape.n / 2, {{out.data(), shape.m * shape.n / 2}});
  EXPECT_THROW(gemm_xorand_scattered(av, bs, c_wrong, default_schedule()),
               std::invalid_argument);
}

TEST(ScatteredGemm, BatchedPathIsZeroCopy) {
  // A multi-item threaded batch, packed as one wide-N GEMM straight from
  // the items' buffers, must not stage.
  const std::size_t k = 24, m = 8, n_i = 512;
  const auto a = random_masks(m * k, 51);
  std::vector<AlignedBuffer<std::uint64_t>> bs, cs;
  std::vector<testutil::GemmItem> items;
  for (int i = 0; i < 4; ++i) {
    bs.push_back(random_words(k * n_i, 60 + i));
    cs.emplace_back(m * n_i);
  }
  for (int i = 0; i < 4; ++i)
    items.push_back({{bs[i].data(), k, n_i, n_i}, {cs[i].data(), m, n_i, n_i}});
  Schedule s = default_schedule();
  s.num_threads = 2;

  const std::uint64_t before = kernel_stage_stats().stage_copies;
  const auto [wide_b, wide_c] = testutil::wide_n(items);
  gemm_xorand_scattered({a.data(), m, k, k}, wide_b, wide_c, s);
  EXPECT_EQ(before, kernel_stage_stats().stage_copies);

  // Byte-identical to the per-item sequential oracle.
  for (int i = 0; i < 4; ++i) {
    AlignedBuffer<std::uint64_t> ref(m * n_i);
    gemm_xorand({a.data(), m, k, k}, {bs[i].data(), k, n_i, n_i},
                {ref.data(), m, n_i, n_i}, default_schedule());
    EXPECT_EQ(0, std::memcmp(ref.data(), cs[i].data(),
                             m * n_i * sizeof(std::uint64_t)))
        << "item " << i;
  }
}

TEST(ScatteredGemm, MixedInPlaceAndPackedOperands) {
  // One loop, each operand on its own road: a one-fragment B read in
  // place with a fragmented C packed, and the reverse.
  const Shape shape{8, 131, 24};
  const std::size_t b_words = shape.k * shape.n, c_words = shape.m * shape.n;
  const auto a = random_masks(shape.m * shape.k, 81);
  const auto b = random_words(b_words, 82);
  const MatView<const std::uint64_t> av{a.data(), shape.m, shape.k, shape.k};
  AlignedBuffer<std::uint64_t> ref(c_words);
  gemm_naive_xorand(av, {b.data(), shape.k, shape.n, shape.n},
                    {ref.data(), shape.m, shape.n, shape.n});

  for (const KernelVariant v : available_variants())
    for (const int threads : {1, 2})
      for (const bool pack_b : {false, true}) {
        Schedule s = default_schedule();
        s.tile_n = 16;
        s.num_threads = threads;
        s.variant = v;
        AlignedBuffer<std::uint64_t> out(c_words);
        using BFrags = std::vector<Fragment<const std::uint64_t>>;
        using CFrags = std::vector<Fragment<std::uint64_t>>;
        gemm_xorand_scattered(
            av,
            {shape.k, shape.n,
             pack_b ? random_split<const std::uint64_t>(b.data(), b_words,
                                                        83, 11)
                    : BFrags{{b.data(), b_words}}},
            {shape.m, shape.n,
             pack_b ? CFrags{{out.data(), c_words}}
                    : random_split<std::uint64_t>(out.data(), c_words, 84,
                                                  11)},
            s);
        ASSERT_EQ(0, std::memcmp(ref.data(), out.data(), c_words * 8))
            << to_string(v) << " t" << threads
            << (pack_b ? ": packed B, in-place C" : ": in-place B, packed C");
      }
}

TEST(ScatteredScratch, RetentionIsCappedAndHighWaterMarkMoves) {
  // A schedule demanding a panel beyond the retention cap must be served
  // (overflow allocation) without pinning that much scratch on the
  // thread afterwards.
  const std::size_t k = 16, m = 8, n = 40000;
  const auto a = random_masks(m * k, 71);
  const auto b = random_words(k * n, 72);
  AlignedBuffer<std::uint64_t> out(m * n);
  Schedule s = default_schedule();
  s.block_n = 32768;  // panel (k + m) * 32768 words = 6 MiB >> cap

  const ScatteredView<const std::uint64_t> bs(
      k, n, random_split<const std::uint64_t>(b.data(), k * n, 73, 1000));
  const ScatteredView<std::uint64_t> cs(
      m, n, random_split<std::uint64_t>(out.data(), m * n, 74, 1000));
  gemm_xorand_scattered({a.data(), m, k, k}, bs, cs, s);

  EXPECT_LE(kernel_scratch_retained_bytes(), kScratchRetainBytes);
  EXPECT_GE(kernel_stage_stats().scratch_high_water_bytes,
            (k + m) * std::size_t{32768} * 8);

  // And the result is still right.
  AlignedBuffer<std::uint64_t> ref(m * n);
  gemm_xorand({a.data(), m, k, k}, {b.data(), k, n, n},
              {ref.data(), m, n, n}, default_schedule());
  EXPECT_EQ(0, std::memcmp(ref.data(), out.data(), m * n * 8));
}

}  // namespace
}  // namespace tvmec::tensor
