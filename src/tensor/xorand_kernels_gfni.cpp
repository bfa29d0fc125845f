// GFNI tier of the XorAnd GEMM: the 8x8 bitmatrix block tensorized onto
// gf2p8affineqb. Any 8 consecutive K rows of a bit-sliced B form byte
// elements (bit i of an element is row i of the group), so one
// gf2p8affineqb applies a whole 8x8 block of A to 64 elements where the
// XorAnd kernels spend 64 masked XORs. The bit-sliced -> byte transpose
// (a byte interleave, then one affine per 64 bytes) runs in registers,
// two B groups at a time, right before the affines that use them; its
// inverse runs in the C store. Compiled with per-file
// -mavx512f/-mavx512bw/-mavx512vl/-mgfni; selected at runtime only when
// CPUID (plus XGETBV zmm-state checks) reports all four.

#include "tensor/xorand_kernels.h"

#if defined(__GFNI__) && defined(__AVX512BW__) && \
    (defined(__x86_64__) || defined(__i386__))

// GCC 12's avx512fintrin.h self-initializes the undefined source operand
// of the unpack intrinsics, which -Wuninitialized reports at every use.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

namespace tvmec::tensor {

namespace {

/// gf2p8affineqb data operands that turn the instruction into an 8x8 bit
/// transpose of its matrix operand: result byte j gathers bit (7 - j)
/// (B's transpose) or bit j (unpack) of the matrix qword's eight bytes,
/// the row of byte 7 - i landing in bit i.
constexpr long long kPackX = 0x0102040810204080LL;
constexpr long long kUnpackX = static_cast<long long>(0x8040201008040201ULL);

/// Words [0, words) of an 8-word chunk, as a load/store mask.
__mmask8 chunk_mask(std::size_t words) {
  return words >= 8 ? __mmask8{0xFF}
                    : static_cast<__mmask8>((1u << words) - 1);
}

/// Loads rows [0, min(rows, 8)) (missing rows are zeros) of the 8-word
/// chunk at word w, row r at src[r] + w, and transposes them to byte
/// elements in registers. After the interleave, qword h of lane L
/// of zmm o holds byte p = 16L + 2o + h of rows 7..0; the affine
/// transposes it to the 8 elements of byte p, element bit i being row i.
[[gnu::always_inline]] inline void transpose_group(
    const std::uint64_t* const* src, std::size_t rows, std::size_t w,
    __mmask8 m, __m512i x, __m512i out[8]) {
  __m512i in[8];
#pragma GCC unroll 8
  for (int t = 0; t < 8; ++t) {
    const std::size_t r = 7 - static_cast<std::size_t>(t);
    in[t] = r < rows ? _mm512_maskz_loadu_epi64(m, src[r] + w)
                     : _mm512_setzero_si512();
  }
  __m512i s1[8], s2[8];
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    s1[2 * i] = _mm512_unpacklo_epi8(in[2 * i], in[2 * i + 1]);
    s1[2 * i + 1] = _mm512_unpackhi_epi8(in[2 * i], in[2 * i + 1]);
  }
#pragma GCC unroll 2
  for (int h = 0; h < 2; ++h)
#pragma GCC unroll 2
    for (int i = 0; i < 2; ++i) {
      s2[4 * h + 2 * i] = _mm512_unpacklo_epi16(s1[4 * h + i],
                                                s1[4 * h + i + 2]);
      s2[4 * h + 2 * i + 1] = _mm512_unpackhi_epi16(s1[4 * h + i],
                                                    s1[4 * h + i + 2]);
    }
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    out[2 * i] = _mm512_gf2p8affine_epi64_epi8(
        x, _mm512_unpacklo_epi32(s2[i], s2[i + 4]), 0);
    out[2 * i + 1] = _mm512_gf2p8affine_epi64_epi8(
        x, _mm512_unpackhi_epi32(s2[i], s2[i + 4]), 0);
  }
}

/// One call of `multiply` with the group count and the first-write
/// choice fixed: per 8-word chunk, transposes B's one or two groups, then
/// for every output group XORs their products into the C panel's chunk
/// (0x96 = c ^ p0 ^ p1 in one vpternlogq), or writes them when
/// !kAccumulate.
template <bool kTwo, bool kAccumulate>
void multiply_groups(const std::uint64_t* const* src, std::size_t rows,
                     std::size_t words, const std::uint64_t* a,
                     std::size_t lda, std::size_t mg, std::uint64_t* c,
                     std::size_t group_words) {
  const __m512i x = _mm512_set1_epi64(kPackX);
  for (std::size_t w = 0; w < words; w += 8) {
    const __mmask8 m = chunk_mask(words - w);
    __m512i b0[8], b1[8];
    transpose_group(src, rows, w, m, x, b0);
    if constexpr (kTwo) transpose_group(src + 8, rows - 8, w, m, x, b1);
    std::uint64_t* cz = c + 8 * w;  // this chunk's 64 words of group 0
    for (std::size_t i = 0; i < mg; ++i, cz += group_words) {
      const __m512i a0 = _mm512_set1_epi64(static_cast<long long>(a[i * lda]));
      const __m512i a1 = _mm512_set1_epi64(
          kTwo ? static_cast<long long>(a[i * lda + 1]) : 0);
#pragma GCC unroll 8
      for (int o = 0; o < 8; ++o) {
        __m512i p = _mm512_gf2p8affine_epi64_epi8(b0[o], a0, 0);
        if constexpr (kTwo) {
          const __m512i p1 = _mm512_gf2p8affine_epi64_epi8(b1[o], a1, 0);
          p = kAccumulate
                  ? _mm512_ternarylogic_epi64(_mm512_loadu_si512(cz + 8 * o),
                                              p, p1, 0x96)
                  : _mm512_xor_si512(p, p1);
        } else if constexpr (kAccumulate) {
          p = _mm512_xor_si512(_mm512_loadu_si512(cz + 8 * o), p);
        }
        _mm512_storeu_si512(cz + 8 * o, p);
      }
    }
  }
}

/// GfniKernels::multiply: a pair of B groups when rows > 8, else one.
void multiply(const std::uint64_t* const* src, std::size_t rows,
              std::size_t words, const std::uint64_t* a, std::size_t lda,
              std::size_t mg, std::uint64_t* c, std::size_t group_words,
              bool accumulate) {
  if (rows > 8)
    (accumulate ? &multiply_groups<true, true>
                : &multiply_groups<true, false>)(src, rows, words, a, lda, mg,
                                                 c, group_words);
  else
    (accumulate ? &multiply_groups<false, true>
                : &multiply_groups<false, false>)(src, rows, words, a, lda,
                                                  mg, c, group_words);
}

/// Inverse of transpose_group: reads the byte elements of `words` words
/// (per 8-word chunk, 8 zmm at src) and stores rows [0, rows) (rows <= 8),
/// row r at dst[r]. The affine turns each qword back into byte p
/// of rows 0..7; a byte shuffle and three unpack stages (an 8x8
/// transpose of 16-bit pairs per lane) put each row's bytes in order.
void unpack(const std::uint64_t* src, std::size_t rows, std::size_t words,
            std::uint64_t* const* dst) {
  const __m512i x = _mm512_set1_epi64(kUnpackX);
  // Per lane: byte 8h + t (byte p = 2o + h of row t) -> byte 2t + h.
  const __m512i pairs = _mm512_broadcast_i32x4(_mm_setr_epi8(
      0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15));
  for (std::size_t w = 0; w < words; w += 8, src += 64) {
    __m512i v[8], a[8], b[8];
#pragma GCC unroll 8
    for (int o = 0; o < 8; ++o)
      v[o] = _mm512_shuffle_epi8(
          _mm512_gf2p8affine_epi64_epi8(x, _mm512_loadu_si512(src + 8 * o),
                                        0),
          pairs);
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      a[2 * i] = _mm512_unpacklo_epi16(v[2 * i], v[2 * i + 1]);
      a[2 * i + 1] = _mm512_unpackhi_epi16(v[2 * i], v[2 * i + 1]);
    }
#pragma GCC unroll 2
    for (int h = 0; h < 2; ++h)
#pragma GCC unroll 2
      for (int i = 0; i < 2; ++i) {
        b[4 * h + 2 * i] = _mm512_unpacklo_epi32(a[4 * h + i],
                                                 a[4 * h + i + 2]);
        b[4 * h + 2 * i + 1] = _mm512_unpackhi_epi32(a[4 * h + i],
                                                     a[4 * h + i + 2]);
      }
    const __mmask8 m = chunk_mask(words - w);
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      const std::size_t r = 2 * static_cast<std::size_t>(i);
      if (r < rows)
        _mm512_mask_storeu_epi64(dst[r] + w, m,
                                 _mm512_unpacklo_epi64(b[i], b[i + 4]));
      if (r + 1 < rows)
        _mm512_mask_storeu_epi64(dst[r + 1] + w, m,
                                 _mm512_unpackhi_epi64(b[i], b[i + 4]));
    }
  }
}

/// A's block form (affine_blocks), 8 columns of a row at a time: one
/// vptestmq turns 8 mask words into the byte of their bits, and two
/// compares check that each word is 0 or ~0. `out` holds
/// ceil(rows / 8) x ceil(cols / 8) zeroed qwords.
bool blocks(const std::uint64_t* a, std::size_t lda, std::size_t rows,
            std::size_t cols, std::uint64_t* out) {
  const std::size_t kg = (cols + 7) / 8;
  const __m512i ones = _mm512_set1_epi64(-1);
  __mmask8 masks = 0xFF;  // lanes that held only 0 or ~0 so far
  for (std::size_t i = 0; i < rows; ++i) {
    const unsigned byte = 8 * static_cast<unsigned>(7 - i % 8);
    std::uint64_t* block_row = out + i / 8 * kg;
    for (std::size_t j = 0; j < cols; j += 8) {
      const __m512i v =
          _mm512_maskz_loadu_epi64(chunk_mask(cols - j), a + i * lda + j);
      masks &= _mm512_cmpeq_epi64_mask(v, _mm512_setzero_si512()) |
               _mm512_cmpeq_epi64_mask(v, ones);
      block_row[j / 8] |= std::uint64_t{_mm512_test_epi64_mask(v, v)}
                          << byte;
    }
  }
  return masks == 0xFF;
}

constexpr GfniKernels kKernels = {&multiply, &unpack, &blocks};

}  // namespace

const GfniKernels* gfni_kernels() noexcept { return &kKernels; }

}  // namespace tvmec::tensor

#else  // compiler lacked GFNI/AVX-512 target support, or non-x86

namespace tvmec::tensor {
const GfniKernels* gfni_kernels() noexcept { return nullptr; }
}  // namespace tvmec::tensor

#endif
