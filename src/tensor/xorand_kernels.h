#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/variant.h"

/// The per-variant XorAnd microkernel tables.
///
/// Each SIMD variant lives in its own translation unit
/// (xorand_kernels_<variant>.cpp) compiled with per-file target flags
/// (-mavx2, -mavx512f ...), and everything inside those TUs sits in an
/// anonymous namespace: no symbol compiled for a higher ISA can be picked
/// by the linker over a portable one (the ODR/comdat-folding trap that
/// makes template-based multi-ISA builds SIGILL). The only things a
/// variant TU exports are the table getters declared here, which return
/// a pointer to a constexpr table of function pointers — taking the
/// table's address executes no target-specific instruction.
///
/// A getter returns nullptr when the variant was not compiled in (wrong
/// architecture, or a compiler without the target flags); runtime
/// availability (tensor/variant.h) is "hardware supports it AND the
/// table is non-null".
namespace tvmec::tensor {

/// Signature shared by every XorAnd microkernel: accumulate a
/// tile_m x tile_n tile of C over a K extent (see micro_gemm).
using XorAndMicroFn = void (*)(const std::uint64_t* a, std::size_t lda,
                               const std::uint64_t* b, std::size_t ldb,
                               std::uint64_t* c, std::size_t ldc,
                               std::size_t k);

/// One kernel per (tile_m, tile_n) point of the schedule menu, indexed
/// [log2 tile_m][log2 tile_n] for tile_m in {1,2,4,8} and tile_n in
/// {1,2,4,8,16,32,64} (the same index map as kernel.cpp's dispatch).
struct XorAndKernelTable {
  XorAndMicroFn fn[4][7];
};

const XorAndKernelTable* xorand_table_scalar() noexcept;  // never null
const XorAndKernelTable* xorand_table_avx2() noexcept;
const XorAndKernelTable* xorand_table_avx512() noexcept;
const XorAndKernelTable* xorand_table_neon() noexcept;

/// Table for a *concrete* variant; nullptr when that variant is not
/// compiled into this binary (Auto also returns nullptr — resolve first).
/// Gfni maps to the AVX-512 table: its fallback for an A that is not all
/// broadcast masks.
const XorAndKernelTable* xorand_table(KernelVariant v) noexcept;

/// The Gfni tier's steps (xorand_kernels_gfni.cpp), run by the one
/// blocked loop in kernel.cpp. B's rows are read where they live and
/// transposed in registers; only C has a byte-element panel: per 8-word
/// chunk of N, the 8 rows of an M group occupy 64 words (8 zmm), and
/// group regions are `group_words` (a multiple of 64) apart.
struct GfniKernels {
  /// C group i ^= a[i * lda] (x) B group 0 ^ a[i * lda + 1] (x) B group 1
  /// for i < mg, where B's rows [0, rows) (rows <= 16; missing rows are
  /// zeros) of `words` words each sit at src[r], group 0 being rows
  /// 0-7 and group 1 rows 8-15. Per 8-word chunk both groups are
  /// transposed to byte elements in registers, and each output group
  /// takes one gf2p8affineqb per 8x8 block per zmm and one vpternlogq.
  /// rows <= 8 runs group 0 alone and never reads a[i * lda + 1].
  /// `accumulate` false overwrites C instead.
  void (*multiply)(const std::uint64_t* const* src, std::size_t rows,
                   std::size_t words, const std::uint64_t* a,
                   std::size_t lda, std::size_t mg, std::uint64_t* c,
                   std::size_t group_words, bool accumulate);
  /// Stores rows [0, rows) (rows <= 8) of `words` words, row r at
  /// dst[r], from one C group of the panel at src.
  void (*unpack)(const std::uint64_t* src, std::size_t rows,
                 std::size_t words, std::uint64_t* const* dst);
  /// Writes A's block form (tensor::affine_blocks) for the rows x cols
  /// masks at a (row stride lda) into `out`, ceil(rows / 8) x
  /// ceil(cols / 8) zeroed qwords; false when a word is neither 0 nor ~0.
  bool (*blocks)(const std::uint64_t* a, std::size_t lda, std::size_t rows,
                 std::size_t cols, std::uint64_t* out);
};

/// nullptr when the GFNI TU was not compiled in.
const GfniKernels* gfni_kernels() noexcept;

/// Builds the 4x7 table from a TU-local `micro<TM, TN>` function
/// template. Used inside each variant TU's anonymous namespace.
#define TVMEC_XORAND_ROW(TM)                                          \
  {                                                                   \
    &micro<TM, 1>, &micro<TM, 2>, &micro<TM, 4>, &micro<TM, 8>,       \
        &micro<TM, 16>, &micro<TM, 32>, &micro<TM, 64>                \
  }
#define TVMEC_XORAND_TABLE                                            \
  {                                                                   \
    {                                                                 \
      TVMEC_XORAND_ROW(1), TVMEC_XORAND_ROW(2), TVMEC_XORAND_ROW(4),  \
          TVMEC_XORAND_ROW(8)                                         \
    }                                                                 \
  }

}  // namespace tvmec::tensor
