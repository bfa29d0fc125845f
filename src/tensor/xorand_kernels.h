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
const XorAndKernelTable* xorand_table(KernelVariant v) noexcept;

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
