// Scalar (portable) XorAnd microkernel variant. Always compiled, with no
// target flags beyond the project defaults, so this table is the one
// guaranteed-safe tier on any host — and the reference every SIMD
// variant is differentially tested against.
//
// This TU also hosts the variant-keyed table selector, since it is the
// one XorAnd TU that exists on every architecture.

#include "tensor/xorand_kernels.h"

namespace tvmec::tensor {

namespace {

#include "tensor/xorand_portable_micro.inc"

template <int TM, int TN>
void micro(const std::uint64_t* a, std::size_t lda, const std::uint64_t* b,
           std::size_t ldb, std::uint64_t* c, std::size_t ldc,
           std::size_t k) {
  micro_portable<TM, TN>(a, lda, b, ldb, c, ldc, k);
}

constexpr XorAndKernelTable kTable = TVMEC_XORAND_TABLE;

}  // namespace

const XorAndKernelTable* xorand_table_scalar() noexcept { return &kTable; }

const XorAndKernelTable* xorand_table(KernelVariant v) noexcept {
  switch (v) {
    case KernelVariant::Scalar:
      return xorand_table_scalar();
    case KernelVariant::Avx2:
      return xorand_table_avx2();
    case KernelVariant::Avx512:
    case KernelVariant::Gfni:
      return xorand_table_avx512();
    case KernelVariant::Neon:
      return xorand_table_neon();
    case KernelVariant::Auto:
      break;
  }
  return nullptr;
}

}  // namespace tvmec::tensor
