#pragma once

#include <cstdint>
#include <type_traits>

/// Semirings: the one-line difference between GEMM and bitmatrix erasure
/// coding (paper Listings 1 vs 2). A semiring supplies the reduction
/// ("add") and combination ("mul") operators plus the additive identity;
/// every kernel in this library is generic over it.
namespace tvmec::tensor {

/// Ordinary arithmetic: GEMM. Signed integers wrap modulo 2^bits, as
/// the uint64 tensor-expression interpreter does: the operation runs in
/// 64-bit unsigned arithmetic, where overflow is defined.
template <typename T>
struct SumProd {
  using value_type = T;
  static constexpr T zero() noexcept { return T{}; }
  static constexpr T add(T a, T b) noexcept {
    if constexpr (std::is_signed_v<T> && std::is_integral_v<T>)
      return static_cast<T>(static_cast<std::uint64_t>(a) +
                            static_cast<std::uint64_t>(b));
    else
      return a + b;
  }
  static constexpr T mul(T a, T b) noexcept {
    if constexpr (std::is_signed_v<T> && std::is_integral_v<T>)
      return static_cast<T>(static_cast<std::uint64_t>(a) *
                            static_cast<std::uint64_t>(b));
    else
      return a * b;
  }
};

/// GF(2) arithmetic on 64-bit lanes: bitmatrix erasure coding.
/// "A" operands hold broadcast masks (0 or ~0), so `mul` (bitwise AND)
/// selects or zeroes an entire 64-bit slice of data, exactly as the
/// paper's Listing 2 formulates encoding.
struct XorAnd64 {
  using value_type = std::uint64_t;
  static constexpr std::uint64_t zero() noexcept { return 0; }
  static constexpr std::uint64_t add(std::uint64_t a, std::uint64_t b) noexcept {
    return a ^ b;
  }
  static constexpr std::uint64_t mul(std::uint64_t a, std::uint64_t b) noexcept {
    return a & b;
  }
};

}  // namespace tvmec::tensor
