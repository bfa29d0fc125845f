// SSE4.2 CRC-32C tier: the `crc32` instruction, eight bytes per step.
// Compiled with per-file -msse4.2 (see src/storage/CMakeLists.txt);
// selected at runtime only when CPUID reports SSE4.2, so the rest of the
// binary stays portable.

#include "storage/crc32c_tiers.h"

#if defined(__SSE4_2__) && defined(__x86_64__)

#include <nmmintrin.h>

#include <cstring>

namespace tvmec::storage::detail {

namespace {

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint32_t update_one_stream(std::uint32_t state, const std::uint8_t* p,
                                std::size_t len) {
  std::uint64_t crc = state;
  for (; len >= 8; p += 8, len -= 8) crc = _mm_crc32_u64(crc, load64(p));
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; len > 0; ++p, --len) crc32 = _mm_crc32_u8(crc32, *p);
  return crc32;
}

/// Three adjacent blocks run as independent streams (the second and
/// third from state 0) so three crc32 instructions are in flight at
/// once. Linearity merges them: the state after block 0 then block 1 is
/// shift(state0) ^ state1, with shift = absorbing one block of zeros.
std::uint32_t update_sse42(std::uint32_t state, const std::uint8_t* p,
                           std::size_t len) {
  constexpr std::size_t kB = kCrc32cStreamBlock;
  for (; len >= 3 * kB; p += 3 * kB, len -= 3 * kB) {
    std::uint64_t c0 = state;
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < kB; i += 8) {
      c0 = _mm_crc32_u64(c0, load64(p + i));
      c1 = _mm_crc32_u64(c1, load64(p + kB + i));
      c2 = _mm_crc32_u64(c2, load64(p + 2 * kB + i));
    }
    state = crc32c_shift_block(static_cast<std::uint32_t>(c0)) ^
            static_cast<std::uint32_t>(c1);
    state = crc32c_shift_block(state) ^ static_cast<std::uint32_t>(c2);
  }
  return update_one_stream(state, p, len);
}

}  // namespace

Crc32cUpdateFn crc32c_update_sse42() noexcept { return &update_sse42; }

}  // namespace tvmec::storage::detail

#else

namespace tvmec::storage::detail {

Crc32cUpdateFn crc32c_update_sse42() noexcept { return nullptr; }

}  // namespace tvmec::storage::detail

#endif
