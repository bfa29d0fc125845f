#include "storage/crc32c.h"

#include <array>
#include <stdexcept>
#include <string>

#include "storage/crc32c_tiers.h"

namespace tvmec::storage {

namespace {

constexpr std::uint32_t kPolyReflected = 0x82F63B78u;

struct Tables {
  // slice[j][b]: CRC contribution of byte b seen j positions ago.
  std::array<std::array<std::uint32_t, 256>, 8> slice{};
  // shift[j][b]: raw state after kCrc32cStreamBlock zero bytes, starting
  // from state b << 8j. The shift is linear, so any state's image is the
  // XOR of its four bytes' images.
  std::array<std::array<std::uint32_t, 256>, 4> shift{};

  Tables() {
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t crc = b;
      for (int bit = 0; bit < 8; ++bit)
        crc = (crc >> 1) ^ ((crc & 1u) ? kPolyReflected : 0u);
      slice[0][b] = crc;
    }
    for (std::size_t j = 1; j < 8; ++j)
      for (std::uint32_t b = 0; b < 256; ++b)
        slice[j][b] =
            (slice[j - 1][b] >> 8) ^ slice[0][slice[j - 1][b] & 0xFF];

    std::array<std::uint32_t, 32> bit_image{};
    for (std::size_t i = 0; i < 32; ++i) {
      std::uint32_t state = 1u << i;
      for (std::size_t z = 0; z < kCrc32cStreamBlock; ++z)
        state = (state >> 8) ^ slice[0][state & 0xFF];
      bit_image[i] = state;
    }
    for (std::size_t j = 0; j < 4; ++j)
      for (std::uint32_t b = 0; b < 256; ++b)
        for (std::size_t i = 0; i < 8; ++i)
          if ((b >> i) & 1u) shift[j][b] ^= bit_image[8 * j + i];
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

std::uint32_t update_table(std::uint32_t crc, const std::uint8_t* p,
                           std::size_t len) {
  const Tables& t = tables();
  // Slicing-by-8 main loop.
  while (len >= 8) {
    const std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(p[0]) |
                                    (static_cast<std::uint32_t>(p[1]) << 8) |
                                    (static_cast<std::uint32_t>(p[2]) << 16) |
                                    (static_cast<std::uint32_t>(p[3]) << 24));
    crc = t.slice[7][lo & 0xFF] ^ t.slice[6][(lo >> 8) & 0xFF] ^
          t.slice[5][(lo >> 16) & 0xFF] ^ t.slice[4][lo >> 24] ^
          t.slice[3][p[4]] ^ t.slice[2][p[5]] ^ t.slice[1][p[6]] ^
          t.slice[0][p[7]];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) crc = (crc >> 8) ^ t.slice[0][(crc ^ *p++) & 0xFF];
  return crc;
}

bool cpu_has_sse42() noexcept {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

detail::Crc32cUpdateFn update_fn(Crc32cTier tier) noexcept {
  switch (tier) {
    case Crc32cTier::Table:
      return &update_table;
    case Crc32cTier::Sse42:
      return cpu_has_sse42() ? detail::crc32c_update_sse42() : nullptr;
  }
  return nullptr;
}

struct Dispatch {
  Crc32cTier tier;
  detail::Crc32cUpdateFn fn;
};

const Dispatch& dispatch() {
  static const Dispatch d = [] {
    if (const auto fn = update_fn(Crc32cTier::Sse42))
      return Dispatch{Crc32cTier::Sse42, fn};
    return Dispatch{Crc32cTier::Table, &update_table};
  }();
  return d;
}

}  // namespace

const char* to_string(Crc32cTier tier) noexcept {
  switch (tier) {
    case Crc32cTier::Table:
      return "table";
    case Crc32cTier::Sse42:
      return "sse4.2";
  }
  return "?";
}

std::uint32_t detail::crc32c_shift_block(std::uint32_t state) noexcept {
  const Tables& t = tables();
  return t.shift[0][state & 0xFF] ^ t.shift[1][(state >> 8) & 0xFF] ^
         t.shift[2][(state >> 16) & 0xFF] ^ t.shift[3][state >> 24];
}

std::uint32_t crc32c_extend(std::uint32_t crc,
                            std::span<const std::uint8_t> data) noexcept {
  return ~dispatch().fn(~crc, data.data(), data.size());
}

std::uint32_t crc32c(std::span<const std::uint8_t> data) noexcept {
  return crc32c_extend(0, data);
}

Crc32cTier crc32c_tier() noexcept { return dispatch().tier; }

bool crc32c_tier_available(Crc32cTier tier) noexcept {
  return update_fn(tier) != nullptr;
}

std::uint32_t crc32c_extend(Crc32cTier tier, std::uint32_t crc,
                            std::span<const std::uint8_t> data) {
  const detail::Crc32cUpdateFn fn = update_fn(tier);
  if (fn == nullptr)
    throw std::invalid_argument(
        std::string("crc32c_extend: tier not available: ") + to_string(tier));
  return ~fn(~crc, data.data(), data.size());
}

}  // namespace tvmec::storage
