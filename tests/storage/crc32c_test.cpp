#include "storage/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "../test_util.h"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace tvmec::storage {
namespace {

/// Every tier this binary runs on this CPU; Table is always first.
std::vector<Crc32cTier> available_tiers() {
  std::vector<Crc32cTier> tiers;
  for (const Crc32cTier t : {Crc32cTier::Table, Crc32cTier::Sse42})
    if (crc32c_tier_available(t)) tiers.push_back(t);
  return tiers;
}

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

std::uint32_t crc_of(std::string_view s) { return crc32c(bytes_of(s)); }

/// Published CRC-32C test vectors (RFC 3720 / kernel crypto testmgr).
TEST(Crc32c, KnownVectors) {
  EXPECT_EQ(crc32c({}), 0x00000000u);
  EXPECT_EQ(crc_of("a"), 0xC1D04330u);
  EXPECT_EQ(crc_of("abc"), 0x364B3FB7u);
  EXPECT_EQ(crc_of("message digest"), 0x02BD79D0u);
  EXPECT_EQ(crc_of("123456789"), 0xE3069283u);
  EXPECT_EQ(crc_of("abcdefghijklmnopqrstuvwxyz"), 0x9EE6EF25u);
  // The same vector on every tier, not only the one crc32c dispatches to.
  for (const Crc32cTier t : available_tiers())
    EXPECT_EQ(crc32c_extend(t, 0, bytes_of("123456789")), 0xE3069283u)
        << to_string(t);
}

TEST(Crc32c, AllZeros32Bytes) {
  // The RFC 3720 B.4 example: 32 bytes of zeros -> 0x8A9136AA.
  std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const auto data = testutil::random_vector(1000, 1);
  const std::uint32_t whole = crc32c(data);
  for (const std::size_t split : {0u, 1u, 7u, 8u, 500u, 999u, 1000u}) {
    std::uint32_t crc = 0;
    crc = crc32c_extend(crc, std::span<const std::uint8_t>(data).first(split));
    crc = crc32c_extend(crc,
                        std::span<const std::uint8_t>(data).subspan(split));
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  auto data = testutil::random_vector(256, 2);
  const std::uint32_t clean = crc32c(data);
  for (const std::size_t byte : {0u, 100u, 255u}) {
    for (const int bit : {0, 3, 7}) {
      data[byte] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_NE(crc32c(data), clean);
      data[byte] ^= static_cast<std::uint8_t>(1 << bit);
    }
  }
  EXPECT_EQ(crc32c(data), clean);
}

TEST(Crc32c, UnalignedBuffersMatchAligned) {
  const auto aligned = testutil::random_bytes(512, 3);
  std::vector<std::uint8_t> shifted(513);
  std::memcpy(shifted.data() + 1, aligned.data(), 512);
  EXPECT_EQ(crc32c(aligned.span()),
            crc32c(std::span<const std::uint8_t>(shifted).subspan(1)));
}

/// Checks the public crc32c and every available tier against the table
/// tier on `data`.
void expect_tiers_match_table(std::span<const std::uint8_t> data,
                              const std::string& what) {
  const std::uint32_t want = crc32c_extend(Crc32cTier::Table, 0, data);
  EXPECT_EQ(crc32c(data), want) << what;
  for (const Crc32cTier t : available_tiers())
    EXPECT_EQ(crc32c_extend(t, 0, data), want)
        << what << " on " << to_string(t);
}

/// Lengths 0-64 cover every word-tail shape; 3B and 6B (B the stream
/// block) are where the one- and two-pass three-stream loops start.
TEST(Crc32c, EveryTierMatchesTableAcrossLengthsAndOffsets) {
  constexpr std::size_t kB = kCrc32cStreamBlock;
  constexpr std::size_t kUnit = 64 * 1024;
  const auto data = testutil::random_vector(kUnit + 8, 4);
  const std::span<const std::uint8_t> all(data);
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 64; ++len) lengths.push_back(len);
  for (const std::size_t edge : {3 * kB, 6 * kB})
    for (const std::size_t len : {edge - 1, edge, edge + 1})
      lengths.push_back(len);
  lengths.push_back(kUnit);
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (const std::size_t len : lengths)
      expect_tiers_match_table(all.subspan(offset, len),
                               "offset " + std::to_string(offset) + " len " +
                                   std::to_string(len));
}

TEST(Crc32c, EveryTierExtendsAcrossEveryStreamBlockBoundary) {
  constexpr std::size_t kUnit = 64 * 1024;
  const auto data = testutil::random_vector(kUnit, 6);
  const std::span<const std::uint8_t> all(data);
  const std::uint32_t whole = crc32c_extend(Crc32cTier::Table, 0, all);
  for (const Crc32cTier t : available_tiers()) {
    for (std::size_t split = 0; split <= kUnit; split += kCrc32cStreamBlock) {
      const std::uint32_t head = crc32c_extend(t, 0, all.first(split));
      EXPECT_EQ(crc32c_extend(t, head, all.subspan(split)), whole)
          << to_string(t) << " split at " << split;
    }
  }
}

/// The CRC twin of the kernel variants' "the SIMD TU fell out of the
/// binary" gate: where CPUID reports SSE4.2, crc32c must run on it.
TEST(Crc32c, PublicCrcRunsTheHardwareTierWhenCpuHasSse42) {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  const bool sse42 =
      __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 && ((ecx >> 20) & 1u) != 0;
#else
  const bool sse42 = false;
#endif
  EXPECT_EQ(crc32c_tier_available(Crc32cTier::Sse42), sse42);
  EXPECT_EQ(crc32c_tier(), sse42 ? Crc32cTier::Sse42 : Crc32cTier::Table)
      << "crc32c runs " << to_string(crc32c_tier());
  if (!sse42) {
    EXPECT_THROW(crc32c_extend(Crc32cTier::Sse42, 0, {}),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace tvmec::storage
