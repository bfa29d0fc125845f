#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) —
/// the checksum storage systems pair with erasure coding: parities
/// protect against *loss*, checksums against *silent corruption*, and a
/// scrubber uses the checksum to decide which unit to rebuild.
///
/// Two tiers compute the same function; crc32c() runs the fastest one
/// the host offers, chosen once at first use from CPUID:
///  - Table: portable slicing-by-8 (tables built once at first use);
///    the reference every other tier is tested against.
///  - Sse42: the x86 SSE4.2 `crc32` instruction over three interleaved
///    streams of kCrc32cStreamBlock bytes, merged by a CRC shift-combine
///    (crc32 has a three-cycle latency, so one stream idles the unit two
///    cycles in three). Compiled with per-file -msse4.2; a stub
///    elsewhere, so the tier is then never available.
/// Both match the iSCSI/ext4/RocksDB CRC-32C test vectors.
namespace tvmec::storage {

enum class Crc32cTier { Table, Sse42 };

const char* to_string(Crc32cTier tier) noexcept;

/// Bytes per stream of the interleaved hardware tier: inputs of at
/// least 3 * kCrc32cStreamBlock bytes run the three-stream loop, the
/// remainder one stream.
inline constexpr std::size_t kCrc32cStreamBlock = 2048;

/// CRC of a whole buffer.
std::uint32_t crc32c(std::span<const std::uint8_t> data) noexcept;

/// Incremental form: feed `data` into a running CRC (start with 0).
std::uint32_t crc32c_extend(std::uint32_t crc,
                            std::span<const std::uint8_t> data) noexcept;

/// The tier crc32c() and crc32c_extend() run in this process.
Crc32cTier crc32c_tier() noexcept;

/// True when `tier` is compiled into this binary and the CPU has its
/// instructions (Table always is).
bool crc32c_tier_available(Crc32cTier tier) noexcept;

/// crc32c_extend on one named tier, so tests can check each against
/// Table. Throws std::invalid_argument when the tier is not available.
std::uint32_t crc32c_extend(Crc32cTier tier, std::uint32_t crc,
                            std::span<const std::uint8_t> data);

}  // namespace tvmec::storage
