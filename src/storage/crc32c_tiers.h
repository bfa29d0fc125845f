#pragma once

#include <cstddef>
#include <cstdint>

#include "storage/crc32c.h"

/// The seam between crc32c.cpp (table tier and dispatch) and the
/// per-ISA tier translation units. As with tensor/xorand_kernels.h, a
/// tier TU is compiled with its own target flags and keeps everything
/// in an anonymous namespace; it exports only a getter returning a
/// function pointer, nullptr when the tier was not compiled in.
namespace tvmec::storage::detail {

/// Raw CRC-32C register update: no pre- or post-inversion, so the map
/// from `state` to the result is linear over GF(2) for fixed bytes.
using Crc32cUpdateFn = std::uint32_t (*)(std::uint32_t state,
                                         const std::uint8_t* p,
                                         std::size_t len);

/// The raw state after `state` absorbs kCrc32cStreamBlock zero bytes:
/// the shift that merges a stream into the one after it (four table
/// lookups, built from the slicing table).
std::uint32_t crc32c_shift_block(std::uint32_t state) noexcept;

Crc32cUpdateFn crc32c_update_sse42() noexcept;

}  // namespace tvmec::storage::detail
