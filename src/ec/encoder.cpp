#include "ec/encoder.h"

#include <cstring>
#include <stdexcept>

#include "tensor/buffer.h"
#include "tensor/kernel.h"

namespace tvmec::ec {

namespace {

bool word_aligned(const void* p) noexcept {
  return reinterpret_cast<std::uintptr_t>(p) % 8 == 0;
}

}  // namespace

void MatrixCoder::validate_apply_args(std::span<const std::uint8_t> in,
                                      std::span<std::uint8_t> out,
                                      std::size_t unit_size) const {
  const unsigned w = bit_sliced_w();
  if (unit_size == 0)
    throw std::invalid_argument(name() + ": unit size must be positive");
  if (w > 0 && unit_size % w != 0)
    throw std::invalid_argument(name() +
                                ": unit size must be a multiple of w=" +
                                std::to_string(w) + " (got " +
                                std::to_string(unit_size) + ")");
  if (in.size() != in_units() * unit_size)
    throw std::invalid_argument(name() + ": bad input size");
  if (out.size() != out_units() * unit_size)
    throw std::invalid_argument(name() + ": bad output size");
}

void MatrixCoder::apply(std::span<const std::uint8_t> in,
                        std::span<std::uint8_t> out,
                        std::size_t unit_size) const {
  const unsigned w = bit_sliced_w();
  validate_apply_args(in, out, unit_size);
  if (out.empty()) return;  // r == 0: nothing to compute

  if (w == 0) {
    do_apply(in, out, unit_size);
    return;
  }

  const std::size_t pb = unit_size / w;  // packet bytes, >= 1
  if (pb % 8 == 0 && word_aligned(in.data()) && word_aligned(out.data())) {
    do_apply(in, out, unit_size);
    return;
  }

  // Degenerate-buffer staging: pad every packet to a whole number of
  // 64-bit words and copy through 64-byte-aligned scratch. In the
  // bit-sliced embedding every bit position of a packet is an independent
  // GF(2^w) element, so zero-padding the packet tail only appends
  // elements whose value is 0 — the bytes in the real region are
  // unchanged. This is what lets unaligned user spans and unit sizes
  // down to w bytes (1-byte packets) run through the word kernels.
  const std::size_t pb_pad = (pb + 7) / 8 * 8;
  const std::size_t unit_pad = pb_pad * w;
  tensor::AlignedBuffer<std::uint8_t> in_stage(in_units() * unit_pad);
  tensor::AlignedBuffer<std::uint8_t> out_stage(out_units() * unit_pad);
  for (std::size_t u = 0; u < in_units(); ++u)
    for (unsigned p = 0; p < w; ++p) {
      std::memcpy(in_stage.data() + u * unit_pad + p * pb_pad,
                  in.data() + u * unit_size + p * pb, pb);
      tensor::note_staging_copy(pb);
    }
  do_apply(std::span<const std::uint8_t>(in_stage.data(), in_stage.size()),
           std::span<std::uint8_t>(out_stage.data(), out_stage.size()),
           unit_pad);
  for (std::size_t u = 0; u < out_units(); ++u)
    for (unsigned p = 0; p < w; ++p) {
      std::memcpy(out.data() + u * unit_size + p * pb,
                  out_stage.data() + u * unit_pad + p * pb_pad, pb);
      tensor::note_staging_copy(pb);
    }
}

}  // namespace tvmec::ec
