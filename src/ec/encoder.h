#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <stdexcept>

/// The backend-neutral coding interface.
///
/// Every encoding library in this repo — the naive reference, the three
/// custom-library baselines, and the GEMM-backed TVM-EC core — implements
/// MatrixCoder: "apply an arbitrary coefficient matrix to input units".
/// Encoding applies the parity block; decoding applies a DecodePlan's
/// recovery matrix. This uniformity is itself a paper point (§2: decoding
/// mirrors encoding), and it lets benchmarks and integration tests drive
/// all backends identically.
namespace tvmec::ec {

/// Word-oriented fast paths reinterpret byte buffers as uint64 words; this
/// guards the required 8-byte alignment for the raw-pointer entry points
/// (AlignedBuffer satisfies it). The span-based MatrixCoder::apply no
/// longer requires alignment — it stages unaligned buffers through aligned
/// scratch instead. Throws std::invalid_argument when violated.
inline void require_word_aligned(const void* p, const char* what) {
  if (reinterpret_cast<std::uintptr_t>(p) % 8 != 0)
    throw std::invalid_argument(std::string(what) +
                                ": buffer must be 8-byte aligned");
}

/// One request of a batched apply (core::GemmCoder::apply_batch): its own
/// operand pair and unit size (unit sizes may differ across a batch; the
/// coefficient matrix — and therefore in_units/out_units — is the coder's
/// and shared).
struct CoderBatchItem {
  std::span<const std::uint8_t> in;
  std::span<std::uint8_t> out;
  std::size_t unit_size = 0;
};

class MatrixCoder {
 public:
  virtual ~MatrixCoder() = default;

  /// Applies the coefficient matrix: reads in_units() contiguous units
  /// from `in`, writes out_units() contiguous units to `out`, each unit
  /// being `unit_size` bytes. Throws std::invalid_argument on size
  /// mismatch or a unit size the backend cannot handle.
  ///
  /// Buffer contract: any byte span of the right size works. Bit-sliced
  /// backends (bit_sliced_w() > 0) require unit_size to be a multiple of
  /// w; unaligned buffers and unit sizes whose packets are not whole
  /// 64-bit words (anything between w and 8*w granularity) are staged
  /// through an internal aligned, packet-padded scratch copy — the
  /// backend's fast path always sees 8-byte-aligned operands and
  /// word-multiple packets. Byte-oriented backends (bit_sliced_w() == 0)
  /// accept any positive unit_size directly.
  void apply(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
             std::size_t unit_size) const;

  virtual std::size_t in_units() const noexcept = 0;
  virtual std::size_t out_units() const noexcept = 0;

  /// Short backend name for logs and benchmark rows (e.g. "isal-like").
  virtual std::string name() const = 0;

 protected:
  /// apply()'s argument validation alone (sizes, unit-size granularity),
  /// shared with GemmCoder::apply_batch. Throws std::invalid_argument.
  void validate_apply_args(std::span<const std::uint8_t> in,
                           std::span<std::uint8_t> out,
                           std::size_t unit_size) const;

  /// Backend kernel. Called with pre-validated operands: sizes match,
  /// and for bit-sliced backends the buffers are 8-byte aligned with
  /// unit_size a multiple of 8*w. Never called with an empty output
  /// (out_units() == 0 returns from apply() before dispatch).
  virtual void do_apply(std::span<const std::uint8_t> in,
                        std::span<std::uint8_t> out,
                        std::size_t unit_size) const = 0;

  /// The field word size w for backends using the bit-sliced packet
  /// embedding (units are w packets processed as 64-bit words); 0 for
  /// byte-oriented backends with no packet structure or alignment needs.
  virtual unsigned bit_sliced_w() const noexcept { return 0; }
};

}  // namespace tvmec::ec
