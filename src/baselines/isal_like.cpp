#include "baselines/isal_like.h"

#include <cstring>
#include <stdexcept>

#include "tensor/variant.h"

namespace tvmec::baseline {

const char* to_string(IsalPath path) noexcept {
  switch (path) {
    case IsalPath::Scalar:
      return "scalar";
    case IsalPath::Vpshufb:
      return "vpshufb";
    case IsalPath::Gfni:
      return "gfni";
  }
  return "?";
}

std::uint64_t gfni_matrix(const gf::Field& field, std::uint8_t c) {
  // Row i of the GF(2) matrix: bit j set iff bit i of c * x^j. The ISA
  // reads row i from qword byte 7-i (result bit i = parity(row & src)).
  std::uint64_t m = 0;
  for (int i = 0; i < 8; ++i) {
    std::uint8_t row = 0;
    for (int j = 0; j < 8; ++j) {
      const auto prod = field.mul(c, static_cast<gf::elem_t>(1u << j));
      row = static_cast<std::uint8_t>(row | (((prod >> i) & 1u) << j));
    }
    m |= static_cast<std::uint64_t>(row) << (8 * (7 - i));
  }
  return m;
}

IsalCoder::IsalCoder(const gf::Matrix& coeffs)
    : in_units_(coeffs.cols()), out_units_(coeffs.rows()) {
  if (coeffs.field().w() != 8)
    throw std::invalid_argument("isal-like: requires GF(2^8) coefficients");
  tables_.reserve(out_units_ * in_units_);
  gfni_matrices_.reserve(out_units_ * in_units_);
  for (std::size_t i = 0; i < out_units_; ++i) {
    for (std::size_t j = 0; j < in_units_; ++j) {
      const auto c = static_cast<std::uint8_t>(coeffs.at(i, j));
      tables_.push_back(coeffs.field().split_tables(c));
      gfni_matrices_.push_back(gfni_matrix(coeffs.field(), c));
    }
  }
}

IsalPath IsalCoder::active_path() noexcept {
  // Follow the library-wide variant tier so one TVMEC_FORCE_VARIANT knob
  // pins baseline and tensor kernels alike. The Gfni tier maps to GFNI,
  // and so does Avx512 when the host has it (GFNI ships on every AVX-512
  // server part this baseline targets); otherwise both degrade to
  // vpshufb.
  const tensor::CpuFeatures& f = tensor::cpu_features();
  const bool vpshufb_ok = f.avx2 && isal_vpshufb_kernel() != nullptr;
  const bool gfni_ok = f.gfni && f.avx2 && isal_gfni_kernel() != nullptr;
  switch (tensor::active_variant()) {
    case tensor::KernelVariant::Gfni:
    case tensor::KernelVariant::Avx512:
      if (gfni_ok) return IsalPath::Gfni;
      [[fallthrough]];
    case tensor::KernelVariant::Avx2:
      if (vpshufb_ok) return IsalPath::Vpshufb;
      return IsalPath::Scalar;
    case tensor::KernelVariant::Auto:
    case tensor::KernelVariant::Scalar:
    case tensor::KernelVariant::Neon:
      return IsalPath::Scalar;
  }
  return IsalPath::Scalar;
}

bool IsalCoder::has_simd_path() noexcept {
  return active_path() != IsalPath::Scalar;
}

namespace {

/// Portable split-table dot-product accumulation for one (out, in) pair.
void accumulate_scalar(const gf::SplitTables8& t, const std::uint8_t* src,
                       std::uint8_t* dst, std::size_t len) {
  for (std::size_t b = 0; b < len; ++b) dst[b] ^= t.mul(src[b]);
}

}  // namespace

void IsalCoder::do_apply(std::span<const std::uint8_t> in,
                         std::span<std::uint8_t> out,
                         std::size_t unit_size) const {
  const IsalPath path = active_path();
  if (path == IsalPath::Gfni) {
    const IsalGfniFn fn = isal_gfni_kernel();
    for (std::size_t i = 0; i < out_units_; ++i)
      fn(gfni_matrices_.data() + i * in_units_, in_units_, in.data(),
         unit_size, out.data() + i * unit_size, unit_size);
    return;
  }
  if (path == IsalPath::Vpshufb) {
    const IsalShufFn fn = isal_vpshufb_kernel();
    for (std::size_t i = 0; i < out_units_; ++i)
      fn(tables_.data() + i * in_units_, in_units_, in.data(), unit_size,
         out.data() + i * unit_size, unit_size);
    return;
  }
  for (std::size_t i = 0; i < out_units_; ++i) {
    std::uint8_t* dst = out.data() + i * unit_size;
    std::memset(dst, 0, unit_size);
    for (std::size_t j = 0; j < in_units_; ++j)
      accumulate_scalar(tables_[i * in_units_ + j],
                        in.data() + j * unit_size, dst, unit_size);
  }
}

}  // namespace tvmec::baseline
