#include "ec/lrc.h"

#include <stdexcept>
#include <string>

#include "ec/reed_solomon.h"

namespace tvmec::ec {

void LrcParams::validate() const {
  if (k == 0 || l == 0 || g == 0)
    throw std::invalid_argument("LrcParams: k, l, g must be >= 1");
  if (k % l != 0)
    throw std::invalid_argument("LrcParams: l must divide k");
  if (!gf::is_supported_w(w))
    throw std::invalid_argument("LrcParams: unsupported w=" +
                                std::to_string(w));
  if (k + g > (std::size_t{1} << w))
    throw std::invalid_argument("LrcParams: k + g exceeds field size");
}

namespace {

gf::Matrix build_lrc_generator(const LrcParams& p) {
  p.validate();
  const gf::Field& field = gf::Field::of(p.w);
  gf::Matrix gen(field, p.n(), p.k);
  // Identity block: data units pass through.
  for (std::size_t i = 0; i < p.k; ++i) gen.set(i, i, 1);
  // Local parities: plain XOR (coefficient 1) over each group.
  const std::size_t gs = p.group_size();
  for (std::size_t grp = 0; grp < p.l; ++grp)
    for (std::size_t j = 0; j < gs; ++j)
      gen.set(p.k + grp, grp * gs + j, 1);
  // Global parities: Cauchy rows over all k data units; any gxg
  // submatrix of a Cauchy matrix is invertible, so any <= g failures of
  // data units are recoverable from the globals alone.
  const gf::Matrix globals = gf::Matrix::cauchy(field, p.g, p.k);
  for (std::size_t i = 0; i < p.g; ++i)
    for (std::size_t j = 0; j < p.k; ++j)
      gen.set(p.k + p.l + i, j, globals.at(i, j));
  return gen;
}

}  // namespace

Lrc::Lrc(const LrcParams& params)
    : params_(params), generator_(build_lrc_generator(params)) {}

gf::Matrix Lrc::parity_matrix() const {
  std::vector<std::size_t> ids(params_.l + params_.g);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = params_.k + i;
  return generator_.select_rows(ids);
}

std::optional<std::size_t> Lrc::group_of(std::size_t unit) const {
  if (unit < params_.k) return unit / params_.group_size();
  if (unit < params_.k + params_.l) return unit - params_.k;
  return std::nullopt;  // global parity
}

void Lrc::encode_reference(std::span<const std::uint8_t> data,
                           std::span<std::uint8_t> parity,
                           std::size_t unit_size) const {
  if (data.size() != params_.k * unit_size)
    throw std::invalid_argument("Lrc::encode_reference: bad data size");
  if (parity.size() != (params_.l + params_.g) * unit_size)
    throw std::invalid_argument("Lrc::encode_reference: bad parity size");
  apply_matrix_reference(parity_matrix(), data, parity, unit_size);
}

std::optional<DecodePlan> Lrc::local_repair_plan(
    std::size_t failed_unit) const {
  if (failed_unit >= params_.n())
    throw std::invalid_argument("local_repair_plan: unit out of range");
  const auto grp = group_of(failed_unit);
  if (!grp) return std::nullopt;  // global parity: no local group
  // Group members: the group's data units plus its local parity; the
  // failed unit is the XOR of the other group_size() members.
  const std::size_t gs = params_.group_size();
  std::vector<std::size_t> members;
  for (std::size_t j = 0; j < gs; ++j) members.push_back(*grp * gs + j);
  members.push_back(params_.k + *grp);

  std::vector<std::size_t> survivors;
  for (const std::size_t m : members)
    if (m != failed_unit) survivors.push_back(m);

  gf::Matrix recovery(field(), 1, survivors.size());
  for (std::size_t j = 0; j < survivors.size(); ++j) recovery.set(0, j, 1);
  return DecodePlan{std::move(survivors), {failed_unit}, std::move(recovery)};
}

std::optional<DecodePlan> Lrc::decode_plan(
    std::span<const std::size_t> erased_ids) const {
  if (erased_ids.size() == 1)
    if (auto local = local_repair_plan(erased_ids[0])) return local;
  return make_decode_plan(generator_, erased_ids);
}

}  // namespace tvmec::ec
