#include "ec/decoder.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace tvmec::ec {

namespace {

/// Incremental row-reduction helper: tracks a reduced basis over GF(2^w)
/// and reports whether a new row adds rank.
class RankTracker {
 public:
  explicit RankTracker(const gf::Field& field, std::size_t cols)
      : field_(&field), cols_(cols) {}

  std::size_t rank() const noexcept { return basis_.size(); }

  /// Returns true (and absorbs the row) if it is independent of the basis.
  bool try_add(std::span<const gf::elem_t> row) {
    std::vector<gf::elem_t> v(row.begin(), row.end());
    for (const auto& b : basis_) reduce(v, b);
    const auto lead = leading(v);
    if (!lead) return false;
    normalize(v, *lead);
    basis_.push_back({std::move(v), *lead});
    return true;
  }

 private:
  struct BasisRow {
    std::vector<gf::elem_t> row;  // normalized: row[lead] == 1
    std::size_t lead;
  };

  std::optional<std::size_t> leading(const std::vector<gf::elem_t>& v) const {
    for (std::size_t c = 0; c < cols_; ++c)
      if (v[c] != 0) return c;
    return std::nullopt;
  }

  void normalize(std::vector<gf::elem_t>& v, std::size_t lead) const {
    const gf::elem_t inv = field_->inv(v[lead]);
    for (auto& x : v) x = field_->mul(inv, x);
  }

  void reduce(std::vector<gf::elem_t>& v, const BasisRow& b) const {
    const gf::elem_t f = v[b.lead];
    if (f == 0) return;
    for (std::size_t c = 0; c < cols_; ++c)
      v[c] = gf::Field::add(v[c], field_->mul(f, b.row[c]));
  }

  const gf::Field* field_;
  std::size_t cols_;
  std::vector<BasisRow> basis_;
};

}  // namespace

std::optional<DecodePlan> make_decode_plan(
    const gf::Matrix& generator, std::span<const std::size_t> erased_ids,
    std::span<const std::size_t> preferred) {
  const std::size_t n = generator.rows();
  const std::size_t k = generator.cols();
  if (erased_ids.empty())
    throw std::invalid_argument("make_decode_plan: nothing erased");

  std::vector<bool> erased_mask(n, false);
  for (const std::size_t id : erased_ids) {
    if (id >= n)
      throw std::invalid_argument("make_decode_plan: erased id out of range");
    if (erased_mask[id])
      throw std::invalid_argument("make_decode_plan: duplicate erased id " +
                                  std::to_string(id));
    erased_mask[id] = true;
  }

  // Greedily pick k linearly independent survivor rows in preference
  // order; for MDS codes every survivor adds rank, and for LRC-style
  // codes the dependence check skips redundant local parities.
  std::vector<std::size_t> order(preferred.begin(), preferred.end());
  if (order.empty()) {
    order.resize(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
  }
  RankTracker tracker(generator.field(), k);
  std::vector<std::size_t> chosen;
  std::vector<bool> used(n, false);
  for (const std::size_t id : order) {
    if (chosen.size() == k) break;
    if (id >= n)
      throw std::invalid_argument(
          "make_decode_plan: preferred id out of range");
    if (erased_mask[id] || used[id]) continue;
    used[id] = true;
    if (tracker.try_add(generator.row(id))) chosen.push_back(id);
  }
  if (chosen.size() < k) return std::nullopt;

  // The survivor list is kept ascending, so an identical chosen set
  // yields an identical plan whatever the caller's preference order.
  std::sort(chosen.begin(), chosen.end());
  const gf::Matrix survivor_rows = generator.select_rows(chosen);
  const auto inv = survivor_rows.inverted();
  if (!inv) return std::nullopt;  // cannot happen after the rank check

  std::vector<std::size_t> erased_vec(erased_ids.begin(), erased_ids.end());
  gf::Matrix recovery = generator.select_rows(erased_vec).mul(*inv);
  return DecodePlan{std::move(chosen), std::move(erased_vec),
                    std::move(recovery)};
}

}  // namespace tvmec::ec
