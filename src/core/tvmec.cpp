#include "core/tvmec.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>

namespace tvmec::core {

namespace {

/// dst[i] = a[i] ^ b[i] for n bytes, word-wide where possible. memcpy
/// loads/stores keep it alignment-safe (dst may alias a or b exactly).
void xor_bytes(std::uint8_t* dst, const std::uint8_t* a,
               const std::uint8_t* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t x, y;
    std::memcpy(&x, a + i, 8);
    std::memcpy(&y, b + i, 8);
    x ^= y;
    std::memcpy(dst + i, &x, 8);
  }
  for (; i < n; ++i) dst[i] = static_cast<std::uint8_t>(a[i] ^ b[i]);
}

/// The exact identity of a code as its planner sees it: w, the
/// generator's shape and entries, and the LRC group count (0 for RS) —
/// an LRC plans single local losses differently from a greedy code even
/// if their generators were equal.
std::vector<std::uint32_t> code_identity(const gf::Matrix& generator,
                                         std::size_t local_groups) {
  std::vector<std::uint32_t> id{
      generator.field().w(), static_cast<std::uint32_t>(generator.rows()),
      static_cast<std::uint32_t>(generator.cols()),
      static_cast<std::uint32_t>(local_groups)};
  for (std::size_t i = 0; i < generator.rows(); ++i)
    for (std::size_t j = 0; j < generator.cols(); ++j)
      id.push_back(generator.at(i, j));
  return id;
}

}  // namespace

Codec::Codec(const ec::CodeParams& params, ec::RsFamily family)
    : params_(params),
      generator_(ec::ReedSolomon(params, family).generator()),
      code_id_(code_identity(generator_, 0)),
      encode_coder_(parity_matrix()) {}

Codec::Codec(const ec::LrcParams& params)
    : params_{params.k, params.l + params.g, params.w},
      lrc_(std::in_place, params),
      generator_(lrc_->generator()),
      code_id_(code_identity(generator_, params.l)),
      encode_coder_(parity_matrix()) {}

gf::Matrix Codec::parity_matrix() const {
  std::vector<std::size_t> ids(params_.r);
  std::iota(ids.begin(), ids.end(), params_.k);
  return generator_.select_rows(ids);
}

std::shared_ptr<const ec::DecodePlan> Codec::plan(
    std::vector<std::size_t> erased,
    std::vector<std::size_t> preferred) const {
  erased = normalize_erasures(erased);
  if (erased.empty()) throw std::invalid_argument("plan: nothing erased");
  // An LRC's own planner reads a lone local loss's group; a survivor
  // preference goes to the greedy walk, which never leaves it.
  const auto build = [&]() -> std::optional<ec::DecodePlan> {
    return lrc_ && preferred.empty()
               ? lrc_->decode_plan(erased)
               : ec::make_decode_plan(generator_, erased, preferred);
  };
  // The cache holds the inversion result: on a hit the costly planning
  // is skipped entirely.
  PlanCache& cache = plan_cache_ ? *plan_cache_ : *own_plans_;
  return cache.get_or_build(PlanKey{code_id_, erased, preferred}, build);
}

void Codec::encode(std::span<const std::uint8_t> data,
                   std::span<std::uint8_t> parity,
                   std::size_t unit_size) const {
  encode_coder_.apply_leading(data, parity, unit_size);
}

GemmCoder& Codec::decode_coder(const ec::DecodePlan& plan) {
  // Only the plan is shared; the GemmCoder carries this codec's
  // schedule and stays local.
  auto& coder = decode_cache_[{plan.erased, plan.survivors}];
  if (!coder) {
    coder =
        std::make_unique<GemmCoder>(plan.recovery, encode_coder_.schedule());
    coder->set_schedule_cache(encode_coder_.schedule_cache());
  }
  return *coder;
}

std::vector<std::size_t> Codec::normalize_erasures(
    std::span<const std::size_t> erased_ids) const {
  const std::size_t n = params_.n();
  // Callers pass loss sets in whatever order (and with whatever
  // duplication) their failure detector produced; normalize here so the
  // plan cache keys stay canonical and duplicates cannot reach
  // make_decode_plan. {3,1} and {2,2} are both legitimate inputs.
  std::vector<std::size_t> erased(erased_ids.begin(), erased_ids.end());
  std::sort(erased.begin(), erased.end());
  erased.erase(std::unique(erased.begin(), erased.end()), erased.end());
  for (const std::size_t id : erased)
    if (id >= n)
      throw std::invalid_argument("decode: erased id " + std::to_string(id) +
                                  " out of range (n=" + std::to_string(n) +
                                  ")");
  return erased;
}

void Codec::decode(std::span<std::uint8_t> stripe,
                   std::span<const std::size_t> erased_ids,
                   std::size_t unit_size) {
  const DecodeBatchItem item{stripe, erased_ids, unit_size};
  decode_batch(std::span<const DecodeBatchItem>(&item, 1));
}

void Codec::decode(std::span<std::uint8_t> stripe, const ec::DecodePlan& plan,
                   std::size_t unit_size) {
  if (stripe.size() != params_.n() * unit_size)
    throw std::invalid_argument("decode: stripe must hold k+r units");
  std::vector<const std::uint8_t*> in_ptrs;
  for (const std::size_t id : plan.survivors)
    in_ptrs.push_back(stripe.data() + id * unit_size);
  std::vector<std::uint8_t*> out_ptrs;
  for (const std::size_t id : plan.erased)
    out_ptrs.push_back(stripe.data() + id * unit_size);
  const ScatteredCoderItem item{in_ptrs, out_ptrs, unit_size};
  decode_coder(plan).apply_scattered({&item, 1});
}

void Codec::encode_batch(std::span<const ec::CoderBatchItem> items,
                         int max_threads,
                         const tensor::CancelToken& cancel) const {
  encode_coder_.apply_batch(items, max_threads, cancel);
}

void Codec::decode_batch(std::span<const DecodeBatchItem> items,
                         int max_threads, const tensor::CancelToken& cancel) {
  const std::size_t n = params_.n();
  // Group item indices by canonical erasure pattern: every member of a
  // group shares the recovery matrix, so the group's recoveries run as
  // one batched GEMM (enlarged N) instead of one call per stripe.
  std::map<std::vector<std::size_t>, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const DecodeBatchItem& item = items[i];
    if (item.stripe.size() != n * item.unit_size)
      throw std::invalid_argument("decode: stripe must hold k+r units");
    if (item.erased_ids.empty()) continue;
    std::vector<std::size_t> erased = normalize_erasures(item.erased_ids);
    if (erased.size() > params_.r)
      throw std::runtime_error("decode: " + std::to_string(erased.size()) +
                               " distinct erasures exceed r=" +
                               std::to_string(params_.r) + " parities");
    groups[std::move(erased)].push_back(i);
  }

  for (const auto& [erased, members] : groups) {
    cancel.throw_if_cancelled();
    auto& plan = pattern_plans_[erased];
    if (!plan) plan = this->plan(erased);
    if (!plan)
      throw std::runtime_error("decode: erasure pattern is unrecoverable");
    const std::size_t k = plan->survivors.size();
    const std::size_t e = plan->erased.size();

    // Zero-copy group recovery: each member's survivor units are read in
    // place inside its stripe and the recovered units are written
    // directly into the erased positions — the scattered kernel's panel
    // packing replaces the survivor-gather staging this loop used to do.
    // Survivor and erased unit ranges are disjoint, so in-place repair
    // cannot alias reads with writes.
    std::vector<const std::uint8_t*> in_ptrs(members.size() * k);
    std::vector<std::uint8_t*> out_ptrs(members.size() * e);
    std::vector<ScatteredCoderItem> batch;
    batch.reserve(members.size());
    for (std::size_t b = 0; b < members.size(); ++b) {
      const DecodeBatchItem& item = items[members[b]];
      const std::size_t unit = item.unit_size;
      for (std::size_t s = 0; s < k; ++s)
        in_ptrs[b * k + s] = item.stripe.data() + plan->survivors[s] * unit;
      for (std::size_t s = 0; s < e; ++s)
        out_ptrs[b * e + s] = item.stripe.data() + plan->erased[s] * unit;
      batch.push_back(ScatteredCoderItem{
          std::span<const std::uint8_t* const>(in_ptrs.data() + b * k, k),
          std::span<std::uint8_t* const>(out_ptrs.data() + b * e, e), unit});
    }
    decode_coder(*plan).apply_scattered(batch, max_threads, cancel);
  }
}

void Codec::encode_scattered(const std::vector<const std::uint8_t*>& data,
                             const std::vector<std::uint8_t*>& parity,
                             std::size_t unit_size) const {
  if (data.size() != params_.k || parity.size() != params_.r)
    throw std::invalid_argument(
        "encode_scattered: wrong number of unit pointers");
  const ScatteredCoderItem item{
      std::span<const std::uint8_t* const>(data.data(), data.size()),
      std::span<std::uint8_t* const>(parity.data(), parity.size()),
      unit_size};
  encode_coder_.apply_scattered(std::span<const ScatteredCoderItem>(&item, 1));
}

void Codec::update_unit(std::span<std::uint8_t> stripe, std::size_t unit_id,
                        std::span<const std::uint8_t> new_data,
                        std::size_t unit_size) {
  if (stripe.size() != params_.n() * unit_size)
    throw std::invalid_argument("update_unit: stripe must hold k+r units");
  if (unit_id >= params_.k)
    throw std::invalid_argument("update_unit: only data units can be updated");
  if (new_data.size() != unit_size)
    throw std::invalid_argument("update_unit: new data must be one unit");

  if (delta_coders_.empty()) delta_coders_.resize(params_.k);
  auto& coder = delta_coders_[unit_id];
  if (!coder) {
    // The parity column of this unit: P_i picks up C[i][unit] * delta.
    gf::Matrix column(generator_.field(), params_.r, 1);
    for (std::size_t i = 0; i < params_.r; ++i)
      column.set(i, 0, generator_.at(params_.k + i, unit_id));
    coder = std::make_unique<GemmCoder>(column, encode_coder_.schedule());
    coder->set_schedule_cache(encode_coder_.schedule_cache());
  }

  const std::size_t needed = (1 + params_.r) * unit_size;
  if (staging_.size() < needed)
    staging_ = tensor::AlignedBuffer<std::uint8_t>(needed);
  std::uint8_t* const delta = staging_.data();
  std::uint8_t* const parity_delta = staging_.data() + unit_size;
  std::uint8_t* const old_unit = stripe.data() + unit_id * unit_size;
  std::uint8_t* const parity = stripe.data() + params_.k * unit_size;

  // Word-wide XOR via memcpy loads/stores: alignment-safe for arbitrary
  // user spans (compilers lower this to plain vector loads), with a byte
  // tail for unit sizes that are not word multiples.
  xor_bytes(delta, old_unit, new_data.data(), unit_size);
  coder->apply(std::span<const std::uint8_t>(delta, unit_size),
               std::span<std::uint8_t>(parity_delta, params_.r * unit_size),
               unit_size);
  xor_bytes(parity, parity, parity_delta, params_.r * unit_size);
  std::memcpy(old_unit, new_data.data(), unit_size);
}

tune::TuneResult Codec::tune(std::size_t unit_size,
                             const tune::TuneOptions& options,
                             int max_threads) {
  tune::TuneResult result =
      encode_coder_.tune(unit_size, options, max_threads);
  // Coders built later inherit the tuned schedule; drop stale ones.
  decode_cache_.clear();
  delta_coders_.clear();
  return result;
}

}  // namespace tvmec::core
