#include "tune/search_space.h"

#include <algorithm>
#include <stdexcept>

#include "tensor/kernel.h"

namespace tvmec::tune {

SearchSpace::SearchSpace(const TaskShape& shape, int max_threads)
    : shape_(shape), variant_(tensor::resolve_variant()) {
  if (shape.m == 0 || shape.n == 0 || shape.k == 0)
    throw std::invalid_argument("SearchSpace: zero task dimension");
  if (max_threads < 1)
    throw std::invalid_argument("SearchSpace: max_threads < 1");

  tile_ms_ = {1, 2, 4, 8};
  // Wide N tiles map onto the SIMD-specialized microkernels; cap at the
  // problem width.
  for (const int t : {4, 8, 16, 32, 64})
    if (static_cast<std::size_t>(t) <= shape.n) tile_ns_.push_back(t);
  if (tile_ns_.empty()) tile_ns_.push_back(1);

  // K is small for erasure codes (k*w rows), so offer fractions of it.
  block_ks_ = {0};
  for (const std::size_t b : {8u, 16u, 32u, 64u, 128u})
    if (b < shape.k) block_ks_.push_back(b);

  // N blocks sized around L1/L2-resident strips of B.
  block_ns_ = {0};
  for (const std::size_t b : {256u, 512u, 1024u, 2048u, 4096u, 8192u})
    if (b < shape.n) block_ns_.push_back(b);

  for (int t = 1; t <= max_threads; t *= 2) threads_.push_back(t);

  // Parallelization strategy only matters with real parallelism; a serial
  // space keeps the canonical single entry so serial tuning sessions do
  // not waste trials on nine perf-identical duplicates per point.
  if (max_threads > 1) {
    par_axes_ = {tensor::ParAxis::N, tensor::ParAxis::M, tensor::ParAxis::MN};
    grains_ = {0, 1, 4};
  } else {
    par_axes_ = {tensor::ParAxis::N};
    grains_ = {0};
  }

  // Likewise a knob the tier's road does not read keeps the default
  // schedule's value alone; serially that includes tile_n, which such a
  // road reads only as the unit of a threaded N split.
  if (!tensor::tiled_road(variant_)) {
    const tensor::Schedule fixed = tensor::default_schedule();
    tile_ms_ = {fixed.tile_m};
    block_ks_ = {fixed.block_k};
    par_axes_ = {fixed.par_axis};
    if (max_threads == 1) tile_ns_ = {fixed.tile_n};
  }
}

std::size_t SearchSpace::size() const noexcept {
  return tile_ms_.size() * tile_ns_.size() * block_ks_.size() *
         block_ns_.size() * threads_.size() * par_axes_.size() *
         grains_.size();
}

tensor::Schedule SearchSpace::at(std::size_t i) const {
  if (i >= size()) throw std::out_of_range("SearchSpace::at");
  tensor::Schedule s;
  s.tile_m = tile_ms_[i % tile_ms_.size()];
  i /= tile_ms_.size();
  s.tile_n = tile_ns_[i % tile_ns_.size()];
  i /= tile_ns_.size();
  s.block_k = block_ks_[i % block_ks_.size()];
  i /= block_ks_.size();
  s.block_n = block_ns_[i % block_ns_.size()];
  i /= block_ns_.size();
  s.num_threads = threads_[i % threads_.size()];
  i /= threads_.size();
  s.par_axis = par_axes_[i % par_axes_.size()];
  i /= par_axes_.size();
  s.par_grain = grains_[i % grains_.size()];
  s.variant = variant_;
  return s;
}

std::vector<tensor::Schedule> SearchSpace::all() const {
  std::vector<tensor::Schedule> out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) out.push_back(at(i));
  return out;
}

tensor::Schedule SearchSpace::sample(std::mt19937_64& rng) const {
  std::uniform_int_distribution<std::size_t> dist(0, size() - 1);
  return at(dist(rng));
}

tensor::Schedule SearchSpace::mutate(const tensor::Schedule& s,
                                     std::mt19937_64& rng) const {
  tensor::Schedule out = s;
  std::uniform_int_distribution<int> knob_dist(0, 6);
  const auto pick = [&rng](const auto& options) {
    std::uniform_int_distribution<std::size_t> d(0, options.size() - 1);
    return options[d(rng)];
  };
  switch (knob_dist(rng)) {
    case 0:
      out.tile_m = pick(tile_ms_);
      break;
    case 1:
      out.tile_n = pick(tile_ns_);
      break;
    case 2:
      out.block_k = pick(block_ks_);
      break;
    case 3:
      out.block_n = pick(block_ns_);
      break;
    case 4:
      out.num_threads = pick(threads_);
      break;
    case 5:
      out.par_axis = pick(par_axes_);
      break;
    default:
      out.par_grain = pick(grains_);
      break;
  }
  return out;
}

}  // namespace tvmec::tune
