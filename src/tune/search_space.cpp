#include "tune/search_space.h"

#include <algorithm>
#include <array>
#include <set>
#include <stdexcept>
#include <string>

#include "tensor/kernel.h"

namespace tvmec::tune {

// The menus every task shares.
constexpr std::array<int, 4> kTileMs = {1, 2, 4, 8};
constexpr std::array<tensor::ParAxis, 3> kParAxes = {
    tensor::ParAxis::N, tensor::ParAxis::M, tensor::ParAxis::MN};
constexpr std::array<std::size_t, 3> kGrains = {0, 1, 4};

SearchSpace::SearchSpace(const TaskShape& shape, int max_threads)
    : shape_(shape), variant_(tensor::resolve_variant()) {
  if (shape.m == 0 || shape.n == 0 || shape.k == 0)
    throw std::invalid_argument("SearchSpace: zero task dimension");
  if (max_threads < 1)
    throw std::invalid_argument("SearchSpace: max_threads < 1");

  // Wide N tiles map onto the SIMD-specialized microkernels; cap at the
  // problem width.
  for (const int t : {4, 8, 16, 32, 64})
    if (static_cast<std::size_t>(t) <= shape.n) tile_ns_.push_back(t);
  if (tile_ns_.empty()) tile_ns_.push_back(1);

  // K is small for erasure codes (k*w rows), so offer fractions of it.
  block_ks_ = {0};
  for (const std::size_t b : {8u, 16u, 32u, 64u, 128u})
    if (b < shape.k) block_ks_.push_back(b);

  // N blocks sized around L1/L2-resident strips of B (on the Gfni road,
  // of the C panel).
  block_ns_ = {0};
  for (const std::size_t b : {128u, 256u, 512u, 1024u, 2048u, 4096u, 8192u})
    if (b < shape.n) block_ns_.push_back(b);

  const int thread_cap = std::min(max_threads, tensor::kMaxScheduleThreads);
  for (int t = 1; t <= thread_cap; t *= 2) threads_.push_back(t);

  // Every point of the knob grid, snapped; a point that snaps onto one
  // already listed runs as that one does.
  std::set<std::string> listed;
  for (const std::size_t grain : kGrains)
    for (const tensor::ParAxis axis : kParAxes)
      for (const int threads : threads_)
        for (const std::size_t bn : block_ns_)
          for (const std::size_t bk : block_ks_)
            for (const int tn : tile_ns_)
              for (const int tm : kTileMs) {
                const tensor::Schedule s =
                    snap({tm, tn, bk, bn, threads, axis, grain, variant_});
                if (listed.insert(s.to_string()).second)
                  schedules_.push_back(s);
              }
}

tensor::Schedule SearchSpace::snap(tensor::Schedule s) const {
  const tensor::Schedule fixed = tensor::default_schedule();
  const bool tiled = tensor::tiled_road(variant_);
  // The Gfni road keeps every output group in its C panel, walks all of
  // K per n-block and always partitions N.
  if (!tiled) {
    s.tile_m = fixed.tile_m;
    s.block_k = fixed.block_k;
    s.par_axis = fixed.par_axis;
  }
  // gemm_scheduled runs a one-thread call as one block, which the
  // Gfni road does not cut into tile_n columns.
  if (s.num_threads == 1) {
    s.par_axis = fixed.par_axis;
    s.par_grain = fixed.par_grain;
    if (!tiled) s.tile_n = fixed.tile_n;
  }
  return s;
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
      out.tile_m = pick(kTileMs);
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
      out.par_axis = pick(kParAxes);
      break;
    default:
      out.par_grain = pick(kGrains);
      break;
  }
  return snap(out);
}

}  // namespace tvmec::tune
