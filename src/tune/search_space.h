#pragma once

#include <compare>
#include <cstddef>
#include <random>
#include <vector>

#include "tensor/schedule.h"

/// The schedule search space an autotuner explores for one GEMM-shaped
/// task. Mirrors the role of TVM Autoscheduler's sketch+annotation space:
/// register-tile extents, cache-block sizes over K and N, thread count,
/// and — as in TVM, where which loop axis gets the `parallel` annotation
/// is itself a schedule decision — the parallel axis and chunk grain.
/// The space is built for one SIMD kernel tier, the one calls resolve to
/// when the space is made (the forced tier if one is set, else the best
/// available), and every schedule names it, so a trial times the tier
/// its record names. A knob the tier's road does not read
/// (tensor::tiled_road) holds one value, so the trial budget goes to
/// schedules that run differently.
namespace tvmec::tune {

/// The problem shape being tuned for (C is m x n, reduction extent k;
/// element = one 64-bit word).
struct TaskShape {
  std::size_t m = 0;
  std::size_t n = 0;
  std::size_t k = 0;

  auto operator<=>(const TaskShape&) const = default;
};

class SearchSpace {
 public:
  /// Builds the knob menu for a task on the tier resolve_variant()
  /// names now. `max_threads` caps the thread knob (pass 1 to restrict
  /// tuning to serial schedules).
  SearchSpace(const TaskShape& shape, int max_threads);

  const TaskShape& shape() const noexcept { return shape_; }

  /// Total number of distinct schedules.
  std::size_t size() const noexcept;

  /// The i-th schedule in lexicographic knob order (i < size()).
  tensor::Schedule at(std::size_t i) const;

  /// All schedules, in order. Small enough to materialize.
  std::vector<tensor::Schedule> all() const;

  /// Uniformly random schedule.
  tensor::Schedule sample(std::mt19937_64& rng) const;

  /// Randomly perturbs one knob of `s` (evolutionary-search mutation).
  tensor::Schedule mutate(const tensor::Schedule& s,
                          std::mt19937_64& rng) const;

  const std::vector<int>& tile_m_options() const noexcept { return tile_ms_; }
  const std::vector<int>& tile_n_options() const noexcept { return tile_ns_; }
  const std::vector<std::size_t>& block_k_options() const noexcept {
    return block_ks_;
  }
  const std::vector<std::size_t>& block_n_options() const noexcept {
    return block_ns_;
  }
  const std::vector<int>& thread_options() const noexcept { return threads_; }
  const std::vector<tensor::ParAxis>& par_axis_options() const noexcept {
    return par_axes_;
  }
  const std::vector<std::size_t>& grain_options() const noexcept {
    return grains_;
  }

 private:
  TaskShape shape_;
  tensor::KernelVariant variant_;
  std::vector<int> tile_ms_;
  std::vector<int> tile_ns_;
  std::vector<std::size_t> block_ks_;
  std::vector<std::size_t> block_ns_;
  std::vector<int> threads_;
  std::vector<tensor::ParAxis> par_axes_;
  std::vector<std::size_t> grains_;
};

}  // namespace tvmec::tune
