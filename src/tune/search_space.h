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
/// its record names. It lists each schedule that runs differently once:
/// a knob a schedule's call does not read (tensor::tiled_road, or the
/// parallel knobs of a one-thread call) holds the default's value.
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
  /// Lists the schedules of a task on the tier resolve_variant() names
  /// now. `max_threads` caps the thread knob (pass 1 to restrict
  /// tuning to serial schedules); the knob never exceeds
  /// tensor::kMaxScheduleThreads.
  SearchSpace(const TaskShape& shape, int max_threads);

  const TaskShape& shape() const noexcept { return shape_; }

  /// Number of schedules that run differently.
  std::size_t size() const noexcept { return schedules_.size(); }

  /// The i-th schedule; throws std::out_of_range past size().
  tensor::Schedule at(std::size_t i) const { return schedules_.at(i); }

  /// All schedules, in order.
  const std::vector<tensor::Schedule>& all() const noexcept {
    return schedules_;
  }

  /// Randomly perturbs one knob of `s` (evolutionary-search mutation),
  /// then snaps the result like every schedule of the space.
  tensor::Schedule mutate(const tensor::Schedule& s,
                          std::mt19937_64& rng) const;

 private:
  /// `s` with each knob its call does not read set to the default
  /// schedule's value.
  tensor::Schedule snap(tensor::Schedule s) const;

  TaskShape shape_;
  tensor::KernelVariant variant_;
  // The task's menus; the space is every menu's grid, snapped.
  std::vector<int> tile_ns_;
  std::vector<std::size_t> block_ks_;
  std::vector<std::size_t> block_ns_;
  std::vector<int> threads_;
  std::vector<tensor::Schedule> schedules_;
};

}  // namespace tvmec::tune
