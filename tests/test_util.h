#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "tensor/buffer.h"
#include "tensor/scattered.h"
#include "tensor/variant.h"

/// Shared helpers for the test suite.
namespace tvmec::testutil {

/// Deterministic random bytes (seeded per call site for reproducibility).
inline tensor::AlignedBuffer<std::uint8_t> random_bytes(std::size_t size,
                                                        std::uint64_t seed) {
  tensor::AlignedBuffer<std::uint8_t> buf(size);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < size; ++i)
    buf[i] = static_cast<std::uint8_t>(rng());
  return buf;
}

inline std::vector<std::uint8_t> random_vector(std::size_t size,
                                               std::uint64_t seed) {
  std::vector<std::uint8_t> v(size);
  std::mt19937_64 rng(seed);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

/// All C(n, e) erasure patterns of exactly e ids out of [0, n).
inline std::vector<std::vector<std::size_t>> erasure_patterns(std::size_t n,
                                                              std::size_t e) {
  std::vector<std::vector<std::size_t>> out;
  std::vector<std::size_t> pattern(e);
  const auto recurse = [&](auto&& self, std::size_t start,
                           std::size_t depth) -> void {
    if (depth == e) {
      out.push_back(pattern);
      return;
    }
    for (std::size_t i = start; i < n; ++i) {
      pattern[depth] = i;
      self(self, i + 1, depth + 1);
    }
  };
  recurse(recurse, 0, 0);
  return out;
}

/// One GEMM of a batch that shares A: its B (K x N_i) and C (M x N_i).
struct GemmItem {
  tensor::MatView<const std::uint64_t> b;
  tensor::MatView<std::uint64_t> c;
};

/// The batch as one wide-N operand pair, the layout GemmCoder packs a
/// multi-item batch into: row r of the logical K x (sum N_i) B, and of
/// the M x (sum N_i) C, is every item's row r in turn, one fragment each.
inline std::pair<tensor::ScatteredView<const std::uint64_t>,
                 tensor::ScatteredView<std::uint64_t>>
wide_n(std::span<const GemmItem> items) {
  const std::size_t k = items.front().b.rows;
  const std::size_t m = items.front().c.rows;
  std::size_t n = 0;
  for (const GemmItem& item : items) n += item.b.cols;
  std::vector<tensor::Fragment<const std::uint64_t>> b;
  std::vector<tensor::Fragment<std::uint64_t>> c;
  for (std::size_t r = 0; r < k; ++r)
    for (const GemmItem& item : items)
      b.push_back({item.b.row(r), item.b.cols});
  for (std::size_t r = 0; r < m; ++r)
    for (const GemmItem& item : items)
      c.push_back({item.c.row(r), item.c.cols});
  return {{k, n, std::move(b)}, {m, n, std::move(c)}};
}

/// Restores the process-wide forced variant at scope exit, so test order
/// can't leak a pinned tier. The second constructor also forces `v`
/// (nullopt clears the force) for the scope.
class ForceRestorer {
 public:
  ForceRestorer() = default;
  explicit ForceRestorer(std::optional<tensor::KernelVariant> v) {
    tensor::set_forced_variant(v);
  }
  ~ForceRestorer() { tensor::set_forced_variant(prev_); }
  ForceRestorer(const ForceRestorer&) = delete;
  ForceRestorer& operator=(const ForceRestorer&) = delete;

 private:
  std::optional<tensor::KernelVariant> prev_ = tensor::forced_variant();
};

}  // namespace tvmec::testutil
