#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "tensor/buffer.h"
#include "tensor/cancel.h"
#include "tensor/schedule.h"

/// Scattered (iovec-style) GEMM operands.
///
/// Erasure-coding callers rarely hold their data contiguously: Jerasure-style
/// APIs hand the codec one pointer per unit, the serving layer batches many
/// requests whose payloads live in unrelated client buffers, and decode reads
/// survivors straight out of stripe storage. Staging all of that into one
/// contiguous matrix before the kernel runs is the §5 memcpy tax the paper
/// measures at 60–140%. A ScatteredView describes the logical row-major
/// operand as a fragment list instead, and gemm_xorand_scattered folds the
/// gather into the panel-packing step the tiled loop performs anyway — each
/// fragment's words are touched once, in cache, as part of packing, rather
/// than being re-streamed through a full-size staging buffer first.
namespace tvmec::tensor {

/// One physically contiguous piece of a logical operand stream.
/// `words` counts elements (not bytes); fragments must be non-empty.
template <typename T>
struct Fragment {
  T* ptr = nullptr;
  std::size_t words = 0;
};

/// A logical rows x cols row-major matrix whose element stream is split
/// into arbitrary word-granular fragments. Fragment boundaries need not
/// respect row boundaries: the concatenated fragments ARE the row-major
/// stream, in order. Invariants (checked at construction):
///   - every fragment has a non-null pointer and words >= 1,
///   - sum of fragment words == rows * cols,
///   - rows >= 1 and cols >= 1.
/// Fragments are kept as given, never merged: a view split from one
/// buffer still has that many fragments, and the kernel packs it.
/// The view does not own the fragment storage; callers keep the underlying
/// buffers alive and unmoved while a kernel consumes the view.
template <typename T>
class ScatteredView {
 public:
  ScatteredView(std::size_t rows, std::size_t cols,
                std::vector<Fragment<T>> fragments)
      : rows_(rows), cols_(cols), fragments_(std::move(fragments)) {
    if (rows_ == 0 || cols_ == 0)
      throw std::invalid_argument("ScatteredView: zero dimension");
    offsets_.reserve(fragments_.size() + 1);
    offsets_.push_back(0);
    for (const Fragment<T>& f : fragments_) {
      if (f.ptr == nullptr)
        throw std::invalid_argument("ScatteredView: null fragment");
      if (f.words == 0)
        throw std::invalid_argument("ScatteredView: empty fragment");
      offsets_.push_back(offsets_.back() + f.words);
    }
    if (offsets_.back() != rows_ * cols_)
      throw std::invalid_argument(
          "ScatteredView: fragment words != rows * cols");
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  /// A single-fragment view is physically contiguous: the kernel reads
  /// or writes it in place, with no packing at all.
  bool contiguous() const noexcept { return fragments_.size() == 1; }

  /// Only valid when contiguous().
  MatView<T> as_matview() const noexcept {
    return {fragments_.front().ptr, rows_, cols_, cols_};
  }

  /// The logical word range [pos, pos + len) in place when one fragment
  /// holds all of it, else nullptr (the range must then be gathered or
  /// scattered).
  T* find_contiguous(std::size_t pos, std::size_t len) const noexcept {
    const std::size_t f = fragment_index(pos);
    if (pos + len > offsets_[f + 1]) return nullptr;
    return fragments_[f].ptr + (pos - offsets_[f]);
  }

  /// Copies the logical word range [pos, pos + len) into dst. This is the
  /// packing primitive: kernels call it per cache panel so every source
  /// word is read exactly once per k-block.
  void gather(std::size_t pos, std::size_t len,
              std::remove_const_t<T>* dst) const noexcept {
    for_each_piece(pos, len, [dst](T* p, std::size_t at, std::size_t words) {
      std::memcpy(dst + at, p, words * sizeof(T));
    });
  }

  /// Copies src over the logical word range [pos, pos + len). Only
  /// instantiable for mutable views.
  void scatter(std::size_t pos, std::size_t len, const T* src) const noexcept {
    static_assert(!std::is_const_v<T>,
                  "ScatteredView::scatter requires a mutable view");
    for_each_piece(pos, len, [src](T* p, std::size_t at, std::size_t words) {
      std::memcpy(p, src + at, words * sizeof(T));
    });
  }

 private:
  /// Calls fn(ptr, at, words) for each fragment piece of the logical
  /// word range [pos, pos + len), `at` words into the range.
  template <class Fn>
  void for_each_piece(std::size_t pos, std::size_t len, Fn fn) const noexcept {
    std::size_t f = fragment_index(pos);
    std::size_t off = pos - offsets_[f];
    for (std::size_t at = 0; at < len; ++f, off = 0) {
      const std::size_t take = std::min(len - at, fragments_[f].words - off);
      fn(fragments_[f].ptr + off, at, take);
      at += take;
    }
  }

  /// Index of the fragment containing logical position pos (pos < total).
  std::size_t fragment_index(std::size_t pos) const noexcept {
    return static_cast<std::size_t>(
               std::upper_bound(offsets_.begin(), offsets_.end(), pos) -
               offsets_.begin()) -
           1;
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Fragment<T>> fragments_;
  std::vector<std::size_t> offsets_;  // prefix sums; offsets_[i] = start of i
};

/// C = A (x) B over the XorAnd semiring with scattered B and C operands.
/// Shapes: A is MxK (a MatView of broadcast masks), B is KxN, C is MxN.
///
/// The same blocked loop as gemm_xorand, with the gather folded into
/// packing: per (n-block, k-block) a fragmented B's panel is assembled
/// into a cache-resident scratch panel, the register-tile microkernels
/// accumulate into a C panel, and a fragmented C's panel is scattered out
/// exactly once. A one-fragment operand is read or written in place, so
/// two one-fragment operands run exactly as gemm_xorand.
///
/// Parallel schedules with a fragmented operand always partition the N
/// axis (EC's long axis); par_axis M/MN are accepted but treated as N
/// since C panels are column-block-local. `cancel` and the Gfni tier's
/// per-call block form follow gemm_xorand's contract.
void gemm_xorand_scattered(MatView<const std::uint64_t> a,
                           const ScatteredView<const std::uint64_t>& b,
                           const ScatteredView<std::uint64_t>& c,
                           const Schedule& schedule,
                           const CancelToken& cancel = {});

/// gemm_xorand_scattered with A's block form supplied, as in the
/// block-form gemm_xorand.
void gemm_xorand_scattered(MatView<const std::uint64_t> a,
                           MatView<const std::uint64_t> blocks,
                           const ScatteredView<const std::uint64_t>& b,
                           const ScatteredView<std::uint64_t>& c,
                           const Schedule& schedule,
                           const CancelToken& cancel = {});

}  // namespace tvmec::tensor
