#include "core/gemm_coder.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

#include "tensor/kernel.h"
#include "tensor/scattered.h"

namespace tvmec::core {

namespace {

bool word_aligned(const void* p) noexcept {
  return reinterpret_cast<std::uintptr_t>(p) % 8 == 0;
}

tensor::AlignedBuffer<std::uint64_t> build_masks(const gf::Matrix& coeffs) {
  const ec::BitmatrixCode code(coeffs);
  const gf::BitMatrix& bits = code.bits();
  tensor::AlignedBuffer<std::uint64_t> masks(bits.rows() * bits.cols());
  for (std::size_t i = 0; i < bits.rows(); ++i)
    for (std::size_t j = 0; j < bits.cols(); ++j)
      masks[i * bits.cols() + j] =
          bits.get(i, j) ? ~std::uint64_t{0} : std::uint64_t{0};
  return masks;
}

}  // namespace

tensor::Schedule default_coder_schedule() noexcept {
  tensor::Schedule s;
  s.tile_m = 8;
  s.tile_n = 16;
  s.block_k = 0;
  s.block_n = 512;
  s.num_threads = 1;
  s.par_axis = tensor::ParAxis::N;  // the long axis for EC shapes
  return s;
}

GemmCoder::GemmCoder(const gf::Matrix& coeffs)
    : GemmCoder(coeffs, default_coder_schedule()) {}

GemmCoder::GemmCoder(const gf::Matrix& coeffs, const tensor::Schedule& schedule)
    : w_(coeffs.field().w()),
      in_units_(coeffs.cols()),
      out_units_(coeffs.rows()),
      masks_(build_masks(coeffs)),
      blocks_(tensor::affine_blocks({masks_.data(), out_units_ * w_,
                                     in_units_ * w_, in_units_ * w_})),
      schedule_(schedule) {
  if (!schedule_.valid())
    throw std::invalid_argument("GemmCoder: invalid schedule");
}

void GemmCoder::set_schedule(const tensor::Schedule& schedule) {
  if (!schedule.valid())
    throw std::invalid_argument("GemmCoder: invalid schedule");
  schedule_ = schedule;
}

tensor::Schedule GemmCoder::schedule_for(std::size_t unit_size) const {
  if (!schedule_cache_) return schedule_;
  const auto hit = schedule_cache_->lookup(task_shape(unit_size));
  if (!hit) return schedule_;
  // The cache names the kernel shape; how many threads a call may fork
  // stays the caller's decision (a serially tuned winner must not
  // serialize a pool-wide coder, nor a pool-wide one widen a t1 path).
  tensor::Schedule s = hit->schedule;
  s.num_threads = schedule_.num_threads;
  s.par_axis = schedule_.par_axis;
  s.par_grain = schedule_.par_grain;
  return s;
}

tensor::MatView<const std::uint64_t> GemmCoder::block_view(
    std::size_t kw) const {
  if (blocks_.empty()) return {};
  return {blocks_.data(), (out_units_ * w_ + 7) / 8, (kw + 7) / 8,
          (in_units_ * w_ + 7) / 8};
}

tensor::Schedule GemmCoder::batch_schedule(std::size_t unit_size,
                                           int max_threads) const {
  tensor::Schedule s = schedule_for(unit_size);
  if (max_threads > 0) s.num_threads = std::min(s.num_threads, max_threads);
  return s;
}

void GemmCoder::do_apply(std::span<const std::uint8_t> in,
                         std::span<std::uint8_t> out,
                         std::size_t unit_size) const {
  run(in, out, unit_size, schedule_for(unit_size));
}

void GemmCoder::run(std::span<const std::uint8_t> in,
                    std::span<std::uint8_t> out, std::size_t unit_size,
                    const tensor::Schedule& schedule,
                    const tensor::CancelToken& cancel) const {
  // Callers guarantee aligned operands and a word-multiple packet size.
  const std::size_t packet_words = unit_size / w_ / 8;
  const std::size_t kw = in.size() / unit_size * w_;
  const std::size_t rw = out_units_ * w_;
  // The contiguous unit buffer *is* the packed B matrix: packet p of unit
  // u is row u*w + p, and rows are exactly packet_words apart. Leading
  // units alone (apply_leading) multiply A's leading kw columns, read at
  // A's full row stride, and so does the block form: the missing units'
  // zero rows add nothing.
  const tensor::MatView<const std::uint64_t> a{masks_.data(), rw, kw,
                                               in_units_ * w_};
  const tensor::MatView<const std::uint64_t> b{
      reinterpret_cast<const std::uint64_t*>(in.data()), kw, packet_words,
      packet_words};
  const tensor::MatView<std::uint64_t> c{
      reinterpret_cast<std::uint64_t*>(out.data()), rw, packet_words,
      packet_words};
  tensor::gemm_xorand(a, block_view(kw), b, c, schedule, cancel);
}

void GemmCoder::apply_leading(std::span<const std::uint8_t> in,
                              std::span<std::uint8_t> out,
                              std::size_t unit_size) const {
  const std::size_t units = unit_size == 0 ? 0 : in.size() / unit_size;
  if (units == 0 || units > in_units_ || units * unit_size != in.size())
    throw std::invalid_argument(name() + ": input must be 1 to " +
                                std::to_string(in_units_) + " whole units");
  if (units == in_units_) {
    apply(in, out, unit_size);
    return;
  }
  if (unit_size % (std::size_t{8} * w_) == 0 && word_aligned(in.data()) &&
      word_aligned(out.data()) && out.size() == out_units_ * unit_size) {
    if (!out.empty()) run(in, out, unit_size, schedule_for(unit_size));
    return;
  }
  // Off the word path (or a bad output size, which apply() rejects): the
  // missing units become zeros in scratch and the stripe takes apply()'s
  // road, staging copies included.
  tensor::AlignedBuffer<std::uint8_t> padded(in_units_ * unit_size);
  std::memcpy(padded.data(), in.data(), in.size());
  tensor::note_staging_copy(in.size());
  apply(padded.span(), out, unit_size);
}

void GemmCoder::apply_batch(std::span<const ec::CoderBatchItem> items,
                            int max_threads,
                            const tensor::CancelToken& cancel) const {
  std::vector<const ec::CoderBatchItem*> fast;
  std::vector<const ec::CoderBatchItem*> slow;
  fast.reserve(items.size());
  for (const ec::CoderBatchItem& item : items) {
    validate_apply_args(item.in, item.out, item.unit_size);
    if (item.out.empty()) continue;  // r == 0: nothing to compute
    const std::size_t pb = item.unit_size / w_;
    if (pb % 8 != 0 || !word_aligned(item.in.data()) ||
        !word_aligned(item.out.data())) {
      slow.push_back(&item);  // the staging path of apply() handles it
      continue;
    }
    fast.push_back(&item);
  }

  // schedule_for keeps this coder's thread knob, so whether the batch
  // runs serially is known before the schedule is resolved.
  const bool serial = schedule_.num_threads <= 1 || max_threads == 1;
  if (fast.size() > 1 && !serial) {
    // Many items for many threads: one wide-N GEMM packed from their
    // units by apply_scattered.
    std::vector<const std::uint8_t*> in_ptrs;
    std::vector<std::uint8_t*> out_ptrs;
    for (const ec::CoderBatchItem* item : fast) {
      for (std::size_t u = 0; u < in_units_; ++u)
        in_ptrs.push_back(item->in.data() + u * item->unit_size);
      for (std::size_t u = 0; u < out_units_; ++u)
        out_ptrs.push_back(item->out.data() + u * item->unit_size);
    }
    std::vector<ScatteredCoderItem> packed;
    for (std::size_t i = 0; i < fast.size(); ++i)
      packed.push_back({{&in_ptrs[i * in_units_], in_units_},
                        {&out_ptrs[i * out_units_], out_units_},
                        fast[i]->unit_size});
    apply_scattered(packed, max_threads, cancel);
  } else if (!fast.empty()) {
    // A lone item, or a serial batch (a wide N only gives threads work
    // to share): each item's contiguous units are its B and C, read and
    // written in place.
    const tensor::Schedule s =
        batch_schedule(items.front().unit_size, max_threads);
    for (const ec::CoderBatchItem* item : fast) {
      cancel.throw_if_cancelled();
      run(item->in, item->out, item->unit_size, s, cancel);
    }
  }
  for (const ec::CoderBatchItem* item : slow) {
    cancel.throw_if_cancelled();
    apply(item->in, item->out, item->unit_size);
  }
}

void GemmCoder::apply_scattered(std::span<const ScatteredCoderItem> items,
                                int max_threads,
                                const tensor::CancelToken& cancel) const {
  const std::size_t kw = in_units_ * w_;
  const std::size_t rw = out_units_ * w_;

  std::vector<const ScatteredCoderItem*> fast;
  std::vector<const ScatteredCoderItem*> slow;
  fast.reserve(items.size());
  std::size_t n_total = 0;
  for (const ScatteredCoderItem& item : items) {
    if (item.unit_size == 0 || item.unit_size % w_ != 0)
      throw std::invalid_argument(
          "apply_scattered: unit size must be a positive multiple of w");
    if (item.in.size() != in_units_ || item.out.size() != out_units_)
      throw std::invalid_argument("apply_scattered: wrong unit pointer count");
    for (const std::uint8_t* p : item.in)
      if (p == nullptr)
        throw std::invalid_argument("apply_scattered: null input unit");
    for (std::uint8_t* p : item.out)
      if (p == nullptr)
        throw std::invalid_argument("apply_scattered: null output unit");
    if (out_units_ == 0) continue;  // r == 0: nothing to compute
    const std::size_t pb = item.unit_size / w_;
    const bool qualified =
        pb % 8 == 0 &&
        std::all_of(item.in.begin(), item.in.end(), word_aligned) &&
        std::all_of(item.out.begin(), item.out.end(), word_aligned);
    if (qualified) {
      fast.push_back(&item);
      n_total += pb / 8;
    } else {
      slow.push_back(&item);
    }
  }

  if (!fast.empty()) {
    // Every qualified item contributes one fragment per packet row: row
    // u*w + p of the logical wide B matrix is, per item, packet p of unit
    // u in place in the caller's buffer. The scattered kernel gathers
    // these per cache panel — submit → kernel with zero staging copies.
    std::vector<tensor::Fragment<const std::uint64_t>> b_frags;
    std::vector<tensor::Fragment<std::uint64_t>> c_frags;
    b_frags.reserve(kw * fast.size());
    c_frags.reserve(rw * fast.size());
    for (std::size_t row = 0; row < kw; ++row) {
      const std::size_t u = row / w_;
      const std::size_t p = row % w_;
      for (const ScatteredCoderItem* item : fast) {
        const std::size_t pb = item->unit_size / w_;
        b_frags.push_back(
            {reinterpret_cast<const std::uint64_t*>(item->in[u] + p * pb),
             pb / 8});
      }
    }
    for (std::size_t row = 0; row < rw; ++row) {
      const std::size_t u = row / w_;
      const std::size_t p = row % w_;
      for (const ScatteredCoderItem* item : fast) {
        const std::size_t pb = item->unit_size / w_;
        c_frags.push_back(
            {reinterpret_cast<std::uint64_t*>(item->out[u] + p * pb), pb / 8});
      }
    }
    const tensor::MatView<const std::uint64_t> a{masks_.data(), rw, kw, kw};
    tensor::gemm_xorand_scattered(
        a, block_view(kw),
        tensor::ScatteredView<const std::uint64_t>(kw, n_total,
                                                   std::move(b_frags)),
        tensor::ScatteredView<std::uint64_t>(rw, n_total, std::move(c_frags)),
        batch_schedule(items.front().unit_size, max_threads), cancel);
  }

  // Degenerate items (misaligned pointers or sub-word packets) stage:
  // gather into contiguous scratch, apply, scatter back — every memcpy
  // visible in kernel_stage_stats.
  for (const ScatteredCoderItem* item : slow) {
    cancel.throw_if_cancelled();
    const std::size_t unit = item->unit_size;
    tensor::AlignedBuffer<std::uint8_t> in_stage(in_units_ * unit);
    tensor::AlignedBuffer<std::uint8_t> out_stage(out_units_ * unit);
    for (std::size_t u = 0; u < in_units_; ++u) {
      std::memcpy(in_stage.data() + u * unit, item->in[u], unit);
      tensor::note_staging_copy(unit);
    }
    apply(in_stage.span(), out_stage.span(), unit);
    for (std::size_t u = 0; u < out_units_; ++u) {
      std::memcpy(item->out[u], out_stage.data() + u * unit, unit);
      tensor::note_staging_copy(unit);
    }
  }
}

tune::TaskShape GemmCoder::task_shape(std::size_t unit_size) const {
  return tune::TaskShape{out_units_ * w_, unit_size / w_ / 8, in_units_ * w_};
}

tune::TuneResult GemmCoder::tune(std::size_t unit_size,
                                 const tune::TuneOptions& options,
                                 int max_threads) {
  const std::size_t quantum = std::size_t{8} * w_;
  if (unit_size == 0 || unit_size % quantum != 0)
    throw std::invalid_argument("tune: unit size must be multiple of 8*w");

  // Synthetic operands; contents do not affect timing (data-oblivious
  // kernel), but use real random bytes anyway.
  tensor::AlignedBuffer<std::uint8_t> data(in_units_ * unit_size);
  tensor::AlignedBuffer<std::uint8_t> parity(out_units_ * unit_size);
  std::mt19937_64 rng(0xEC);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(rng());

  const tune::SearchSpace space(task_shape(unit_size), max_threads);
  const double bytes = static_cast<double>(in_units_ * unit_size);
  // One warm-up, then the median of `repeats` timed runs back to back.
  const auto rate = [&](const tensor::Schedule& s, std::size_t repeats) {
    run(data.span(), parity.span(), unit_size, s);
    return bytes / tune::measure_seconds_median(
                       [&] { run(data.span(), parity.span(), unit_size, s); },
                       repeats);
  };
  // A search trial takes five runs (this box is noisy), a finalist's
  // sample three per round.
  const tune::MeasureFn measure = [&](const tensor::Schedule& s) {
    return rate(s, 5);
  };
  const tune::MeasureFn sample = [&](const tensor::Schedule& s) {
    return rate(s, 3);
  };
  tune::TuneResult result =
      tune::remeasure_finalists(tune::tune(space, measure, options), sample);
  if (result.best_throughput > 0) schedule_ = result.best_schedule;
  return result;
}

}  // namespace tvmec::core
