#pragma once

#include <memory>

#include "ec/bitmatrix_code.h"
#include "ec/encoder.h"
#include "gf/gf_matrix.h"
#include "tensor/buffer.h"
#include "tensor/cancel.h"
#include "tensor/schedule.h"
#include "tune/tuning_log.h"

/// The paper's contribution: erasure coding executed as a GEMM through
/// the ML-library substrate.
///
/// A coefficient matrix over GF(2^w) is expanded to its bitmatrix and
/// stored as broadcast masks (0 / ~0 per 64-bit lane), plus their 8x8
/// block form for the Gfni kernel tier (tensor::affine_blocks); input
/// units are viewed, without copying, as a packed (k*w) x d/(8w) word
/// matrix; and
/// the whole encode is one gemm_xorand call whose schedule (register
/// tiles, cache blocks, threads) comes from the autotuner — the direct
/// analogue of the paper's 40-line TVM implementation.
namespace tvmec::core {

/// One scattered-operand coding request: every unit lives behind its own
/// pointer (the Jerasure calling convention, and the natural shape of
/// survivors inside a stripe or payloads in unrelated client buffers).
/// `in` holds in_units() unit pointers, `out` holds out_units() unit
/// pointers, each pointing at `unit_size` bytes.
struct ScatteredCoderItem {
  std::span<const std::uint8_t* const> in;
  std::span<std::uint8_t* const> out;
  std::size_t unit_size = 0;
};

/// The schedule every GemmCoder, and so every Codec, starts from: the
/// representative tuned shape for EC task shapes (mt8x16, K unblocked,
/// N blocked by 512 words), what the autotuner converges to on
/// AVX-512-class hosts. One thread: a pool-wide default lost end to end
/// on the object store's 64 KiB stripes although the bare encode ran
/// faster; serve opens the knob per batch (default_service_schedule).
/// tensor::default_schedule() stays the untuned baseline a tuning
/// session must beat.
tensor::Schedule default_coder_schedule() noexcept;

class GemmCoder final : public ec::MatrixCoder {
 public:
  /// Expands the coefficient matrix; starts with default_coder_schedule().
  explicit GemmCoder(const gf::Matrix& coeffs);
  GemmCoder(const gf::Matrix& coeffs, const tensor::Schedule& schedule);

  std::size_t in_units() const noexcept override { return in_units_; }
  std::size_t out_units() const noexcept override { return out_units_; }
  std::string name() const override { return "tvm-ec"; }

  /// The coder's own schedule: what every call runs without a schedule
  /// cache or on a cache miss, and the source of the thread knobs.
  const tensor::Schedule& schedule() const noexcept { return schedule_; }
  /// Throws std::invalid_argument if the schedule is not supported.
  void set_schedule(const tensor::Schedule& schedule);

  /// Attaches the tuned-schedule store every later call reads (null
  /// detaches): each GEMM call then runs schedule_for(unit_size).
  void set_schedule_cache(std::shared_ptr<const tune::ScheduleCache> cache) {
    schedule_cache_ = std::move(cache);
  }
  const std::shared_ptr<const tune::ScheduleCache>& schedule_cache()
      const noexcept {
    return schedule_cache_;
  }
  /// The schedule a call at `unit_size` runs. On a cache hit for
  /// task_shape(unit_size) the entry supplies the kernel shape (tiles,
  /// cache blocks, variant) and this coder keeps its own thread knobs
  /// (num_threads, par_axis, par_grain); otherwise schedule(). A batched
  /// call resolves once, from its first item.
  tensor::Schedule schedule_for(std::size_t unit_size) const;

  /// apply() given only the leading c = in.size() / unit_size input
  /// units, 1 <= c <= in_units(); the missing trailing units are zero.
  /// On the word path (8-byte aligned spans, unit_size a multiple of
  /// 8*w) the GEMM runs at K = c*w in place, so no padding is read or
  /// multiplied. Otherwise the units are zero-padded into scratch and
  /// run through apply(), counted by tensor::kernel_stage_stats. Throws
  /// std::invalid_argument on no units, a partial unit, more than
  /// in_units() units, or apply()'s argument errors.
  void apply_leading(std::span<const std::uint8_t> in,
                     std::span<std::uint8_t> out,
                     std::size_t unit_size) const;

  /// Batched multi-request entry: apply() per item, with validation and
  /// the buffer contract exactly apply()'s. Items on the word path
  /// (8-byte aligned, whole-word packets) run in place when there is one
  /// of them or the schedule is serial; many of them under a parallel
  /// schedule go through apply_scattered as one wide-N GEMM, so the
  /// threads share one big N instead of many tiny ones. Degenerate
  /// items take apply()'s staging path. `max_threads` > 0 caps the
  /// schedule's thread knob for this batch. `cancel`, when valid, is
  /// polled between items and inside the kernel (tensor::gemm_xorand's
  /// contract); an observed flag throws tensor::Cancelled and leaves the
  /// batch's outputs indeterminate.
  void apply_batch(std::span<const ec::CoderBatchItem> items,
                   int max_threads = 0,
                   const tensor::CancelToken& cancel = {}) const;

  /// Zero-copy scattered entry: consumes pointer-per-unit operands
  /// directly. Items whose packets are whole 64-bit words and whose unit
  /// pointers are all 8-byte aligned become fragments of one wide-N
  /// scattered GEMM — the kernel's panel packing performs the gather in
  /// cache, no staging buffer exists at any layer. Degenerate items are
  /// gathered into contiguous scratch and run through apply() (counted by
  /// tensor::kernel_stage_stats). Semantically identical to gathering
  /// every item into contiguous buffers and calling apply_batch.
  /// `max_threads`/`cancel` follow apply_batch's contract.
  void apply_scattered(std::span<const ScatteredCoderItem> items,
                       int max_threads = 0,
                       const tensor::CancelToken& cancel = {}) const;

  /// Autotunes the encode for the given unit size on synthetic data and
  /// installs the winner as the coder's own schedule (the paper's §6.1
  /// measurement setup, with a configurable trial budget instead of
  /// 20 000). The search's top trials are re-measured back to back as
  /// finalists (tune::remeasure_finalists); best_throughput is the
  /// winner's re-measured rate, history the search's. Every trial times
  /// its own schedule; an attached cache is not consulted. `max_threads`
  /// caps the thread knob of the search space.
  tune::TuneResult tune(std::size_t unit_size,
                        const tune::TuneOptions& options, int max_threads);

  /// The GEMM task shape this coder executes for a given unit size:
  /// m = out_units*w, n = unit_size/(8w) words, k = in_units*w.
  tune::TaskShape task_shape(std::size_t unit_size) const;

  unsigned w() const noexcept { return w_; }

 protected:
  void do_apply(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
                std::size_t unit_size) const override;
  unsigned bit_sliced_w() const noexcept override { return w_; }

 private:
  /// One contiguous GEMM under `schedule`, in place (do_apply's body),
  /// over the in.size() / unit_size input units `in` holds: all
  /// in_units(), or apply_leading's leading ones.
  void run(std::span<const std::uint8_t> in, std::span<std::uint8_t> out,
           std::size_t unit_size, const tensor::Schedule& schedule,
           const tensor::CancelToken& cancel = {}) const;
  /// schedule_for(unit_size) with its thread knob capped by
  /// `max_threads` when positive (the batched entries' contract).
  tensor::Schedule batch_schedule(std::size_t unit_size,
                                  int max_threads) const;
  /// blocks_ viewed for a GEMM over the leading `kw` columns of A.
  tensor::MatView<const std::uint64_t> block_view(std::size_t kw) const;

  unsigned w_;
  std::size_t in_units_;
  std::size_t out_units_;
  tensor::AlignedBuffer<std::uint64_t> masks_;  // (out*w) x (in*w) broadcast
  tensor::AlignedBuffer<std::uint64_t> blocks_;  // affine_blocks(masks_)
  tensor::Schedule schedule_;
  std::shared_ptr<const tune::ScheduleCache> schedule_cache_;
};

}  // namespace tvmec::core
