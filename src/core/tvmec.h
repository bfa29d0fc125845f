#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/gemm_coder.h"
#include "core/plan_cache.h"
#include "ec/code_params.h"
#include "ec/decoder.h"
#include "ec/lrc.h"
#include "ec/reed_solomon.h"
#include "tensor/buffer.h"

/// The public TVM-EC API: one codec for every systematic linear code —
/// Reed-Solomon and Azure-style LRC today — whose encode and decode both
/// execute as autotuned GEMMs (paper §8: "all linear codes can be
/// developed via a highly optimized GEMM routine"). A code is its
/// generator matrix plus its decode planner; everything else is shared.
///
/// Layout contract (paper §5): the codec works on *contiguous* unit
/// buffers — k units back to back for encode, n units back to back for a
/// stripe being decoded. The Jerasure-style pointer API, encode_scattered,
/// hands the unit pointers to the scattered GEMM kernel, which folds the
/// gather into its panel packing and touches no staging buffer at all:
/// the memcpy overhead the paper quantifies (up to 84%) never happens.
/// (bench_memcpy_overhead times the staged gather as E2's baseline.)
/// Decode reads survivors and writes recovered units in place in the
/// stripe the same way.
/// Not thread-safe: decode caches per-plan coders.
namespace tvmec::core {

class Codec {
 public:
  /// A Reed-Solomon code: builds the generator and the GEMM encoder.
  /// Throws std::invalid_argument on invalid parameters.
  explicit Codec(const ec::CodeParams& params,
                 ec::RsFamily family = ec::RsFamily::CauchyGood);

  /// An LRC(k, l, g): r = l + g parities (l local, then g global). A
  /// single lost data unit or local parity decodes from its group alone.
  /// Throws std::invalid_argument on invalid parameters.
  explicit Codec(const ec::LrcParams& params);

  /// k data units, r parity units, field GF(2^w). For an LRC this is the
  /// shape {k, l + g, w}, which need not satisfy CodeParams::validate
  /// (an LRC only needs k + g field points).
  const ec::CodeParams& params() const noexcept { return params_; }
  /// The full n x k generator (identity on top); row i generates unit i.
  const gf::Matrix& generator() const noexcept { return generator_; }
  /// The r x k parity block (rows k..n-1 of the generator).
  gf::Matrix parity_matrix() const;
  const GemmCoder& encoder() const noexcept { return encode_coder_; }

  /// The decode plan for losing `erased` (any order, duplicates allowed)
  /// — the one place a loss pattern becomes a plan. `preferred` restricts
  /// and orders the survivors the plan may read (see
  /// ec::make_decode_plan); with none, an LRC reads a lone lost data unit
  /// or local parity from its group alone. Served from the shared
  /// PlanCache when one is installed, else from the codec's own, so
  /// nothing is planned twice. Null means the pattern is
  /// unrecoverable (with that preference). Throws std::invalid_argument
  /// on an empty pattern or an out-of-range id. Thread-safe.
  std::shared_ptr<const ec::DecodePlan> plan(
      std::vector<std::size_t> erased,
      std::vector<std::size_t> preferred = {}) const;

  /// Encodes contiguous data units into r contiguous parity units.
  /// `data` holds k units, or a short stripe's leading c (1 <= c <= k):
  /// the missing trailing units are zero, and on the word path only the
  /// c given units are multiplied (GemmCoder::apply_leading). unit_size
  /// must be a positive multiple of w bytes. 8-byte-aligned spans with
  /// unit_size a multiple of 8*w run in place; anything else is staged
  /// through aligned scratch (tensor::kernel_stage_stats). Throws
  /// std::invalid_argument on empty data, a partial unit, more than k
  /// units, a bad unit size or a parity span other than r units.
  void encode(std::span<const std::uint8_t> data,
              std::span<std::uint8_t> parity, std::size_t unit_size) const;

  /// Batched encode (the serving-layer entry point): each item is an
  /// independent (data, parity, unit_size) request. A lone aligned item,
  /// or every item under a serial schedule, runs in place; many aligned
  /// items under a parallel schedule run as one wide-N GEMM packed from
  /// their buffers (GemmCoder::apply_batch). `max_threads` > 0 caps the
  /// schedule's thread knob for this batch so concurrent batches can
  /// share the pool. Thread-safe: encode state is immutable.
  /// `cancel`, when valid, is polled at tile-chunk granularity inside
  /// the kernel; an observed flag throws tensor::Cancelled and leaves
  /// the batch's parity outputs indeterminate.
  void encode_batch(std::span<const ec::CoderBatchItem> items,
                    int max_threads = 0,
                    const tensor::CancelToken& cancel = {}) const;

  /// Jerasure-shaped pointer API: units live behind k + r separate
  /// pointers, and the scattered GEMM kernel consumes them in place, so
  /// no staging buffer exists between the caller's memory and the
  /// microkernels. Pointers that do not satisfy
  /// the word fast path (8-byte alignment, whole-word packets) fall back
  /// to a staged copy per unit (visible in tensor::kernel_stage_stats).
  /// Thread-safe: encode state is immutable.
  void encode_scattered(const std::vector<const std::uint8_t*>& data,
                        const std::vector<std::uint8_t*>& parity,
                        std::size_t unit_size) const;

  /// Recovers the erased units of a full stripe (n contiguous units) in
  /// place. Erased ids may name data and/or parity units; at most r.
  /// Throws std::invalid_argument on bad ids, std::runtime_error if the
  /// pattern is unrecoverable (more than r erasures, or — for an LRC,
  /// which is not MDS — a pattern no survivor subset can recover).
  void decode(std::span<std::uint8_t> stripe,
              std::span<const std::size_t> erased_ids, std::size_t unit_size);

  /// Runs `plan` (from plan()) on a full stripe (n contiguous units) in
  /// place: reads the plan's survivors, writes its erased units, and
  /// touches no other unit, so only the survivors need hold bytes.
  /// Throws std::invalid_argument on a stripe other than n units.
  void decode(std::span<std::uint8_t> stripe, const ec::DecodePlan& plan,
              std::size_t unit_size);

  /// One request of a batched decode: a full stripe repaired in place.
  struct DecodeBatchItem {
    std::span<std::uint8_t> stripe;
    std::span<const std::size_t> erased_ids;
    std::size_t unit_size = 0;
  };

  /// Batched decode: items are grouped by (normalized) erasure pattern,
  /// and each group's recoveries execute as a single batched GEMM over
  /// the shared recovery matrix. decode() is the single-item special
  /// case. Error contract per item matches decode(); a throwing item
  /// aborts the batch (callers wanting isolation run items singly).
  /// Not thread-safe (shares the decode-coder cache).
  /// Cancellation (tensor::Cancelled) may abort between or inside
  /// pattern groups: completed groups' stripes are repaired, the
  /// aborted group's stripes are left with their holes.
  void decode_batch(std::span<const DecodeBatchItem> items,
                    int max_threads = 0,
                    const tensor::CancelToken& cancel = {});

  /// Small-write optimization: replaces data unit `unit_id` and patches
  /// every parity in place using the code's linearity,
  ///   P'_i = P_i xor C[i][unit] (x) (old xor new),
  /// reading only the changed unit and the r parities instead of all k
  /// data units (the other data units of `stripe` are not touched, so a
  /// block-layer caller fills only those). The delta itself runs through
  /// the GEMM path (an r*w x w bitmatrix against the delta unit). Throws
  /// std::invalid_argument on a parity unit_id or size mismatch.
  void update_unit(std::span<std::uint8_t> stripe, std::size_t unit_id,
                   std::span<const std::uint8_t> new_data,
                   std::size_t unit_size);

  /// Autotunes the encode schedule (see GemmCoder::tune).
  tune::TuneResult tune(std::size_t unit_size,
                        const tune::TuneOptions& options, int max_threads);

  /// Installs a schedule directly (e.g. a single-thread schedule for
  /// CPU-utilization experiments). Drops the cached decode and delta
  /// coders so every later decode and update runs on it too.
  void set_schedule(const tensor::Schedule& schedule) {
    encode_coder_.set_schedule(schedule);
    decode_cache_.clear();
    delta_coders_.clear();
  }

  /// Attaches a tuned-schedule store (TVM's tuning-records workflow:
  /// ScheduleCache::load a log, attach it). The encode coder and every
  /// decode and delta coder built from then on look up each GEMM call's
  /// schedule by task shape (GemmCoder::schedule_for); set_schedule's
  /// schedule still supplies the thread knobs and every miss. Null
  /// detaches. Thread-safe to read from concurrent encodes.
  void set_schedule_cache(std::shared_ptr<const tune::ScheduleCache> cache) {
    encode_coder_.set_schedule_cache(std::move(cache));
    decode_cache_.clear();
    delta_coders_.clear();
  }

  /// Number of distinct plans with cached decode coders.
  std::size_t decode_cache_size() const noexcept {
    return decode_cache_.size();
  }

  /// Installs a shared decode-plan cache: plan() consults it instead of
  /// the codec's own, so repeated loss patterns — across this codec,
  /// other codecs of the same code, the serve workers, and the cluster's
  /// reads and repairs — skip matrix inversion entirely. Per-plan
  /// GemmCoders stay local (they carry this codec's schedule); only the
  /// expensive plan is shared. Null detaches, back to the codec's own.
  /// Clears decode()'s plans so the new cache sees later patterns.
  void set_plan_cache(std::shared_ptr<PlanCache> cache) {
    plan_cache_ = std::move(cache);
    pattern_plans_.clear();
  }
  const std::shared_ptr<PlanCache>& plan_cache() const noexcept {
    return plan_cache_;
  }

 private:
  /// The decode coder that runs `plan`, built on its first use.
  GemmCoder& decode_coder(const ec::DecodePlan& plan);

  /// Sorted, deduplicated, range-checked loss pattern (the canonical key
  /// of both plan caches). Throws invalid_argument on out-of-range ids.
  std::vector<std::size_t> normalize_erasures(
      std::span<const std::size_t> erased_ids) const;

  ec::CodeParams params_;
  /// Set for an LRC: its planner answers a single local loss from the
  /// unit's group.
  std::optional<ec::Lrc> lrc_;
  gf::Matrix generator_;
  /// The exact code identity PlanKey::code carries.
  std::vector<std::uint32_t> code_id_;
  GemmCoder encode_coder_;
  /// Per-plan decode coders, keyed by the erased and survivor ids that
  /// fix the plan's recovery matrix. Every change to the schedule they
  /// carry (set_schedule, set_schedule_cache, tune) drops them.
  std::map<std::pair<std::vector<std::size_t>, std::vector<std::size_t>>,
           std::unique_ptr<GemmCoder>>
      decode_cache_;
  std::shared_ptr<PlanCache> plan_cache_;
  /// plan()'s cache while no shared one is installed.
  std::unique_ptr<PlanCache> own_plans_ = std::make_unique<PlanCache>();
  /// decode()'s plan per loss pattern: a repeat asks no plan cache.
  std::map<std::vector<std::size_t>, std::shared_ptr<const ec::DecodePlan>>
      pattern_plans_;
  /// Per-data-unit r x 1 delta coders for update_unit (lazy).
  std::vector<std::unique_ptr<GemmCoder>> delta_coders_;
  /// update_unit's delta and parity-delta scratch.
  tensor::AlignedBuffer<std::uint8_t> staging_;
};

}  // namespace tvmec::core
