#pragma once

#include <cstdint>

#include "tensor/buffer.h"
#include "tensor/cancel.h"
#include "tensor/schedule.h"
#include "tensor/semiring.h"

/// Schedule-driven blocked GEMM execution over a semiring.
///
/// `gemm_*` computes C = A (x) B (overwriting C) where (x) is the
/// semiring's combine/reduce pair:
///   - `gemm_sumprod_*`: ordinary matrix multiplication (the ML workload),
///   - `gemm_xorand`:    bitmatrix erasure coding (paper Listing 2) with
///                       A holding broadcast masks (0 or ~0ull) and B
///                       holding packed data words.
///
/// The executor applies the Schedule's cache blocking, register tiling
/// (dispatching to the template-instantiated microkernel menu) and thread
/// parallelism. Every entry runs the same blocked loop nest;
/// gemm_xorand_scattered (tensor/scattered.h) is that loop with its
/// fragmented operands packed per cache panel. `gemm_naive_*` are the
/// unoptimized Listing-1/2 triple loops used as correctness references
/// and as the "what you'd write without an ML library" baseline.
namespace tvmec::tensor {

/// Shapes must satisfy: A is MxK, B is KxN, C is MxN (each view's
/// rows/cols, with arbitrary strides). Throws std::invalid_argument on
/// mismatch or an unsupported schedule.
///
/// `cancel`, when valid, is polled at tile-chunk granularity (between
/// the chunks the schedule's partitioning hands to the pool, and before
/// each cache block along N; an unblocked N is cut into 4096-word blocks
/// just for the poll, so even a one-thread run observes cancellation
/// mid-matrix). An observed flag throws Cancelled; C is then partially
/// written and must be treated as garbage by the caller.
///
/// A call that resolves to the Gfni tier derives A's block form
/// (affine_blocks) per call, one scan of A; callers that hold it pass it
/// to the overload below instead.
void gemm_xorand(MatView<const std::uint64_t> a, MatView<const std::uint64_t> b,
                 MatView<std::uint64_t> c, const Schedule& schedule,
                 const CancelToken& cancel = {});

/// A's 8x8 block form, the A operand of the Gfni tier: A zero-padded to
/// multiples of 8 rows and columns, one gf2p8affineqb matrix qword per
/// 8x8 block, ceil(M/8) x ceil(K/8) row-major. Byte 7 - i of block
/// (I, J) holds row 8I + i of the block, column 8J + s in bit s. Empty
/// when A is empty or some word of A is neither 0 nor ~0 (such an A has
/// no block form, and the tier runs its AVX-512 XorAnd fallback), and on
/// a host without the tier, which never reads it. Derived by the tier's
/// own TU, one vector test per 8 words of A.
AlignedBuffer<std::uint64_t> affine_blocks(MatView<const std::uint64_t> a);

/// gemm_xorand with A's block form supplied by the caller. `blocks`
/// views affine_blocks of A, or of a wider matrix whose leading K
/// columns A is (B's zero padding rows make the extra columns inert), as
/// ceil(M/8) x ceil(K/8) at any stride; a null view means A has none.
/// Only the Gfni tier reads it. Throws std::invalid_argument when a
/// Gfni call's view has the wrong shape.
void gemm_xorand(MatView<const std::uint64_t> a,
                 MatView<const std::uint64_t> blocks,
                 MatView<const std::uint64_t> b, MatView<std::uint64_t> c,
                 const Schedule& schedule, const CancelToken& cancel = {});

/// True when an XorAnd GEMM of broadcast masks (every coder call) on the
/// concrete tier `v` runs the tiled road, which reads every schedule
/// knob. False on the Gfni tier, whose road (DESIGN §4g) reads only
/// block_n and the thread knobs: it keeps every output group in its C
/// panel whatever tile_m, walks all of K per n-block whatever block_k,
/// and always partitions N whatever par_axis; tile_n only sets the unit
/// of the threaded N split.
constexpr bool tiled_road(KernelVariant v) noexcept {
  return v != KernelVariant::Gfni;
}

/// Observability for the §5 staging tax and kernel scratch usage.
///
/// `stage_copies`/`stage_bytes` count memcpys whose only purpose is to
/// re-home operand bytes so a kernel can consume them (pointer-gather
/// staging, degenerate-alignment fallbacks). The zero-copy scattered paths
/// never bump them — panel packing inside the tiled loop is the kernel's
/// own cache blocking, not staging — so a test can assert a submit→result
/// flow performed zero staging copies. `scratch_high_water_bytes` is the
/// largest single scratch acquisition any kernel call requested.
/// Counters are process-wide, monotonic, and relaxed-atomic.
struct KernelStageStats {
  std::uint64_t stage_copies = 0;
  std::uint64_t stage_bytes = 0;
  std::uint64_t scratch_high_water_bytes = 0;
};

KernelStageStats kernel_stage_stats() noexcept;

/// Records one staging memcpy of `bytes` bytes. Called by every layer that
/// still stages (GemmCoder's staged scattered items, ec::Encoder's
/// padded-packet fallback), so the counter means the same thing from the
/// kernel tier up.
void note_staging_copy(std::size_t bytes) noexcept;

/// Kernel scratch retained per thread is capped at this many bytes;
/// requests beyond it are served from a transient allocation owned by the
/// calling frame instead, so one giant batch can't pin memory for the
/// life of a worker thread.
inline constexpr std::size_t kScratchRetainBytes = std::size_t{1} << 20;

/// Bytes of kernel scratch currently retained by the calling thread
/// (test hook for the retention cap).
std::size_t kernel_scratch_retained_bytes() noexcept;

void gemm_sumprod_i64(MatView<const std::int64_t> a,
                      MatView<const std::int64_t> b, MatView<std::int64_t> c,
                      const Schedule& schedule);

/// Single-precision GEMM — the kernel shape ML inference actually runs.
/// Exists to demonstrate (and test) that the identical schedule/microkernel
/// machinery serves both the ML workload and the erasure code, which is
/// the paper's whole premise.
void gemm_sumprod_f32(MatView<const float> a, MatView<const float> b,
                      MatView<float> c, const Schedule& schedule);

/// Reference implementations: the unoptimized triple loop.
void gemm_naive_xorand(MatView<const std::uint64_t> a,
                       MatView<const std::uint64_t> b,
                       MatView<std::uint64_t> c);

void gemm_naive_sumprod_i64(MatView<const std::int64_t> a,
                            MatView<const std::int64_t> b,
                            MatView<std::int64_t> c);

void gemm_naive_sumprod_f32(MatView<const float> a, MatView<const float> b,
                            MatView<float> c);

}  // namespace tvmec::tensor
