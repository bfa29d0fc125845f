#include "tensor/kernel.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <stdexcept>
#include <utility>

#include "tensor/microkernel.h"
#include "tensor/scattered.h"
#include "tensor/threadpool.h"
#include "tensor/xorand_kernels.h"

namespace tvmec::tensor {

namespace {

std::atomic<std::uint64_t> g_stage_copies{0};
std::atomic<std::uint64_t> g_stage_bytes{0};
std::atomic<std::uint64_t> g_scratch_hwm{0};

void raise_scratch_hwm(std::size_t bytes) {
  std::uint64_t prev = g_scratch_hwm.load(std::memory_order_relaxed);
  while (prev < bytes && !g_scratch_hwm.compare_exchange_weak(
                             prev, bytes, std::memory_order_relaxed)) {
  }
}

thread_local AlignedBuffer<std::uint64_t> tl_scratch;

/// Returns >= `words` of kernel scratch. Small requests reuse (and
/// geometrically grow) the thread-retained buffer, but retention is capped
/// at kScratchRetainBytes: anything larger lands in `overflow`, an
/// AlignedBuffer owned by the calling frame and freed on return, so one
/// giant batch can't pin scratch for the life of a worker thread.
std::uint64_t* acquire_scratch(std::size_t words,
                               AlignedBuffer<std::uint64_t>& overflow) {
  raise_scratch_hwm(words * sizeof(std::uint64_t));
  constexpr std::size_t kRetainWords =
      kScratchRetainBytes / sizeof(std::uint64_t);
  if (words > kRetainWords) {
    overflow = AlignedBuffer<std::uint64_t>(words);
    return overflow.data();
  }
  if (tl_scratch.size() < words)
    tl_scratch = AlignedBuffer<std::uint64_t>(
        std::min(kRetainWords, std::max(words, tl_scratch.size() * 2)));
  return tl_scratch.data();
}

/// Dispatch-table index of a tile extent: log2, since every supported
/// extent is a power of two (Schedule::valid() checked it before any
/// kernel runs).
std::size_t tile_index(int t) {
  return static_cast<std::size_t>(std::countr_zero(static_cast<unsigned>(t)));
}

template <class S>
using MicroFn = void (*)(const typename S::value_type*, std::size_t,
                         const typename S::value_type*, std::size_t,
                         typename S::value_type*, std::size_t, std::size_t);

/// The "generated code" menu: one fully unrolled microkernel per
/// (tile_m, tile_n) pair in the schedule search space.
template <class S>
constexpr std::array<std::array<MicroFn<S>, 7>, 4> make_dispatch() {
  return {{
      {{&micro_gemm<S, 1, 1>, &micro_gemm<S, 1, 2>, &micro_gemm<S, 1, 4>,
        &micro_gemm<S, 1, 8>, &micro_gemm<S, 1, 16>, &micro_gemm<S, 1, 32>,
        &micro_gemm<S, 1, 64>}},
      {{&micro_gemm<S, 2, 1>, &micro_gemm<S, 2, 2>, &micro_gemm<S, 2, 4>,
        &micro_gemm<S, 2, 8>, &micro_gemm<S, 2, 16>, &micro_gemm<S, 2, 32>,
        &micro_gemm<S, 2, 64>}},
      {{&micro_gemm<S, 4, 1>, &micro_gemm<S, 4, 2>, &micro_gemm<S, 4, 4>,
        &micro_gemm<S, 4, 8>, &micro_gemm<S, 4, 16>, &micro_gemm<S, 4, 32>,
        &micro_gemm<S, 4, 64>}},
      {{&micro_gemm<S, 8, 1>, &micro_gemm<S, 8, 2>, &micro_gemm<S, 8, 4>,
        &micro_gemm<S, 8, 8>, &micro_gemm<S, 8, 16>, &micro_gemm<S, 8, 32>,
        &micro_gemm<S, 8, 64>}},
  }};
}

/// Picks the microkernel for one (schedule, semiring) pair. XorAnd64 —
/// the erasure-coding semiring — dispatches through the runtime variant
/// tier: the schedule's variant knob resolved against CPUID detection
/// and any TVMEC_FORCE_VARIANT override (tensor/variant.h), so the same
/// binary runs vpternlogq on an AVX-512 host and the portable tile on a
/// machine that lacks it. Other semirings keep the template menu (their
/// codegen is whatever this TU was compiled with, which is safe by
/// construction: no per-file target flags apply here).
template <class S>
MicroFn<S> select_micro(const Schedule& s) {
  const std::size_t mi = tile_index(s.tile_m);
  const std::size_t ni = tile_index(s.tile_n);
  if constexpr (std::is_same_v<S, XorAnd64>) {
    return xorand_table(resolve_variant(s.variant))->fn[mi][ni];
  } else {
    static constexpr auto kDispatch = make_dispatch<S>();
    return kDispatch[mi][ni];
  }
}

/// N extent of one in-place block when N is unblocked and the call is
/// cancellable: the poll per block and the block's re-entry amortize to
/// well under a percent even for small serving-sized operands, while a
/// whole-N block could run for milliseconds (one batch-service time)
/// between polls. A multiple of every supported tile_n.
constexpr std::size_t kCancelBlockWords = 4096;

/// The Gfni road of one XorAnd call: the tier's kernels and A's block
/// form (affine_blocks), or null kernels when the call runs the XorAnd
/// microkernels.
struct GfniRoad {
  const GfniKernels* kernels = nullptr;
  MatView<const std::uint64_t> blocks;
};

std::size_t round_up8(std::size_t x) { return (x + 7) / 8 * 8; }

/// Operand kinds of the one blocked loop. A MatView is read or written
/// in place through its stride; a ScatteredView is packed: its panels
/// are gathered from (or scattered to) its fragments.
template <class Op>
inline constexpr bool kPacked = false;
template <class T>
inline constexpr bool kPacked<ScatteredView<T>> = true;

template <class T>
std::pair<std::size_t, std::size_t> shape_of(const MatView<T>& v) {
  v.validate();
  return {v.rows, v.cols};
}
/// A ScatteredView checked its invariants when it was built.
template <class T>
std::pair<std::size_t, std::size_t> shape_of(const ScatteredView<T>& v) {
  return {v.rows(), v.cols()};
}

/// Throws std::invalid_argument unless A is MxK, B is KxN and C is MxN;
/// returns N.
template <class S, class BOp, class COp>
std::size_t validate_shapes(MatView<const typename S::value_type> a,
                            const BOp& b, const COp& c) {
  const auto [m, k] = shape_of(a);
  const auto [b_rows, b_cols] = shape_of(b);
  const auto [c_rows, c_cols] = shape_of(c);
  if (m != c_rows || b_cols != c_cols || k != b_rows)
    throw std::invalid_argument("gemm: A(MxK) B(KxN) C(MxN) shape mismatch");
  return c_cols;
}

/// Executes the output block [m0, m1) x [n0, n1) of C under the given
/// schedule: the one blocked loop every GEMM entry runs. Workers own
/// disjoint C blocks, so this is the unit of parallel work as well as
/// the serial whole-matrix path. Per n-block, a packed B is gathered
/// into a cache-resident panel once per k-block (the packing step of the
/// tiled loop: each source word is read once, while it is still warm
/// for the microkernels), and a packed C accumulates in a panel that is
/// scattered out once. In-place operands are read and written through
/// their strides, so the all-in-place instantiation takes no scratch.
/// `cancel` is polled once per n-block; with a valid token an unblocked
/// in-place N is cut into kCancelBlockWords blocks, so even a one-thread
/// run observes cancellation mid-matrix.
///
/// On the Gfni road (a non-null `gfni.kernels`, XorAnd only; the
/// dispatcher hands it all of M) C always accumulates in a byte-element
/// panel, and B has none: per n-block the tier's multiply step walks all
/// of K in pairs of 8-row groups, transposing each pair in registers
/// and XORing its products into every output group of the C panel, and
/// the n-block's C is transposed back on store. Rows are read and
/// written where they live; only a row range that straddles fragments
/// goes through a 16-row panel. K and M are zero-padded to 8-row
/// groups, the columns and rows of A's block form; tile_m, tile_n and
/// block_k do not shape the road.
template <class S, class BOp, class COp>
void run_block(MatView<const typename S::value_type> a, const GfniRoad& gfni,
               const BOp& b, const COp& c, const Schedule& s, std::size_t m0,
               std::size_t m1, std::size_t n0, std::size_t n1,
               const CancelToken& cancel) {
  using V = typename S::value_type;
  constexpr bool kXorAnd = std::is_same_v<S, XorAnd64>;
  constexpr bool kPackB = kPacked<BOp>;
  constexpr bool kPackC = kPacked<COp>;
  const GfniKernels* const gk = gfni.kernels;
  const MicroFn<S> micro = gk ? nullptr : select_micro<S>(s);
  const std::size_t tm = static_cast<std::size_t>(s.tile_m);
  const std::size_t tn = static_cast<std::size_t>(s.tile_n);
  const std::size_t k = a.cols;
  const std::size_t rows = m1 - m0;
  const std::size_t block_k = s.block_k == 0 ? k : std::min(s.block_k, k);

  std::size_t block_n = s.block_n;
  V* b_panel = nullptr;
  V* c_panel = nullptr;
  V* row_panel = nullptr;  // Gfni road: 16 rows that straddle fragments
  AlignedBuffer<std::uint64_t> overflow;
  if constexpr (kXorAnd) {
    // A materialized n-block cannot mean "whole N" when block_n == 0: a
    // full-width panel would be the staging buffer the packed road
    // exists to avoid. Size it so the panels stay cache-resident.
    constexpr std::size_t kPanelBudgetWords =
        (std::size_t{1} << 18) / sizeof(std::uint64_t);  // 256 KiB
    std::size_t b_words = 0;
    std::size_t c_words = 0;
    std::size_t row_words = 0;
    if (gk) {
      // The C panel holds byte elements of whole 8-row groups.
      const std::size_t c_rows = round_up8(rows);
      block_n = round_up8(std::max<std::size_t>(
          block_n != 0 ? block_n
                       : kPanelBudgetWords / std::max<std::size_t>(c_rows, 8),
          1));
      c_words = c_rows * block_n;
      row_words = kPackB || kPackC ? 16 * block_n : 0;
    } else if (kPackB || kPackC) {
      if (block_n == 0)
        block_n = kPanelBudgetWords / (block_k + rows) / tn * tn;
      block_n = std::max(block_n, tn);
      b_words = kPackB ? block_k * block_n : 0;
      c_words = kPackC ? rows * block_n : 0;
    }
    if (c_words > 0 || b_words > 0) {
      b_panel = acquire_scratch(b_words + c_words + row_words, overflow);
      c_panel = b_panel + b_words;
      row_panel = c_panel + c_words;
    }
  }
  if (block_n == 0) block_n = cancel.valid() ? kCancelBlockWords : n1 - n0;

  for (std::size_t nb = n0; nb < n1; nb += block_n) {
    cancel.throw_if_cancelled();
    const std::size_t nn_blk = std::min(n1 - nb, block_n);
    if constexpr (kXorAnd) {
      if (gk) {
        // Words between the C panel's 8-row groups.
        const std::size_t group_words = 8 * round_up8(nn_blk);
        for (std::size_t r = 0; r < k; r += 16) {
          const std::size_t nr = std::min<std::size_t>(16, k - r);
          const V* src[16] = {};
          for (std::size_t t = 0; t < nr; ++t) {
            if constexpr (kPackB) {
              const std::size_t pos = (r + t) * b.cols() + nb;
              src[t] = b.find_contiguous(pos, nn_blk);
              if (src[t] == nullptr) {
                b.gather(pos, nn_blk, row_panel + t * nn_blk);
                src[t] = row_panel + t * nn_blk;
              }
            } else {
              src[t] = b.row(r + t) + nb;
            }
          }
          gk->multiply(src, nr, nn_blk, gfni.blocks.row(m0 / 8) + r / 8,
                       gfni.blocks.stride, (rows + 7) / 8, c_panel,
                       group_words, r > 0);
        }
        for (std::size_t i = 0; i < rows; i += 8) {
          const std::size_t nr = std::min<std::size_t>(8, rows - i);
          V* dst[8] = {};
          for (std::size_t t = 0; t < nr; ++t) {
            if constexpr (kPackC) {
              dst[t] = c.find_contiguous((m0 + i + t) * c.cols() + nb, nn_blk);
              if (dst[t] == nullptr) dst[t] = row_panel + t * nn_blk;
            } else {
              dst[t] = c.row(m0 + i + t) + nb;
            }
          }
          gk->unpack(c_panel + i / 8 * group_words, nr, nn_blk, dst);
          if constexpr (kPackC)
            for (std::size_t t = 0; t < nr; ++t)
              if (dst[t] == row_panel + t * nn_blk)
                c.scatter((m0 + i + t) * c.cols() + nb, nn_blk, dst[t]);
        }
        continue;
      }
    }
    // This n-block of C: element (i, j) at c_blk[(i - m0) * ldc + j - nb].
    V* c_blk = c_panel;
    std::size_t ldc = nn_blk;
    if constexpr (!kPackC) {
      c_blk = c.row(m0) + nb;
      ldc = c.stride;
    }
    // Zero the block once; k-blocks then accumulate into it.
    for (std::size_t i = 0; i < rows; ++i)
      std::fill_n(c_blk + i * ldc, nn_blk, S::zero());

    for (std::size_t kb = 0; kb < k; kb += block_k) {
      const std::size_t kk = std::min(k - kb, block_k);
      // This (k-block, n-block) of B: element (r, j) at
      // b_blk[(r - kb) * ldb + j - nb].
      const V* b_blk = b_panel;
      std::size_t ldb = nn_blk;
      if constexpr (kPackB) {
        for (std::size_t r = 0; r < kk; ++r)
          b.gather((kb + r) * b.cols() + nb, nn_blk, b_panel + r * nn_blk);
      } else {
        b_blk = b.row(kb) + nb;
        ldb = b.stride;
      }
      for (std::size_t i = m0; i < m1; i += tm) {
        const std::size_t mm = std::min(tm, m1 - i);
        const V* a_ptr = a.row(i) + kb;
        V* c_row = c_blk + (i - m0) * ldc;
        for (std::size_t j = 0; j < nn_blk; j += tn) {
          const std::size_t nn = std::min(tn, nn_blk - j);
          if (mm == tm && nn == tn) {
            micro(a_ptr, a.stride, b_blk + j, ldb, c_row + j, ldc, kk);
          } else {
            micro_gemm_edge<S>(a_ptr, a.stride, b_blk + j, ldb, c_row + j,
                               ldc, kk, mm, nn);
          }
        }
      }
    }

    if constexpr (kPackC)
      for (std::size_t i = 0; i < rows; ++i)
        c.scatter((m0 + i) * c.cols() + nb, nn_blk, c_panel + i * nn_blk);
  }
}

/// One axis split into tile-aligned chunks with the remainder spread
/// evenly: chunk sizes differ by at most one tile and no chunk is empty.
struct AxisChunks {
  std::size_t tiles = 0;   // total register tiles along the axis
  std::size_t chunks = 0;  // number of work chunks
  std::size_t tile = 0;    // tile extent in elements
  std::size_t extent = 0;  // axis extent in elements

  /// Element range [begin, end) of chunk c. Only valid for c < chunks
  /// (chunks >= 1 whenever the axis is non-empty, so no division by
  /// zero can occur for dispatched work).
  std::pair<std::size_t, std::size_t> range(std::size_t c) const {
    const std::size_t base = tiles / chunks;
    const std::size_t rem = tiles % chunks;
    const std::size_t t0 = c * base + std::min(c, rem);
    const std::size_t t1 = t0 + base + (c < rem ? 1 : 0);
    return {t0 * tile, std::min(extent, t1 * tile)};
  }
};

/// Carves `extent` into chunks of ~`grain` tiles (0 = auto: enough chunks
/// that the pool's dynamic claiming can balance load, a few per thread).
/// Degenerate shapes stay well-defined: an empty axis yields zero chunks
/// (nothing is dispatched), and an axis smaller than the grain yields a
/// single chunk covering it — never an empty range and never a
/// division by zero in range().
AxisChunks make_axis_chunks(std::size_t extent, std::size_t tile,
                            std::size_t grain, std::size_t threads) {
  AxisChunks ax;
  ax.tile = tile;
  ax.extent = extent;
  ax.tiles = (extent + tile - 1) / tile;
  if (ax.tiles == 0) {
    ax.chunks = 0;
    return ax;
  }
  constexpr std::size_t kChunksPerThread = 4;
  const std::size_t wanted =
      grain == 0 ? threads * kChunksPerThread : (ax.tiles + grain - 1) / grain;
  ax.chunks = std::clamp<std::size_t>(wanted, 1, ax.tiles);
  return ax;
}

/// The one parallel dispatcher: validates, then hands run_block the
/// whole matrix (serial) or the schedule's partition (parallel). An
/// XorAnd call that resolves to the Gfni tier takes the Gfni road when
/// `blocks` (A's block form) is non-null; a null one runs the tier's
/// AVX-512 fallback.
template <class S, class BOp, class COp>
void gemm_scheduled(MatView<const typename S::value_type> a,
                    MatView<const std::uint64_t> blocks, const BOp& b,
                    const COp& c, const Schedule& s,
                    const CancelToken& cancel) {
  const std::size_t n = validate_shapes<S>(a, b, c);
  if (!s.valid()) throw std::invalid_argument("gemm: invalid schedule");
  GfniRoad gfni;
  if constexpr (std::is_same_v<S, XorAnd64>) {
    if (blocks.data != nullptr &&
        resolve_variant(s.variant) == KernelVariant::Gfni) {
      if (blocks.rows != (a.rows + 7) / 8 ||
          blocks.cols != (a.cols + 7) / 8 || blocks.stride < blocks.cols)
        throw std::invalid_argument("gemm: block form does not match A");
      gfni = {gfni_kernels(), blocks};
    }
  }
  // The Gfni road always has a C panel, so it partitions N like a packed C.
  const bool any_packed = kPacked<BOp> || kPacked<COp> || gfni.kernels;
  const std::size_t m = a.rows;
  const std::size_t threads = static_cast<std::size_t>(s.num_threads);
  const std::size_t tm = static_cast<std::size_t>(s.tile_m);
  const std::size_t tn = static_cast<std::size_t>(s.tile_n);
  const auto block = [&](std::size_t m0, std::size_t m1, std::size_t n0,
                         std::size_t n1) {
    run_block<S>(a, gfni, b, c, s, m0, m1, n0, n1, cancel);
  };

  if (threads <= 1) {
    block(0, m, 0, n);
    return;
  }

  ThreadPool& pool = ThreadPool::shared();

  // Any packed operand partitions N: M is tiny for erasure codes and
  // packed C panels are column-block-local, so there is nothing to gain
  // (and scatter-aliasing to lose) from splitting M.
  switch (any_packed ? ParAxis::N : s.par_axis) {
    case ParAxis::M: {
      const AxisChunks mc = make_axis_chunks(m, tm, s.par_grain, threads);
      pool.parallel_for(
          mc.chunks,
          [&](std::size_t i) {
            const auto [m0, m1] = mc.range(i);
            block(m0, m1, 0, n);
          },
          threads, cancel.raw());
      break;
    }
    case ParAxis::N: {
      // The EC-shaped default: each worker owns a contiguous span of
      // data words (columns of B/C) — the long axis for erasure codes.
      const AxisChunks nc = make_axis_chunks(n, tn, s.par_grain, threads);
      pool.parallel_for(
          nc.chunks,
          [&](std::size_t i) {
            const auto [n0, n1] = nc.range(i);
            block(0, m, n0, n1);
          },
          threads, cancel.raw());
      break;
    }
    case ParAxis::MN: {
      // 2D grid: rows split into at most `threads` chunks, columns carved
      // (by grain, or auto) so the grid still has slack to balance.
      // Chunk index = row-major over the grid.
      AxisChunks mc;
      mc.tile = tm;
      mc.extent = m;
      mc.tiles = (m + tm - 1) / tm;
      mc.chunks = std::min(threads, mc.tiles);
      const AxisChunks nc = make_axis_chunks(n, tn, s.par_grain, threads);
      pool.parallel_for(
          mc.chunks * nc.chunks,
          [&](std::size_t i) {
            const auto [m0, m1] = mc.range(i / nc.chunks);
            const auto [n0, n1] = nc.range(i % nc.chunks);
            block(m0, m1, n0, n1);
          },
          threads, cancel.raw());
      break;
    }
  }
}

template <class S>
void gemm_naive(MatView<const typename S::value_type> a,
                MatView<const typename S::value_type> b,
                MatView<typename S::value_type> c) {
  validate_shapes<S>(a, b, c);
  using V = typename S::value_type;
  for (std::size_t i = 0; i < c.rows; ++i) {
    for (std::size_t j = 0; j < c.cols; ++j) {
      V acc = S::zero();
      for (std::size_t l = 0; l < a.cols; ++l)
        acc = S::add(acc, S::mul(a.at(i, l), b.at(l, j)));
      c.at(i, j) = acc;
    }
  }
}

}  // namespace

KernelStageStats kernel_stage_stats() noexcept {
  return {g_stage_copies.load(std::memory_order_relaxed),
          g_stage_bytes.load(std::memory_order_relaxed),
          g_scratch_hwm.load(std::memory_order_relaxed)};
}

void note_staging_copy(std::size_t bytes) noexcept {
  g_stage_copies.fetch_add(1, std::memory_order_relaxed);
  g_stage_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

std::size_t kernel_scratch_retained_bytes() noexcept {
  return tl_scratch.size() * sizeof(std::uint64_t);
}

AlignedBuffer<std::uint64_t> affine_blocks(MatView<const std::uint64_t> a) {
  if (a.rows == 0 || a.cols == 0 || !variant_available(KernelVariant::Gfni))
    return {};
  a.validate();
  AlignedBuffer<std::uint64_t> blocks((a.rows + 7) / 8 * ((a.cols + 7) / 8));
  if (!gfni_kernels()->blocks(a.data, a.stride, a.rows, a.cols,
                              blocks.data()))
    return {};
  return blocks;
}

namespace {

MatView<const std::uint64_t> block_view(const AlignedBuffer<std::uint64_t>& b,
                                        MatView<const std::uint64_t> a) {
  if (b.empty()) return {};
  const std::size_t kg = (a.cols + 7) / 8;
  return {b.data(), (a.rows + 7) / 8, kg, kg};
}

/// A's block form when the call resolves to the Gfni tier (one scan of
/// A); otherwise empty, and no scan.
AlignedBuffer<std::uint64_t> blocks_if_gfni(MatView<const std::uint64_t> a,
                                            const Schedule& schedule) {
  if (resolve_variant(schedule.variant) != KernelVariant::Gfni) return {};
  return affine_blocks(a);
}

}  // namespace

void gemm_xorand(MatView<const std::uint64_t> a, MatView<const std::uint64_t> b,
                 MatView<std::uint64_t> c, const Schedule& schedule,
                 const CancelToken& cancel) {
  const AlignedBuffer<std::uint64_t> blocks = blocks_if_gfni(a, schedule);
  gemm_scheduled<XorAnd64>(a, block_view(blocks, a), b, c, schedule, cancel);
}

void gemm_xorand(MatView<const std::uint64_t> a,
                 MatView<const std::uint64_t> blocks,
                 MatView<const std::uint64_t> b, MatView<std::uint64_t> c,
                 const Schedule& schedule, const CancelToken& cancel) {
  gemm_scheduled<XorAnd64>(a, blocks, b, c, schedule, cancel);
}

void gemm_xorand_scattered(MatView<const std::uint64_t> a,
                           MatView<const std::uint64_t> blocks,
                           const ScatteredView<const std::uint64_t>& b,
                           const ScatteredView<std::uint64_t>& c,
                           const Schedule& schedule,
                           const CancelToken& cancel) {
  // A one-fragment operand is physically contiguous: the loop reads or
  // writes it in place, and packs only the fragmented ones.
  if (b.contiguous() && c.contiguous())
    gemm_scheduled<XorAnd64>(a, blocks, b.as_matview(), c.as_matview(),
                             schedule, cancel);
  else if (b.contiguous())
    gemm_scheduled<XorAnd64>(a, blocks, b.as_matview(), c, schedule, cancel);
  else if (c.contiguous())
    gemm_scheduled<XorAnd64>(a, blocks, b, c.as_matview(), schedule, cancel);
  else
    gemm_scheduled<XorAnd64>(a, blocks, b, c, schedule, cancel);
}

void gemm_xorand_scattered(MatView<const std::uint64_t> a,
                           const ScatteredView<const std::uint64_t>& b,
                           const ScatteredView<std::uint64_t>& c,
                           const Schedule& schedule,
                           const CancelToken& cancel) {
  const AlignedBuffer<std::uint64_t> blocks = blocks_if_gfni(a, schedule);
  gemm_xorand_scattered(a, block_view(blocks, a), b, c, schedule, cancel);
}

void gemm_sumprod_i64(MatView<const std::int64_t> a,
                      MatView<const std::int64_t> b, MatView<std::int64_t> c,
                      const Schedule& schedule) {
  gemm_scheduled<SumProd<std::int64_t>>(a, {}, b, c, schedule, {});
}

void gemm_sumprod_f32(MatView<const float> a, MatView<const float> b,
                      MatView<float> c, const Schedule& schedule) {
  gemm_scheduled<SumProd<float>>(a, {}, b, c, schedule, {});
}

void gemm_naive_sumprod_f32(MatView<const float> a, MatView<const float> b,
                            MatView<float> c) {
  gemm_naive<SumProd<float>>(a, b, c);
}

void gemm_naive_xorand(MatView<const std::uint64_t> a,
                       MatView<const std::uint64_t> b,
                       MatView<std::uint64_t> c) {
  gemm_naive<XorAnd64>(a, b, c);
}

void gemm_naive_sumprod_i64(MatView<const std::int64_t> a,
                            MatView<const std::int64_t> b,
                            MatView<std::int64_t> c) {
  gemm_naive<SumProd<std::int64_t>>(a, b, c);
}

}  // namespace tvmec::tensor
