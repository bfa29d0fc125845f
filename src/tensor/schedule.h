#pragma once

#include <cstddef>
#include <string>

#include "tensor/variant.h"

/// Kernel schedules: the knobs an ML compiler's autotuner turns.
///
/// A Schedule describes *how* a GEMM-shaped loop nest is executed — register
/// tiling, cache blocking, and thread parallelism — without changing *what*
/// it computes. This mirrors TVM's separation of compute definition from
/// schedule, which is the mechanism the paper exploits: the erasure-coding
/// compute definition differs from GEMM only in its inner ops, so the whole
/// schedule machinery applies unchanged.
namespace tvmec::tensor {

/// Which loop axis parallel schedules partition across threads.
///
/// For erasure coding M is tiny (out_units * w, e.g. 32 rows) while N is
/// the long data axis (words per unit), so partitioning over N — each
/// worker owning a contiguous span of data words — is what keeps every
/// core busy. M-partitioning is retained for tall ML-shaped GEMMs, and
/// MN tiles both axes into a 2D chunk grid.
enum class ParAxis { M, N, MN };

const char* to_string(ParAxis axis) noexcept;

struct Schedule {
  /// Register-tile height: rows of C accumulated simultaneously.
  int tile_m = 4;
  /// Register-tile width in elements: columns of C accumulated
  /// simultaneously (these become vector lanes in the specialized
  /// microkernels; wide tiles amortize A-operand broadcasts).
  int tile_n = 4;
  /// Cache-block depth over the reduction axis; 0 means no blocking
  /// (one pass over the full K extent).
  std::size_t block_k = 0;
  /// Cache-block width over the N axis; 0 means no blocking.
  std::size_t block_n = 0;
  /// Worker threads participating in one GEMM call. 1 = serial.
  int num_threads = 1;
  /// Loop axis partitioned across threads (ignored when num_threads == 1).
  ParAxis par_axis = ParAxis::N;
  /// Chunk grain for dynamic load balancing: register tiles per work
  /// chunk along the partitioned axis (the N axis for MN). 0 = auto
  /// (sized so each thread sees a handful of chunks to steal).
  std::size_t par_grain = 0;
  /// SIMD microkernel tier the schedule was tuned for. Auto = resolve to
  /// the best tier the running host supports; a concrete tier is honored
  /// only when available (and a TVMEC_FORCE_VARIANT override beats both),
  /// so a log tuned on an AVX-512 box still runs — on a lesser tier —
  /// anywhere. Only the XorAnd64 kernels consult this knob.
  KernelVariant variant = KernelVariant::Auto;

  /// Human-readable form, e.g. "mt4x8 kb64 nb2048 t4 pn g0 vauto", used
  /// in tuning logs.
  std::string to_string() const;

  /// Parses the to_string() format back into a Schedule — the mechanism
  /// behind persisting tuned kernels (TVM's "export the autotuned
  /// schedule" workflow, §5/§7.1 of the paper). The pre-parallel-axis
  /// 5-field form ("mt4x8 kb64 nb2048 t4") is still accepted and maps
  /// to M-partitioning with auto grain, which is what that era of logs
  /// actually ran; the pre-variant 7-field form maps to variant=Auto
  /// (those logs ran whatever the build's compile-time ISA was — Auto
  /// reproduces "best this host offers"). Throws std::invalid_argument
  /// on malformed input or an invalid schedule.
  static Schedule parse(const std::string& text);

  /// True if every knob is inside the range the kernel dispatcher supports.
  bool valid() const noexcept;

  bool operator==(const Schedule&) const = default;
};

/// Most worker threads a schedule may ask for (Schedule::valid); thread
/// menus and serve's per-batch widths stop here.
inline constexpr int kMaxScheduleThreads = 256;

/// Register-tile extents the microkernel menu was instantiated for.
/// (The dispatch table in kernel.cpp covers the cross product.)
bool is_supported_tile(int tile_m, int tile_n) noexcept;

/// A safe default schedule that performs reasonably everywhere; tuning
/// starts from — and must beat — this.
Schedule default_schedule() noexcept;

}  // namespace tvmec::tensor
