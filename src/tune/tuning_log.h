#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "tune/tuner.h"

/// Tuned schedules at run time and on disk, mirroring TVM's
/// tuning-record files: measure once, reuse the best schedule forever
/// (the paper's §6.1 setup tunes for 20 000 trials precisely because the
/// result is cached).
///
/// File format: one record per line,
///   `<task m>x<task n>x<task k> | <schedule to_string> | <throughput>`
/// Lines starting with '#' are comments. The format is stable and
/// human-diffable, like TVM's JSON logs but simpler. Older logs whose
/// schedule strings predate the parallel-axis or kernel-variant knobs
/// parse with those knobs defaulted (see Schedule::parse), so a log
/// survives library upgrades. load_log_all is the one reader and
/// ScheduleCache::save the one writer.
namespace tvmec::tune {

/// What load_log_all skipped and why (logs travel between machines, so
/// some records may not apply to the loading host).
struct LoadLogStats {
  /// Records whose schedule names a concrete kernel variant this host
  /// cannot execute (e.g. an avx512-tuned record loaded on an AVX2-only
  /// box). Dropped with a stderr warning rather than rejected: the rest
  /// of the log is still valid history here.
  std::size_t dropped_unavailable_variant = 0;
};

/// One parsed log line, shape included.
struct LogRecord {
  TaskShape shape;
  tensor::Schedule schedule;
  double throughput = 0.0;
};

/// Reads every record in the log, in file order. A missing file returns
/// an empty vector; a malformed record line throws std::runtime_error
/// (corrupt log files should fail loudly, not silently detune a
/// production encoder). Records tuned for a kernel variant the running
/// host lacks are NOT an error: they are skipped with a counted warning
/// (`stats`, optional) — a cross-machine log is partially usable, a
/// corrupt one is not.
std::vector<LogRecord> load_log_all(const std::string& path,
                                    LoadLogStats* stats = nullptr);

/// The best-known schedule per GEMM task shape: the one runtime store of
/// tuned schedules. A core::Codec with a cache attached looks up every
/// GEMM call's schedule here by task shape; the serving front's
/// autotuner installs its winners here. Thread-safe.
class ScheduleCache {
 public:
  struct Entry {
    tensor::Schedule schedule;
    double throughput = 0.0;
  };
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t installs = 0;
    std::uint64_t saves = 0;
    std::uint64_t loaded_records = 0;
    std::uint64_t dropped_unavailable_variant = 0;
  };

  /// Best-known entry for the shape (counted as a hit/miss).
  std::optional<Entry> lookup(const TaskShape& shape) const;

  /// Installs/overwrites the entry for a shape.
  void install(const TaskShape& shape, const Entry& entry);

  /// Merges a tuning log into the cache (best record per shape wins —
  /// both within the file and against anything already cached).
  /// Returns the entries it added or replaced. load_log_all's error
  /// contract; records it drops are counted in Stats.
  std::size_t load(const std::string& path);

  /// Writes the whole cache to `path` in the tuning-log format —
  /// snapshot under the lock, write to `path + ".tmp"`, rename — so a
  /// concurrently restarting front never reads a half-written file.
  /// Throws std::runtime_error on I/O failure.
  void save(const std::string& path) const;

  std::size_t size() const;
  Stats stats() const;

 private:
  mutable std::mutex mutex_;
  std::map<TaskShape, Entry> entries_;
  mutable Stats stats_;  ///< hits/misses mutate under lookup() const
};

}  // namespace tvmec::tune
