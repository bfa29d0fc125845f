// tune/tuning_log.h — the log reader (load_log_all) and the schedule
// cache: lookups, installs, and its tuning-log persistence (round-trip,
// merge, concurrent saves, unavailable variants dropped-and-counted).

#include "tune/tuning_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>

#include "tensor/variant.h"

namespace tvmec::tune {
namespace {

/// RAII temp file path under the build tree.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(::testing::TempDir() + "/" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

/// A concrete kernel tier the running host lacks (Auto if it has all —
/// impossible today: no machine has AVX-512 and NEON).
tensor::KernelVariant unavailable_variant() {
  for (const tensor::KernelVariant v :
       {tensor::KernelVariant::Neon, tensor::KernelVariant::Avx512,
        tensor::KernelVariant::Avx2})
    if (!tensor::variant_available(v)) return v;
  return tensor::KernelVariant::Auto;
}

tensor::Schedule sample_schedule() {
  tensor::Schedule s;
  s.tile_m = 8;
  s.tile_n = 32;
  s.block_k = 16;
  return s;
}

constexpr TaskShape kShape{32, 2048, 80};

TEST(TuningLog, RoundTrip) {
  TempFile tmp("tuning_log_roundtrip.log");
  ScheduleCache cache;
  cache.install(kShape, {sample_schedule(), 7.5e9});
  cache.save(tmp.path);

  const std::vector<LogRecord> loaded = load_log_all(tmp.path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].shape, kShape);
  EXPECT_EQ(loaded[0].schedule, sample_schedule());
  EXPECT_DOUBLE_EQ(loaded[0].throughput, 7.5e9);
}

TEST(TuningLog, MissingFileReturnsNullopt) {
  EXPECT_TRUE(load_log_all("/nonexistent/dir/nope.log").empty());
}

TEST(TuningLog, ShapeFiltering) {
  TempFile tmp("tuning_log_shapes.log");
  const TaskShape b{16, 2048, 64};
  ScheduleCache writer;
  writer.install(kShape, {sample_schedule(), 7.5e9});
  writer.save(tmp.path);

  ScheduleCache cache;
  cache.load(tmp.path);
  EXPECT_FALSE(cache.lookup(b).has_value());
  EXPECT_TRUE(cache.lookup(kShape).has_value());
}

TEST(TuningLog, CommentsAndBlankLinesIgnored) {
  TempFile tmp("tuning_log_comments.log");
  {
    std::ofstream out(tmp.path);
    out << "# tuning record file\n\n"
        << "32x2048x80 | mt8x32 kb16 nb0 t1 pn g0 vauto | 7.5e9\n\n";
  }
  const std::vector<LogRecord> loaded = load_log_all(tmp.path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].schedule, sample_schedule());
}

TEST(TuningLog, VariantPinnedRecordsRoundTrip) {
  TempFile tmp("tuning_log_variant.log");
  const std::vector<tensor::KernelVariant> variants =
      tensor::available_variants();
  ScheduleCache cache;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    tensor::Schedule s = sample_schedule();
    s.variant = variants[i];
    cache.install(TaskShape{32, 2048 + i, 80}, {s, 4.0e9});
  }
  cache.save(tmp.path);

  const std::vector<LogRecord> loaded = load_log_all(tmp.path);
  ASSERT_EQ(loaded.size(), variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i)  // saved in shape order
    EXPECT_EQ(loaded[i].schedule.variant, variants[i]);
}

TEST(TuningLog, LegacyRecordsLoadWithAutoVariant) {
  TempFile tmp("tuning_log_legacy.log");
  {
    std::ofstream out(tmp.path);
    out << "32x2048x80 | mt4x16 kb64 nb512 t2 | 5.0e9\n"         // 5-field
        << "32x2048x80 | mt8x32 kb0 nb1024 t4 pn g2 | 6.0e9\n";  // 7-field
  }
  LoadLogStats stats;
  const std::vector<LogRecord> loaded = load_log_all(tmp.path, &stats);
  ASSERT_EQ(loaded.size(), 2u);
  for (const LogRecord& rec : loaded)
    EXPECT_EQ(rec.schedule.variant, tensor::KernelVariant::Auto);
  EXPECT_EQ(stats.dropped_unavailable_variant, 0u);
}

TEST(TuningLog, DropsRecordsPinnedToUnavailableVariants) {
  // A log copied from a host with a different ISA must not poison this
  // one: records pinned to a tier we can't run are skipped (counted),
  // records we can replay survive.
  const tensor::KernelVariant missing = unavailable_variant();
  ASSERT_NE(missing, tensor::KernelVariant::Auto)
      << "host claims every variant; cannot stage an unavailable record";

  TempFile tmp("tuning_log_foreign.log");
  {
    std::ofstream out(tmp.path);
    out << "32x2048x80 | mt4x16 kb64 nb512 t2 pm g0 v"
        << tensor::to_string(missing) << " | 9.0e9\n"
        << "32x2048x80 | mt4x16 kb64 nb512 t2 pm g0 vscalar | 3.0e9\n";
  }
  LoadLogStats stats;
  const std::vector<LogRecord> loaded = load_log_all(tmp.path, &stats);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].schedule.variant, tensor::KernelVariant::Scalar);
  EXPECT_EQ(stats.dropped_unavailable_variant, 1u);
}

TEST(TuningLog, MalformedRecordFailsLoudly) {
  TempFile tmp("tuning_log_bad.log");
  {
    std::ofstream out(tmp.path);
    out << "32x2048x80 | not a schedule | oops\n";
  }
  EXPECT_THROW(load_log_all(tmp.path), std::runtime_error);
}

TEST(TuningLog, AppendToUnwritablePathThrows) {
  ScheduleCache cache;
  cache.install(kShape, {sample_schedule(), 7.5e9});
  EXPECT_THROW(cache.save("/nonexistent/dir/x.log"), std::runtime_error);
}

TEST(TuningLog, LoadAllReturnsEveryShapeInFileOrder) {
  TempFile tmp("tuning_log_all.log");
  {
    std::ofstream out(tmp.path);
    out << "32x2048x80 | mt4x16 kb0 nb512 t1 pn g0 vauto | 5.0e9\n"
        << "32x2048x80 | mt8x32 kb16 nb0 t1 pn g0 vauto | 7.5e9\n"
        << "16x1024x64 | mt4x16 kb0 nb512 t1 pn g0 vauto | 5.0e9\n"
        << "16x1024x64 | mt8x32 kb16 nb0 t1 pn g0 vauto | 7.5e9\n";
  }
  const std::vector<LogRecord> all = load_log_all(tmp.path);
  ASSERT_EQ(all.size(), 4u);  // 2 records per shape
  EXPECT_EQ(all[0].shape.m, 32u);
  EXPECT_EQ(all[1].shape.k, 80u);
  EXPECT_EQ(all[2].shape.m, 16u);
  EXPECT_EQ(all[3].shape.n, 1024u);
  EXPECT_EQ(all[1].schedule, sample_schedule());
  EXPECT_DOUBLE_EQ(all[1].throughput, 7.5e9);
}

TEST(TuningLog, LoadAllMissingFileIsEmptyMalformedThrows) {
  EXPECT_TRUE(load_log_all("/nonexistent/dir/nope.log").empty());
  TempFile tmp("tuning_log_all_bad.log");
  {
    std::ofstream out(tmp.path);
    out << "32xAx80 | mt4x16 kb64 nb512 t2 | 5.0e9\n";
  }
  EXPECT_THROW(load_log_all(tmp.path), std::runtime_error);
}

TEST(TuningLog, LoadAllDropsUnavailableVariantsWithCount) {
  const tensor::KernelVariant missing = unavailable_variant();
  ASSERT_NE(missing, tensor::KernelVariant::Auto)
      << "host claims every variant; cannot stage an unavailable record";

  TempFile tmp("tuning_log_all_foreign.log");
  {
    std::ofstream out(tmp.path);
    out << "32x2048x80 | mt4x16 kb64 nb512 t2 pm g0 v"
        << tensor::to_string(missing) << " | 9.0e9\n"
        << "16x1024x64 | mt4x16 kb64 nb512 t2 pm g0 vscalar | 3.0e9\n";
  }
  LoadLogStats stats;
  const std::vector<LogRecord> all = load_log_all(tmp.path, &stats);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].shape.m, 16u);
  EXPECT_EQ(all[0].schedule.variant, tensor::KernelVariant::Scalar);
  EXPECT_EQ(stats.dropped_unavailable_variant, 1u);
}

TEST(ScheduleCache, LookupCountsHitsAndMisses) {
  ScheduleCache cache;
  EXPECT_FALSE(cache.lookup(kShape).has_value());
  cache.install(kShape, {sample_schedule(), 5.0e9});
  const auto hit = cache.lookup(kShape);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->schedule, sample_schedule());
  EXPECT_DOUBLE_EQ(hit->throughput, 5.0e9);
  const ScheduleCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.installs, 1u);
}

TEST(ScheduleCache, SaveLoadRoundTrip) {
  TempFile tmp("schedule_cache_roundtrip.log");
  const TaskShape other{16, 64, 32};
  ScheduleCache cache;
  tensor::Schedule a = tensor::default_schedule();
  a.tile_m = 2;
  tensor::Schedule b = tensor::default_schedule();
  b.block_k = 64;
  cache.install(kShape, {a, 1.0e9});
  cache.install(other, {b, 2.0e9});
  cache.save(tmp.path);

  ScheduleCache fresh;
  EXPECT_EQ(fresh.load(tmp.path), 2u);
  EXPECT_EQ(fresh.stats().dropped_unavailable_variant, 0u);
  EXPECT_EQ(fresh.size(), 2u);
  const auto ea = fresh.lookup(kShape);
  ASSERT_TRUE(ea.has_value());
  EXPECT_EQ(ea->schedule, a);
  EXPECT_DOUBLE_EQ(ea->throughput, 1.0e9);
  const auto eb = fresh.lookup(other);
  ASSERT_TRUE(eb.has_value());
  EXPECT_EQ(eb->schedule, b);
  EXPECT_EQ(fresh.stats().loaded_records, 2u);
}

TEST(ScheduleCache, LoadMergesBestRecordPerShape) {
  TempFile tmp("schedule_cache_merge.log");
  {
    // Hand-written log with two records for one shape: best must win.
    std::ofstream out(tmp.path);
    out << "32x2048x80 | mt4x4 kb0 nb0 t1 pn g0 vauto | 1e9\n"
        << "32x2048x80 | mt8x32 kb16 nb0 t1 pn g0 vauto | 3e9\n";
  }
  ScheduleCache cache;
  // An already-better cached entry survives a weaker log...
  tensor::Schedule best = tensor::default_schedule();
  best.tile_n = 8;
  cache.install(kShape, {best, 9.0e9});
  cache.load(tmp.path);
  EXPECT_EQ(cache.lookup(kShape)->schedule, best);

  // ...and a weaker cached entry is upgraded to the log's best.
  ScheduleCache weak;
  weak.install(kShape, {tensor::default_schedule(), 0.5e9});
  weak.load(tmp.path);
  EXPECT_DOUBLE_EQ(weak.lookup(kShape)->throughput, 3.0e9);
  EXPECT_EQ(weak.lookup(kShape)->schedule, sample_schedule());
}

TEST(ScheduleCache, MissingFileLoadsNothingAndMalformedThrows) {
  ScheduleCache cache;
  EXPECT_EQ(cache.load(::testing::TempDir() + "/no_such_cache.log"), 0u);
  TempFile tmp("schedule_cache_malformed.log");
  {
    std::ofstream out(tmp.path);
    out << "not a record\n";
  }
  EXPECT_THROW(cache.load(tmp.path), std::runtime_error);
}

TEST(ScheduleCache, UnavailableVariantRecordsDroppedAndCounted) {
  const tensor::KernelVariant missing = unavailable_variant();
  if (missing == tensor::KernelVariant::Auto)
    GTEST_SKIP() << "host supports every kernel variant";

  TempFile tmp("schedule_cache_variant.log");
  {
    std::ofstream out(tmp.path);
    tensor::Schedule foreign = tensor::default_schedule();
    foreign.variant = missing;
    out << "32x2048x80 | " << foreign.to_string() << " | 9e9\n"
        << "32x2048x80 | " << tensor::default_schedule().to_string()
        << " | 1e9\n";
  }
  ScheduleCache cache;
  EXPECT_EQ(cache.load(tmp.path), 1u);
  EXPECT_EQ(cache.stats().dropped_unavailable_variant, 1u);
  // The surviving (runnable) record is the one cached, despite the
  // foreign record's higher throughput.
  ASSERT_TRUE(cache.lookup(kShape).has_value());
  EXPECT_DOUBLE_EQ(cache.lookup(kShape)->throughput, 1.0e9);
}

TEST(ScheduleCache, SaveUnderConcurrentInstallsYieldsParsableFile) {
  TempFile tmp("schedule_cache_concurrent.log");
  ScheduleCache cache;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      // Rotate across shapes and throughputs while saves snapshot.
      cache.install(TaskShape{16, 8 * (1 + i % 4), 32},
                    {sample_schedule(), 1.0e9 + static_cast<double>(i)});
      ++i;
    }
  });
  for (int i = 0; i < 20; ++i) cache.save(tmp.path);
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  cache.save(tmp.path);  // final quiescent save

  // Every save wrote a complete snapshot (tmp + rename): the file must
  // parse and hold every shape present at the final save.
  ScheduleCache fresh;
  EXPECT_EQ(fresh.load(tmp.path), cache.size());
  EXPECT_EQ(fresh.size(), cache.size());
}

}  // namespace
}  // namespace tvmec::tune
