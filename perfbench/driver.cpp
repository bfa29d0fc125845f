// The repository benchmark driver.
//
// Drives the library from outside, through its public API only, on one of
// three seeded workloads (see perfbench/README.md for why each exists):
//
//   bulk-stripes    closed loop, one caller thread: core::Codec RS(10,4)
//                   w=8 at 1 MiB units under the shipped service schedule;
//                   encodes alternate with in-place decodes of 1-4 losses.
//   small-requests  open loop: one generator thread sends seeded Poisson
//                   arrivals of 4 KiB-unit RS(10,4) requests (90% encode,
//                   10% decode) to serve::ShardedEcService at its default
//                   deployment; one reaper thread collects the futures.
//   object-store    closed loop, one client: cluster::Cluster of 16 nodes
//                   in 4 domains at 64 KiB units; one node crashes partway,
//                   Membership detects it, a Healer ticked between client
//                   ops restores redundancy.
//
// Every output is checked (parity against a reference coder, decodes
// round-trip, gets byte-exact) and every counter identity the layers
// declare is checked at the end of a run; any violation counts as a failed
// operation.
//
// Usage:
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--commit <id>] [--trace-file <path>]
//
// --trace 0 measures the chosen workload untraced and reports the
// end-to-end metrics. --trace 1 runs the layer probes, the chosen workload
// once untraced, and then every workload with a span recorded around each
// call the benchmark makes into a layer; it reports the per-layer metrics
// and the tracing overhead. The last line of stdout is one JSON object with
// the keys correct, attempted, failed and metrics.

#include <sys/resource.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/healer.h"
#include "cluster/membership.h"
#include "cluster/repair.h"
#include "core/plan_cache.h"
#include "core/tvmec.h"
#include "ec/decoder.h"
#include "ec/reed_solomon.h"
#include "gf/bitmatrix.h"
#include "serve/ec_service.h"
#include "serve/shard.h"
#include "storage/crc32c.h"
#include "storage/fault_injector.h"
#include "tensor/buffer.h"
#include "tensor/kernel.h"
#include "tensor/threadpool.h"
#include "tensor/variant.h"

namespace {

using namespace tvmec;
using Clock = std::chrono::steady_clock;
using Bytes = tensor::AlignedBuffer<std::uint8_t>;

const ec::CodeParams kParams{10, 4, 8};
constexpr std::size_t kK = 10;
constexpr std::size_t kR = 4;
constexpr std::size_t kN = kK + kR;
constexpr unsigned kW = 8;

const char* const kWorkloads[] = {"bulk-stripes", "small-requests",
                                  "object-store"};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---------------------------------------------------------------------
// Sample statistics

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Tail latency that one stall cannot swing: the samples (in the order
/// they completed) are cut into at most nine windows of at least 1000, so
/// each window's p99 has ten samples beyond it, and the median of the
/// window p99s is reported. Fewer than three windows fall back to the
/// plain p99.
double steady_p99(const std::vector<double>& ordered) {
  const std::size_t windows = std::min<std::size_t>(ordered.size() / 1000, 9);
  if (windows < 3) return quantile(ordered, 0.99);
  std::vector<double> p99s;
  const std::size_t per = ordered.size() / windows;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = ordered.begin() + static_cast<std::ptrdiff_t>(w * per);
    const auto last = w + 1 == windows
                          ? ordered.end()
                          : first + static_cast<std::ptrdiff_t>(per);
    p99s.push_back(quantile(std::vector<double>(first, last), 0.99));
  }
  return median(p99s);
}

/// Two-cluster summary of a throughput sample. The sorted sample is split
/// at its widest ratio gap; it counts as bimodal when each side holds at
/// least a fifth of the samples and the side medians differ by more than
/// 1.5x. Otherwise lo == hi == the median.
struct Modes {
  double lo = 0.0;
  double hi = 0.0;
  bool bimodal = false;
};

Modes modes(std::vector<double> v) {
  Modes m;
  if (v.empty()) return m;
  std::sort(v.begin(), v.end());
  m.lo = m.hi = median(v);
  std::size_t cut = 0;
  double widest = 1.0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    const double gap = v[i] / std::max(v[i - 1], 1e-12);
    if (gap > widest) {
      widest = gap;
      cut = i;
    }
  }
  const std::size_t min_side = (v.size() + 4) / 5;
  if (cut < min_side || v.size() - cut < min_side) return m;
  const std::vector<double> low(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(cut));
  const std::vector<double> high(v.begin() + static_cast<std::ptrdiff_t>(cut), v.end());
  if (median(high) > 1.5 * median(low)) {
    m.lo = median(low);
    m.hi = median(high);
    m.bimodal = true;
  }
  return m;
}

/// `rounds` timings of `fn`, in seconds per call; each timing covers
/// `inner` back-to-back calls.
template <typename F>
std::vector<double> time_samples(F&& fn, std::size_t rounds,
                                 std::size_t inner) {
  std::vector<double> out;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < inner; ++i) fn();
    out.push_back(seconds_between(t0, Clock::now()) /
                  static_cast<double>(inner));
  }
  return out;
}

std::vector<double> to_gbps(const std::vector<double>& secs, double bytes) {
  std::vector<double> out;
  for (double s : secs) out.push_back(bytes / s / 1e9);
  return out;
}
std::vector<double> to_us(const std::vector<double>& secs) {
  std::vector<double> out;
  for (double s : secs) out.push_back(s * 1e6);
  return out;
}

// ---------------------------------------------------------------------
// Results

class Report {
 public:
  void set(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      fail("metric " + name + " is not finite");
      value = -1.0;
    }
    metrics_[name] = {value, unit};
  }
  void add(const std::string& name, double delta, const char* unit) {
    auto it = metrics_.find(name);
    set(name, (it == metrics_.end() ? 0.0 : it->second.value) + delta, unit);
  }
  double get(const std::string& name) const { return metrics_.at(name).value; }

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// One failed, refused or mis-verified operation, or a violated identity.
  void fail(const std::string& what) {
    ++failed_;
    if (++logged_ <= 20) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
  std::uint64_t failed() const { return failed_; }

  std::string json() const {
    std::string s = "{\"correct\": ";
    s += failed_ == 0 ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted_, 1));
    s += ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    bool first = true;
    char buf[64];
    for (const auto& [name, m] : metrics_) {
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
      s += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    return s + "}}";
  }

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t logged_ = 0;
};

// ---------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around its calls into a layer.

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t tid = 0;
};

class Tracer {
 public:
  /// Spans of one thread; each recording thread owns one log.
  struct Log {
    Tracer* tracer = nullptr;
    std::uint32_t tid = 0;
    std::vector<Span> spans;
  };

  Log* log(std::uint32_t tid) {
    std::lock_guard lock(mutex_);
    logs_.push_back(Log{this, tid, {}});
    return &logs_.back();
  }
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  std::size_t span_count() const {
    std::size_t n = 0;
    for (const Log& l : logs_) n += l.spans.size();
    return n;
  }

  /// Per span name: count, total and self time (duration minus the part
  /// covered by child spans), printed as one line each.
  void print_summary() const {
    std::map<std::uint64_t, double> child_ns;
    for (const Log& l : logs_)
      for (const Span& s : l.spans)
        if (s.parent != 0)
          child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    struct Agg {
      std::size_t count = 0;
      double total_ms = 0, self_ms = 0;
    };
    std::map<std::string, Agg> by_name;
    for (const Log& l : logs_)
      for (const Span& s : l.spans) {
        Agg& a = by_name[s.name];
        const double d = static_cast<double>(s.end_ns - s.start_ns);
        const auto c = child_ns.find(s.id);
        ++a.count;
        a.total_ms += d / 1e6;
        a.self_ms += (d - (c == child_ns.end() ? 0.0 : c->second)) / 1e6;
      }
    for (const auto& [name, a] : by_name)
      std::printf("span %-24s count %8zu  total %10.1f ms  self %10.1f ms\n",
                  name.c_str(), a.count, a.total_ms, a.self_ms);
  }

  /// Chrome trace-event JSON (complete events), at most `max_spans`.
  void write_chrome(const std::string& path, const std::string& stamp,
                    std::size_t max_spans = 200000) const {
    std::ofstream out(path);
    if (!out) return;
    out << "{\"otherData\": " << stamp << ",\n\"traceEvents\": [\n";
    std::size_t written = 0;
    for (const Log& l : logs_)
      for (const Span& s : l.spans) {
        if (written == max_spans) break;
        out << (written++ ? ",\n" : "") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
            << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
            << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
            << "}}";
      }
    out << "\n]}\n";
  }

 private:
  std::mutex mutex_;
  std::deque<Log> logs_;  // deque: logs handed out stay put
  std::atomic<std::uint64_t> next_id_{0};
  Clock::time_point epoch_ = Clock::now();
};

/// Records one span into `log` for its lifetime; does nothing when the
/// log is null (untraced runs).
class SpanScope {
 public:
  SpanScope(Tracer::Log* log, const char* name, std::uint64_t parent = 0)
      : log_(log) {
    if (log_ == nullptr) return;
    span_.name = name;
    span_.parent = parent;
    span_.tid = log_->tid;
    span_.id = log_->tracer->next_id();
    span_.start_ns = log_->tracer->now_ns();
  }
  ~SpanScope() {
    if (log_ == nullptr) return;
    span_.end_ns = log_->tracer->now_ns();
    log_->spans.push_back(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Tracer::Log* log_;
  Span span_;
};

// ---------------------------------------------------------------------
// Inputs

void fill_random(std::uint8_t* p, std::size_t bytes, std::mt19937_64& rng) {
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    const std::uint64_t v = rng();
    std::memcpy(p + i, &v, 8);
  }
  for (; i < bytes; ++i) p[i] = static_cast<std::uint8_t>(rng());
}

/// Fills a stripe of n units with seeded data and the parity of the
/// reference coder (ec::apply_matrix_reference_bitpacket), which shares no
/// code with the GEMM path it checks.
void make_stripe(std::uint8_t* stripe, std::size_t unit, std::mt19937_64& rng,
                 const gf::Matrix& parity_matrix) {
  fill_random(stripe, kK * unit, rng);
  ec::apply_matrix_reference_bitpacket(
      parity_matrix, std::span<const std::uint8_t>(stripe, kK * unit),
      std::span<std::uint8_t>(stripe + kK * unit, kR * unit), unit);
}

/// `count` sorted erasure patterns; pattern i loses
/// min_e + i % (max_e - min_e + 1) distinct units of the n.
std::vector<std::vector<std::size_t>> make_patterns(std::mt19937_64& rng,
                                                    std::size_t count,
                                                    std::size_t min_e,
                                                    std::size_t max_e) {
  std::vector<std::vector<std::size_t>> out;
  std::vector<std::size_t> ids(kN);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t u = 0; u < kN; ++u) ids[u] = u;
    std::shuffle(ids.begin(), ids.end(), rng);
    const std::size_t e = min_e + i % (max_e - min_e + 1);
    std::vector<std::size_t> p(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(e));
    std::sort(p.begin(), p.end());
    out.push_back(std::move(p));
  }
  return out;
}

std::string pattern_string(const std::vector<std::size_t>& p) {
  std::string s;
  for (std::size_t id : p) {
    if (!s.empty()) s += ',';
    s += std::to_string(id);
  }
  return s;
}

// ---------------------------------------------------------------------
// Workloads

/// One workload. setup() builds the program objects (timed by the caller
/// as setup_s; may be called repeatedly, each call starting over); run()
/// is the measured loop.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual void run(double seconds, Tracer* tracer, Report& rep) = 0;
  /// Per-layer figures of the last run.
  virtual void layer_metrics(Report& rep) const = 0;

  // End-to-end figures of the last run. Writes and reads are latency
  // samples in completion order, in microseconds.
  double throughput_gbps = 0.0;
  std::vector<double> write_us;
  std::vector<double> read_us;
  /// The typical read; the median of read_us unless a workload's reads
  /// fall into classes of different cost.
  virtual double read_p50_us() const { return median(read_us); }
};

// bulk-stripes --------------------------------------------------------

#include <sys/mman.h>
class HugeBytes {
 public:
  explicit HugeBytes(std::size_t n) : n_(n) {
    const std::size_t huge = std::size_t{2} << 20;
    map_len_ = (n + 2 * huge - 1) / huge * huge;
    map_ = mmap(nullptr, map_len_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    auto a = (reinterpret_cast<std::uintptr_t>(map_) + huge - 1) / huge * huge;
    p_ = reinterpret_cast<std::uint8_t*>(a);
    if (std::getenv("PB_HUGE")) madvise(p_, (n + huge - 1) / huge * huge, MADV_HUGEPAGE);
  }
  ~HugeBytes() { munmap(map_, map_len_); }
  std::uint8_t* data() { return p_; }
  const std::uint8_t* data() const { return p_; }
  std::size_t size() const { return n_; }
  std::span<std::uint8_t> span() { return {p_, n_}; }
 private:
  std::size_t n_, map_len_;
  void* map_;
  std::uint8_t* p_;
};

class BulkStripes final : public Workload {
 public:
  static inline const std::size_t kUnit = std::getenv("PB_UNIT") ? std::size_t(std::atoi(std::getenv("PB_UNIT"))) << 10 : std::size_t{1} << 20;
  static constexpr std::size_t kPatterns = 16;
  static inline const std::size_t kStripeBytes = kN * kUnit;

  explicit BulkStripes(std::uint64_t seed)
      : pristine_(kStripeBytes),
        work_(kStripeBytes),
        patterns_(loss_patterns(seed)) {
    std::mt19937_64 rng(seed ^ 0xB01CULL);
    const ec::ReedSolomon rs(kParams);
    const gf::Matrix parity = rs.parity_matrix();
    make_stripe(pristine_.data(), kUnit, rng, parity);
    std::memcpy(work_.data(), pristine_.data(), pristine_.size());
  }

  /// The decode loss patterns of a seed: 1 to 4 losses, cycling.
  static std::vector<std::vector<std::size_t>> loss_patterns(std::uint64_t seed) {
    std::mt19937_64 rng(seed ^ 0xB0CCULL);
    return make_patterns(rng, kPatterns, 1, 4);
  }

  void setup() override {
    codec_.reset();
    codec_ = std::make_unique<core::Codec>(kParams);
    {
      tensor::Schedule sch = serve::default_service_schedule();
      if (const char* t = std::getenv("PB_THREADS")) sch.num_threads = std::atoi(t);
      codec_->set_schedule(sch);
    }
    plan_cache_ = std::make_shared<core::PlanCache>();
    codec_->set_plan_cache(plan_cache_);
    // Warm every pattern's plan on an intact stripe (recovering intact
    // units rewrites the same bytes).
    for (const auto& p : patterns_) codec_->decode(work_.span(), p, kUnit);
  }

  void run(double seconds, Tracer* tracer, Report& rep) override {
    Tracer::Log* log = tracer ? tracer->log(1) : nullptr;
    write_us.clear();
    read_us.clear();
    for (auto& v : read_by_losses_) v.clear();
    const core::PlanCacheStats plans0 = plan_cache_->stats();
    const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
    for (std::size_t i = 0; Clock::now() < deadline; ++i) {
      std::uint8_t* st = work_.data();
      const std::uint8_t* ref = pristine_.data();
      SpanScope op(log, "bench.stripe_op");
      rep.attempt();
      try {
        if (i % 2 == 0) {
          std::uint8_t* parity = st + kK * kUnit;
          std::memset(parity, 0, kR * kUnit);
          const auto t0 = Clock::now();
          {
            SpanScope sp(log, "core.encode", op.id());
            codec_->encode(std::span<const std::uint8_t>(st, kK * kUnit),
                           std::span<std::uint8_t>(parity, kR * kUnit), kUnit);
          }
          write_us.push_back(us_between(t0, Clock::now()));
          if (std::memcmp(parity, ref + kK * kUnit, kR * kUnit) != 0)
            rep.fail("bulk-stripes: encode parity differs from reference");
        } else {
          const auto& p = patterns_[(i / 2) % kPatterns];
          for (std::size_t id : p)
            std::memset(st + id * kUnit, static_cast<int>(0xA5 ^ id), kUnit);
          const auto t0 = Clock::now();
          {
            SpanScope sp(log, "core.decode", op.id());
            codec_->decode(work_.span(), p, kUnit);
          }
          read_us.push_back(us_between(t0, Clock::now()));
          read_by_losses_[p.size() - 1].push_back(read_us.back());
          for (std::size_t id : p)
            if (std::memcmp(st + id * kUnit, ref + id * kUnit, kUnit) != 0) {
              rep.fail("bulk-stripes: decode of {" + pattern_string(p) +
                       "} did not round-trip");
              std::memcpy(st, ref, kStripeBytes);
              break;
            }
        }
      } catch (const std::exception& e) {
        rep.fail(std::string("bulk-stripes: ") + e.what());
        std::memcpy(st, ref, kStripeBytes);
      }
    }
    // Data bytes (k units) per second of the median op, so a stall on
    // the shared host moves the tail metrics and not these.
    const double data_us = static_cast<double>(kK * kUnit) / 1e3;
    encode_gbps_ = data_us / median(write_us);
    decode_gbps_ = data_us / read_p50_us();
    throughput_gbps = 2 * data_us / (median(write_us) + read_p50_us());
    const core::PlanCacheStats plans1 = plan_cache_->stats();
    plan_hits_ = static_cast<double>(plans1.hits - plans0.hits);
    plan_misses_ = static_cast<double>(plans1.misses - plans0.misses);
  }

  /// Decodes of 1, 2, 3 and 4 losses cost about 1x to 2x apart, so the
  /// median of all decodes sits on a boundary between two loss counts and
  /// jumps between runs. The typical read is the mean of the four
  /// per-loss-count medians instead.
  double read_p50_us() const override {
    double sum = 0;
    for (const auto& v : read_by_losses_) sum += median(v);
    return sum / static_cast<double>(read_by_losses_.size());
  }
  void diag() const {
    for (double q : {0.05, 0.1, 0.25, 0.5}) {
      double sum = 0;
      for (const auto& v : read_by_losses_) sum += quantile(v, q);
      std::printf("DIAG q%.2f write %.2f read %.2f\n", q, quantile(write_us, q), sum / 4);
    }
  }

  void layer_metrics(Report& rep) const override {
    rep.set("bulk.encode_gbps", encode_gbps_, "GB/s");
    rep.set("bulk.decode_gbps", decode_gbps_, "GB/s");
    rep.set("bulk.encode_p99_us", steady_p99(write_us), "us");
    rep.set("bulk.decode_p99_us", steady_p99(read_us), "us");
    rep.add("core.plan_cache_hits", plan_hits_, "count");
    rep.add("core.plan_cache_misses", plan_misses_, "count");
  }

 private:
  HugeBytes pristine_;
  HugeBytes work_;
  std::vector<std::vector<std::size_t>> patterns_;
  std::unique_ptr<core::Codec> codec_;
  std::shared_ptr<core::PlanCache> plan_cache_;
  std::array<std::vector<double>, kR> read_by_losses_;  // [losses - 1]
  double encode_gbps_ = 0, decode_gbps_ = 0, plan_hits_ = 0, plan_misses_ = 0;
};

// small-requests ------------------------------------------------------

/// P(i) ~ 1 / i^s over ids 1..n.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) sum += std::pow(double(i + 1), -s);
    double acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += std::pow(double(i + 1), -s) / sum;
      cdf_[i] = acc;
    }
    cdf_.back() = 1.0;
  }
  std::uint64_t operator()(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    return static_cast<std::uint64_t>(
               std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin()) +
           1;
  }

 private:
  std::vector<double> cdf_;
};

/// Indices of free request buffers; the generator takes, the reaper
/// returns.
class SlotPool {
 public:
  explicit SlotPool(std::size_t n) {
    for (std::size_t i = n; i > 0; --i) free_.push_back(static_cast<std::uint32_t>(i - 1));
  }
  /// Blocks while none is free; *waited tells whether it had to.
  std::uint32_t take(bool* waited) {
    std::unique_lock lock(mutex_);
    *waited = free_.empty();
    cv_.wait(lock, [&] { return !free_.empty(); });
    const std::uint32_t s = free_.back();
    free_.pop_back();
    return s;
  }
  void give(std::uint32_t s) {
    {
      std::lock_guard lock(mutex_);
      free_.push_back(s);
    }
    cv_.notify_one();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::uint32_t> free_;
};

class SmallRequests final : public Workload {
 public:
  static constexpr std::size_t kUnit = 4096;
  static constexpr std::size_t kStripeBytes = kN * kUnit;
  static constexpr std::size_t kInputs = 64;
  static constexpr std::size_t kPatterns = 24;
  static constexpr std::size_t kTenants = 4;
  static constexpr std::size_t kClients = 16;
  static constexpr std::size_t kParitySlots = 2048;
  static constexpr std::size_t kStripeSlots = 512;
  /// R_fixed, the rate the latency metrics are taken at, and the ceiling
  /// of the capacity search.
  static constexpr double kRateFixed = 10000.0;
  static constexpr double kRateCeiling = 160000.0;
  static constexpr double kLadderFactor = 1.25;
  /// The latency limit of the capacity search: p99 from due time.
  static constexpr double kSloUs = 2000.0;

  explicit SmallRequests(std::uint64_t seed)
      : seed_(seed),
        pristine_(kInputs * kStripeBytes),
        parity_slots_(kParitySlots * kR * kUnit),
        stripe_slots_(kStripeSlots * kStripeBytes),
        parity_free_(kParitySlots),
        stripe_free_(kStripeSlots) {
    std::mt19937_64 rng(seed ^ 0x5AA11ULL);
    const ec::ReedSolomon rs(kParams);
    const gf::Matrix parity = rs.parity_matrix();
    for (std::size_t i = 0; i < kInputs; ++i)
      make_stripe(pristine_.data() + i * kStripeBytes, kUnit, rng, parity);
    patterns_ = make_patterns(rng, kPatterns, 1, 2);
  }

  void setup() override {
    service_.reset();
    service_ = std::make_unique<serve::ShardedEcService>(
        serve::ShardedServiceConfig{});
    // Warm every client's shard: one encode, and every decode pattern.
    // Waves of at most 64 requests stay inside any tenant's share.
    std::vector<serve::EcFuture> wave;
    for (std::uint64_t c = 0; c < kClients; ++c) {
      const serve::TenantId tenant = 1 + c % kTenants;
      wave.push_back(service_->submit_encode(
          tenant, c, key(), input(c).first(kK * kUnit), parity_slot(0), kUnit));
      for (std::size_t p = 0; p < kPatterns; ++p) {
        std::uint8_t* st = stripe_slot(static_cast<std::uint32_t>(p));
        std::memcpy(st, input(p).data(), kStripeBytes);
        wave.push_back(service_->submit_decode(tenant, c, key(), {st, kStripeBytes},
                                               patterns_[p], kUnit));
      }
      for (serve::EcFuture& f : wave)
        if (f.wait().status != serve::RequestStatus::Ok) ++warm_failures_;
      wave.clear();
    }
    std::memset(parity_slot(0).data(), 0, kR * kUnit);
  }

  void run(double seconds, Tracer* tracer, Report& rep) override {
    Tracer::Log* gen_log = tracer ? tracer->log(2) : nullptr;
    Tracer::Log* reap_log = tracer ? tracer->log(3) : nullptr;
    for (; warm_failures_ > 0; --warm_failures_)
      rep.fail("small-requests: a warm-up request did not complete Ok");
    const serve::ShardedStatsSnapshot s0 = service_->stats();

    // Half a second at R_fixed is run and checked but not timed.
    open_loop(kRateFixed, 0.5, 0, nullptr, nullptr, rep, /*rejections_fail=*/true);
    fixed_ = open_loop(kRateFixed, 0.6 * seconds, 1, gen_log, reap_log, rep,
                       /*rejections_fail=*/true);
    write_us = fixed_.enc_lat;
    read_us = fixed_.dec_lat;
    max_rps_ = capacity(0.4 * seconds, rep);
    throughput_gbps = max_rps_ * static_cast<double>(kK * kUnit) / 1e9;

    service_->shutdown(true);
    const serve::ShardedStatsSnapshot s1 = service_->stats();
    check_identities(s1, rep);
    auto mean_delta = [](const serve::LatencyHistogram& a,
                         const serve::LatencyHistogram& b) {
      const double n = static_cast<double>(b.count() - a.count());
      return n == 0 ? 0.0 : static_cast<double>(b.sum() - a.sum()) / n;
    };
    batch_width_mean_ = mean_delta(s0.aggregate.batch_width, s1.aggregate.batch_width);
    gemm_threads_mean_ = mean_delta(s0.aggregate.gemm_threads, s1.aggregate.gemm_threads);
    steal_requests_ = static_cast<double>(s1.steal_requests - s0.steal_requests);
    qos_rejected_ = static_cast<double>(s1.qos_rejected - s0.qos_rejected);
    rejected_overload_ = static_cast<double>(s1.aggregate.rejected_overload -
                                             s0.aggregate.rejected_overload);
    expired_ = static_cast<double>(s1.aggregate.expired - s0.aggregate.expired);
    plan_hits_ = static_cast<double>(s1.aggregate.plan_cache_hits -
                                     s0.aggregate.plan_cache_hits);
    plan_misses_ = static_cast<double>(s1.aggregate.plan_cache_misses -
                                       s0.aggregate.plan_cache_misses);
  }

  void layer_metrics(Report& rep) const override {
    const StepResult& f = fixed_;
    rep.set("small.req_p50_us", median(f.all_lat), "us");
    rep.set("small.req_p99_us", steady_p99(f.all_lat), "us");
    rep.set("small.max_rps_at_slo", max_rps_, "1/s");
    rep.set("serve.submit_us.p50", median(f.submit_us), "us");
    rep.set("serve.submit_us.p99", quantile(f.submit_us, 0.99), "us");
    rep.set("serve.queue_wait_us.p50", median(f.queue_us), "us");
    rep.set("serve.queue_wait_us.p99", quantile(f.queue_us, 0.99), "us");
    rep.set("serve.service_us.p50", median(f.service_us), "us");
    rep.set("serve.service_us.p99", quantile(f.service_us, 0.99), "us");
    rep.set("serve.handoff_us.p50", median(f.handoff_us), "us");
    rep.set("serve.handoff_us.p99", quantile(f.handoff_us, 0.99), "us");
    rep.set("serve.gen_late_p99_us", quantile(f.late_us, 0.99), "us");
    rep.set("serve.gen_late_max_us", quantile(f.late_us, 1.0), "us");
    rep.set("serve.batch_width_mean", batch_width_mean_, "count");
    rep.set("serve.gemm_threads_mean", gemm_threads_mean_, "count");
    rep.set("serve.steal_requests", steal_requests_, "count");
    rep.set("serve.qos_rejected", qos_rejected_, "count");
    rep.set("serve.rejected_overload", rejected_overload_, "count");
    rep.set("serve.expired", expired_, "count");
    rep.set("serve.goodput_gbps", throughput_gbps, "GB/s");
    rep.add("core.plan_cache_hits", plan_hits_, "count");
    rep.add("core.plan_cache_misses", plan_misses_, "count");
  }

 private:
  struct StepResult {
    std::vector<double> enc_lat, dec_lat, all_lat;  // us from due time
    std::vector<double> late_us, submit_us, queue_us, service_us, handoff_us;
    std::size_t rejected = 0;
    std::size_t failed = 0;  ///< failed or mis-verified, refusals aside
    std::size_t slot_waits = 0;
    std::size_t inflight_at_end = 0;
    std::vector<std::string> errors;  ///< one per failed request
  };

  struct InFlight {
    serve::EcFuture future;
    Clock::time_point due, submit0;
    std::uint32_t slot = 0;
    std::uint32_t input = 0;
    std::uint32_t pattern = 0;
    bool decode = false;
    bool last = false;  ///< sentinel: the generator is done
  };

  static serve::CodecKey key() { return {kK, kR, kW, ec::RsFamily::CauchyGood}; }
  std::span<const std::uint8_t> input(std::size_t i) const {
    return {pristine_.data() + (i % kInputs) * kStripeBytes, kStripeBytes};
  }
  std::span<std::uint8_t> parity_slot(std::uint32_t s) {
    return {parity_slots_.data() + std::size_t{s} * kR * kUnit, kR * kUnit};
  }
  std::uint8_t* stripe_slot(std::uint32_t s) {
    return stripe_slots_.data() + std::size_t{s} * kStripeBytes;
  }

  /// The capacity search's pass rule: nothing refused or failed, the
  /// windowed p99 of latency from due time and of generator lateness
  /// within the limit, and no growing backlog (the generator never ran out
  /// of request buffers, and what was in flight when it stopped is within
  /// two limits' worth of arrivals).
  static bool passes(const StepResult& r, double rate) {
    return r.rejected == 0 && r.failed == 0 && r.slot_waits == 0 &&
           steady_p99(r.all_lat) <= kSloUs &&
           steady_p99(r.late_us) <= kSloUs &&
           static_cast<double>(r.inflight_at_end) <=
               std::max(64.0, 2.0 * rate * kSloUs / 1e6);
  }

  /// max_rps_at_slo: offered rates climb by kLadderFactor from R_fixed
  /// (from R_fixed / 16 when R_fixed itself misses the limit) until two
  /// steps in a row fail `passes`, within `seconds` in all. At the first
  /// failure after a pass, the answer is interpolated between the two
  /// steps on log p99 against log rate, so it is not quantized to the
  /// ladder; a later pass replaces it.
  double capacity(double seconds, Report& rep) {
    const bool fixed_ok = passes(fixed_, kRateFixed);
    double pass_rate = fixed_ok ? kRateFixed : kRateFixed / 16;
    double pass_p99 = fixed_ok ? steady_p99(fixed_.all_lat) : 0.0;
    double answer = fixed_ok ? kRateFixed : 0.0;
    const int steps = static_cast<int>(
        std::ceil(std::log(kRateCeiling / pass_rate) / std::log(kLadderFactor)));
    const double step_s = seconds / steps;
    int fails = 0;
    double rate = pass_rate;
    for (int st = 0; st < steps && fails < 2; ++st) {
      rate *= kLadderFactor;
      const StepResult r = open_loop(rate, step_s, static_cast<std::uint64_t>(st) + 2,
                                     nullptr, nullptr, rep,
                                     /*rejections_fail=*/false);
      const double p99 = steady_p99(r.all_lat);
      if (passes(r, rate)) {
        fails = 0;
        pass_rate = answer = rate;
        pass_p99 = p99;
      } else if (fails++ == 0 && pass_p99 > 0 && p99 > kSloUs) {
        const double frac = (std::log(kSloUs) - std::log(pass_p99)) /
                            (std::log(p99) - std::log(pass_p99));
        answer = pass_rate * std::pow(rate / pass_rate, std::clamp(frac, 0.0, 1.0));
      }
    }
    return answer;
  }

  StepResult open_loop(double rate, double seconds, std::uint64_t step,
                       Tracer::Log* gen_log, Tracer::Log* reap_log,
                       Report& rep, bool rejections_fail) {
#ifdef __linux__
    // The generator sleeps until each due time; the default timer slack
    // (50 us) would make it late by design. Only the load threads get the
    // tighter slack: the service's threads already exist.
    const int slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
#endif
    StepResult res;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<InFlight> queue;
    std::atomic<std::size_t> inflight{0};

    std::thread reaper([&] {
      for (;;) {
        InFlight f;
        {
          std::unique_lock lock(mutex);
          cv.wait(lock, [&] { return !queue.empty(); });
          f = std::move(queue.front());
          queue.pop_front();
        }
        if (f.last) return;
        SpanScope wait_span(reap_log, "serve.wait");
        const serve::EcResult& r = f.future.wait();
        const auto seen = Clock::now();
        inflight.fetch_sub(1);
        if (r.status == serve::RequestStatus::Ok) {
          // From due time to the service completing the request. The
          // reaper collects futures in submission order, so when it saw a
          // result is skewed by earlier, slower requests on other shards;
          // that wake-up is reported as serve.handoff_us instead.
          const double lat = us_between(f.due, f.submit0) +
                             static_cast<double>(r.total.count()) / 1e3;
          (f.decode ? res.dec_lat : res.enc_lat).push_back(lat);
          res.all_lat.push_back(lat);
          res.queue_us.push_back(static_cast<double>(r.queue_wait.count()) / 1e3);
          res.service_us.push_back(static_cast<double>(r.service_time.count()) / 1e3);
          res.handoff_us.push_back(std::max(
              0.0, us_between(f.submit0, seen) -
                       static_cast<double>(r.total.count()) / 1e3));
          if (!verify(f))
            res.errors.push_back(f.decode ? "decode did not round-trip"
                                          : "encode parity differs from reference");
        } else if (r.status == serve::RequestStatus::Overloaded ||
                   r.status == serve::RequestStatus::Shed) {
          ++res.rejected;
          if (rejections_fail) res.errors.push_back("refused at R_fixed");
        } else {
          res.errors.push_back(std::string("request ended ") +
                               serve::to_string(r.status) + " " + r.error);
        }
        if (f.decode) {
          stripe_free_.give(f.slot);
        } else {
          std::memset(parity_slot(f.slot).data(), 0, kR * kUnit);
          parity_free_.give(f.slot);
        }
      }
    });

    std::mt19937_64 rng(seed_ * 1000003ULL + step);
    std::exponential_distribution<double> gap(rate);
    const Zipf tenants(kTenants, 1.0);
    const auto start = Clock::now() + std::chrono::milliseconds(1);
    const auto end = start + std::chrono::duration<double>(seconds);
    auto due = start;
    while (due < end) {
      InFlight f;
      f.due = due;
      f.decode = rng() % 10 == 0;
      f.input = static_cast<std::uint32_t>(rng() % kInputs);
      f.pattern = static_cast<std::uint32_t>(rng() % kPatterns);
      const serve::TenantId tenant = tenants(rng);
      const std::uint64_t client = rng() % kClients;
      bool waited = false;
      f.slot = (f.decode ? stripe_free_ : parity_free_).take(&waited);
      res.slot_waits += waited;
      if (f.decode) {
        std::uint8_t* st = stripe_slot(f.slot);
        std::memcpy(st, input(f.input).data(), kStripeBytes);
        for (std::size_t id : patterns_[f.pattern])
          std::memset(st + id * kUnit, static_cast<int>(0x5A ^ id), kUnit);
      }
      if (Clock::now() < due) std::this_thread::sleep_until(due);
      f.submit0 = Clock::now();
      res.late_us.push_back(us_between(due, f.submit0));
      {
        SpanScope sp(gen_log, f.decode ? "serve.submit_decode" : "serve.submit_encode");
        f.future = f.decode
                       ? service_->submit_decode(tenant, client, key(),
                                                 {stripe_slot(f.slot), kStripeBytes},
                                                 patterns_[f.pattern], kUnit)
                       : service_->submit_encode(tenant, client, key(),
                                                 input(f.input).first(kK * kUnit),
                                                 parity_slot(f.slot), kUnit);
      }
      res.submit_us.push_back(us_between(f.submit0, Clock::now()));
      rep.attempt();
      inflight.fetch_add(1);
      {
        std::lock_guard lock(mutex);
        queue.push_back(std::move(f));
      }
      cv.notify_one();
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap(rng)));
    }
    res.inflight_at_end = inflight.load();
    {
      std::lock_guard lock(mutex);
      InFlight sentinel;
      sentinel.last = true;
      queue.push_back(std::move(sentinel));
    }
    cv.notify_one();
    reaper.join();
#ifdef __linux__
    prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(slack), 0, 0, 0);
#endif
    for (const std::string& e : res.errors) rep.fail("small-requests: " + e);
    res.failed = res.errors.size() - (rejections_fail ? res.rejected : 0);
    return res;
  }

  bool verify(const InFlight& f) {
    const std::span<const std::uint8_t> ref = input(f.input);
    if (!f.decode)
      return std::memcmp(parity_slot(f.slot).data(), ref.data() + kK * kUnit,
                         kR * kUnit) == 0;
    return std::memcmp(stripe_slot(f.slot), ref.data(), kStripeBytes) == 0;
  }

  /// Aggregate, per-tenant and shard-sum identities of the sharded front.
  static void check_identities(const serve::ShardedStatsSnapshot& s,
                               Report& rep) {
    const serve::ServeStatsSnapshot& a = s.aggregate;
    if (a.submitted != a.accepted + a.rejected_overload + a.rejected_shed +
                           a.rejected_shutdown)
      rep.fail("serve identity: submitted != accepted + rejected");
    if (a.accepted != a.completed_ok + a.expired + a.failed + a.cancelled +
                          a.shutdown_drained)
      rep.fail("serve identity: accepted != terminal outcomes");
    for (const serve::TenantCounters& t : s.tenants)
      if (!t.admission_balanced() || !t.drained_balanced())
        rep.fail("serve identity: tenant " + std::to_string(t.tenant) +
                 " unbalanced");
    const serve::TenantCounters& ta = s.tenant_aggregate;
    if (ta.submitted != a.submitted || ta.accepted != a.accepted ||
        ta.completed_ok != a.completed_ok || ta.in_queue != 0 ||
        ta.rejected() != a.rejected_overload + a.rejected_shed + a.rejected_shutdown)
      rep.fail("serve identity: tenant aggregate != front aggregate");
    std::uint64_t shard_submitted = 0;
    for (const serve::ShardStatsSnapshot& sh : s.shards)
      shard_submitted += sh.stats.submitted;
    if (shard_submitted + s.qos_rejected != a.submitted)
      rep.fail("serve identity: shard submissions + QoS rejections != submitted");
  }

  std::uint64_t seed_;
  Bytes pristine_;
  Bytes parity_slots_;
  Bytes stripe_slots_;
  SlotPool parity_free_;
  SlotPool stripe_free_;
  std::vector<std::vector<std::size_t>> patterns_;
  std::unique_ptr<serve::ShardedEcService> service_;
  std::size_t warm_failures_ = 0;
  StepResult fixed_;
  double max_rps_ = 0;
  double batch_width_mean_ = 0, gemm_threads_mean_ = 0, steal_requests_ = 0,
         qos_rejected_ = 0, rejected_overload_ = 0, expired_ = 0,
         plan_hits_ = 0, plan_misses_ = 0;
};

// object-store --------------------------------------------------------

class ObjectStore final : public Workload {
 public:
  static constexpr std::size_t kUnit = 64 * 1024;
  static constexpr std::size_t kNodes = 16;
  static constexpr std::size_t kDomains = 4;
  static constexpr std::size_t kNames = 96;
  static constexpr std::size_t kPreload = 64;
  /// A healer tick runs after every this many client ops.
  static constexpr std::size_t kTickEvery = 4;
  /// The node crash happens once this share of the run has elapsed.
  static constexpr double kFailAt = 0.25;

  explicit ObjectStore(std::uint64_t seed) : seed_(seed), rng_(seed ^ 0x0B1ECULL) {
    for (std::size_t i = 0; i < kPreload; ++i) preload_.push_back(payload());
    fail_node_ = rng_() % kNodes;
  }

  void setup() override {
    healer_.reset();
    membership_.reset();
    cluster_.reset();
    cluster::ClusterConfig cc;
    cc.num_nodes = kNodes;
    cc.num_domains = kDomains;
    cc.seed = seed_;
    cluster_ = std::make_unique<cluster::Cluster>(kParams, kUnit, cc);
    plan_cache_ = std::make_shared<core::PlanCache>();
    cluster_->set_plan_cache(plan_cache_);
    injector_ = std::make_unique<storage::FaultInjector>(storage::FaultPolicy{}, seed_);
    cluster_->attach_fault_injector(injector_.get());
    membership_ = std::make_unique<cluster::Membership>(*cluster_);
    healer_ = std::make_unique<cluster::Healer>(*cluster_, membership_.get());
    copies_.assign(kNames, {});
    live_.assign(kNames, false);
    for (std::size_t i = 0; i < kPreload; ++i) {
      cluster_->put(name(i), preload_[i]);
      copies_[i] = preload_[i];
      live_[i] = true;
    }
    for (int t = 0; t < 16; ++t) healer_->tick();  // warm the gap estimators
  }

  void run(double seconds, Tracer* tracer, Report& rep) override {
    Tracer::Log* log = tracer ? tracer->log(4) : nullptr;
    write_us.clear();
    read_us.clear();
    degraded_us_.clear();
    tick_us_.clear();
    const cluster::ClusterStats c0 = cluster_->stats();
    const cluster::NetStats n0 = cluster_->net().stats();
    const cluster::RepairStats r0 = cluster_->repair_stats();
    const cluster::HealerStats h0 = healer_->stats();
    const std::uint64_t retries0 = cluster_->retry_stats().retries;
    const core::PlanCacheStats p0 = plan_cache_->stats();

    double put_s = 0, get_s = 0, put_bytes = 0, get_bytes = 0;
    std::size_t gets = 0, put_stripes = 0;
    heal_s_ = 0;
    ticks_to_dead_ = ticks_to_idle_ = 0;
    bool crashed = false, dead = false, healed = false;
    std::size_t ticks_since_crash = 0;
    const auto t_start = Clock::now();
    const auto deadline = t_start + std::chrono::duration<double>(seconds);

    auto tick = [&] {
      const auto t0 = Clock::now();
      {
        SpanScope sp(log, "healer.tick");
        healer_->tick();
      }
      const double us = us_between(t0, Clock::now());
      tick_us_.push_back(us);
      if (!crashed || healed) return;
      heal_s_ += us / 1e6;
      ++ticks_since_crash;
      if (!dead && healer_->stats().nodes_declared_dead > h0.nodes_declared_dead) {
        dead = true;
        ticks_to_dead_ = static_cast<double>(ticks_since_crash);
      }
      if (dead && healer_->pending() == 0) {
        healed = true;
        ticks_to_idle_ = static_cast<double>(ticks_since_crash);
      }
    };

    for (std::size_t op = 0; Clock::now() < deadline; ++op) {
      if (!crashed && seconds_between(t_start, Clock::now()) >= kFailAt * seconds) {
        injector_->crash_node(fail_node_);
        crashed = true;
      }
      const std::uint64_t roll = rng_() % 10;
      std::size_t i = pick(roll < 6 || roll == 9);  // gets and removes need a live name
      rep.attempt();
      SpanScope opspan(log, "bench.client_op");
      try {
        if (roll < 6 && live_[i]) {
          const std::size_t degraded0 = cluster_->stats().degraded_reads;
          const auto t0 = Clock::now();
          std::optional<std::vector<std::uint8_t>> got;
          {
            SpanScope sp(log, "cluster.get", opspan.id());
            got = cluster_->get(name(i));
          }
          const auto t1 = Clock::now();
          get_s += seconds_between(t0, t1);
          read_us.push_back(us_between(t0, t1));
          if (cluster_->stats().degraded_reads != degraded0)
            degraded_us_.push_back(read_us.back());
          get_bytes += static_cast<double>(copies_[i].size());
          ++gets;
          if (!got || *got != copies_[i])
            rep.fail("object-store: get of " + name(i) + " is not byte-exact");
        } else if (roll < 9 || !live_[i]) {
          std::vector<std::uint8_t> bytes = payload();
          const auto t0 = Clock::now();
          {
            SpanScope sp(log, "cluster.put", opspan.id());
            cluster_->put(name(i), bytes);
          }
          const auto t1 = Clock::now();
          put_s += seconds_between(t0, t1);
          write_us.push_back(us_between(t0, t1));
          put_bytes += static_cast<double>(bytes.size());
          put_stripes += (bytes.size() + kK * kUnit - 1) / (kK * kUnit);
          copies_[i] = std::move(bytes);
          live_[i] = true;
        } else {
          {
            SpanScope sp(log, "cluster.remove", opspan.id());
            cluster_->remove(name(i));
          }
          live_[i] = false;
          copies_[i].clear();
          if (cluster_->exists(name(i)))
            rep.fail("object-store: " + name(i) + " still exists after remove");
        }
      } catch (const std::exception& e) {
        rep.fail("object-store: op on " + name(i) + " threw: " + e.what());
      }
      if (op % kTickEvery == kTickEvery - 1) tick();
    }
    // The heal is part of the run: keep ticking until it completes. Then
    // settle the damage the last ops reported (a put can still place a
    // unit on the dead node) before checking the final state.
    for (std::size_t t = 0; crashed && !healed && t < 5000; ++t) tick();
    if (!healed || !healer_->run_until_idle(1000))
      rep.fail("object-store: the healer did not restore redundancy");
    check_final_state(rep);

    const cluster::ClusterStats c1 = cluster_->stats();
    const cluster::NetStats n1 = cluster_->net().stats();
    const cluster::RepairStats r1 = cluster_->repair_stats();
    const cluster::HealerStats h1 = healer_->stats();
    const core::PlanCacheStats p1 = plan_cache_->stats();
    throughput_gbps = (put_bytes + get_bytes) / (put_s + get_s) / 1e9;
    const double user_bytes = put_bytes + get_bytes;
    layer_ = {
        {"cluster.user_bytes", {user_bytes, "B"}},
        {"cluster.put_us_per_stripe",
         {put_s * 1e6 / static_cast<double>(std::max<std::size_t>(put_stripes, 1)), "us"}},
        {"cluster.net_bytes_per_user_byte",
         {static_cast<double>(n1.bytes_sent - n0.bytes_sent) / user_bytes, "ratio"}},
        {"cluster.cross_domain_bytes",
         {static_cast<double>(n1.cross_domain_bytes - n0.cross_domain_bytes), "B"}},
        {"cluster.virtual_read_us_per_get",
         {static_cast<double>(c1.read_virtual_us - c0.read_virtual_us) /
              static_cast<double>(std::max<std::size_t>(gets, 1)), "us"}},
        {"cluster.degraded_reads", {double(c1.degraded_reads - c0.degraded_reads), "count"}},
        {"cluster.hedged_reads", {double(c1.hedged_reads - c0.hedged_reads), "count"}},
        {"cluster.hedge_wins", {double(c1.hedge_wins - c0.hedge_wins), "count"}},
        {"cluster.retries", {double(cluster_->retry_stats().retries - retries0), "count"}},
        {"cluster.repair.units_repaired",
         {double(r1.units_repaired - r0.units_repaired), "count"}},
        {"cluster.repair.bytes_on_wire", {double(r1.bytes_on_wire - r0.bytes_on_wire), "B"}},
        {"object.repair_bytes_per_byte",
         {double(r1.bytes_on_wire - r0.bytes_on_wire) /
              (double(std::max<std::uint64_t>(r1.units_repaired - r0.units_repaired, 1)) *
               double(kUnit)), "ratio"}},
        {"healer.requeues", {double(h1.requeues - h0.requeues), "count"}},
        {"healer.throttled_ticks", {double(h1.throttled_ticks - h0.throttled_ticks), "count"}},
        {"healer.ticks_to_idle", {ticks_to_idle_, "count"}},
        {"membership.ticks_to_dead", {ticks_to_dead_, "count"}},
        {"object.heal_s", {heal_s_, "s"}},
        {"healer.tick_us.p50", {median(tick_us_), "us"}},
        {"healer.tick_us.p99", {quantile(tick_us_, 0.99), "us"}},
        {"object.put_p50_us", {median(write_us), "us"}},
        {"object.put_p99_us", {steady_p99(write_us), "us"}},
        {"object.get_p50_us", {median(read_us), "us"}},
        {"object.get_p99_us", {steady_p99(read_us), "us"}},
        {"object.degraded_get_p99_us", {quantile(degraded_us_, 0.99), "us"}},
    };
    plan_hits_ = static_cast<double>(p1.hits - p0.hits);
    plan_misses_ = static_cast<double>(p1.misses - p0.misses);
  }

  void layer_metrics(Report& rep) const override {
    for (const auto& [name, m] : layer_) rep.set(name, m.first, m.second);
    rep.add("core.plan_cache_hits", plan_hits_, "count");
    rep.add("core.plan_cache_misses", plan_misses_, "count");
  }

 private:
  static std::string name(std::size_t i) { return "obj" + std::to_string(i); }

  /// Lognormal object size (median 192 KiB, clamped to [1 KiB, 2 MiB]) and
  /// seeded contents.
  std::vector<std::uint8_t> payload() {
    std::lognormal_distribution<double> size(std::log(192.0 * 1024), 1.0);
    const double b = std::clamp(size(rng_), 1024.0, 2.0 * 1024 * 1024);
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(b));
    fill_random(bytes.data(), bytes.size(), rng_);
    return bytes;
  }

  /// A name to operate on: a random live one when `live` (falling back to
  /// any name when nothing is live), else any name.
  std::size_t pick(bool live) {
    const std::size_t start = rng_() % kNames;
    if (!live) return start;
    for (std::size_t d = 0; d < kNames; ++d)
      if (live_[(start + d) % kNames]) return (start + d) % kNames;
    return start;
  }

  /// After the heal: every stripe at full redundancy, every live object
  /// byte-exact, every removed one gone, and the declared identities.
  void check_final_state(Report& rep) {
    for (const std::string& n : cluster_->object_names())
      for (std::size_t s = 0; s < cluster_->object_stripe_count(n); ++s)
        if (cluster_->repairer().stripe_health(n, s).erased != 0)
          rep.fail("object-store: " + n + " stripe " + std::to_string(s) +
                   " left degraded");
    for (std::size_t i = 0; i < kNames; ++i) {
      if (!live_[i]) {
        if (cluster_->exists(name(i))) rep.fail("object-store: removed " + name(i) + " exists");
        continue;
      }
      try {
        const auto got = cluster_->get(name(i));
        if (!got || *got != copies_[i])
          rep.fail("object-store: " + name(i) + " diverges after the heal");
      } catch (const std::exception& e) {
        rep.fail("object-store: " + name(i) + " unreadable after the heal: " + e.what());
      }
    }
    if (!healer_->identity_holds()) rep.fail("healer identity violated");
    if (!membership_->probe_identity_holds()) rep.fail("membership probe identity violated");
    if (!membership_->transitions_balance()) rep.fail("membership transition identity violated");
    if (!cluster_->repair_stats().identity_holds()) rep.fail("repair identity violated");
    if (!cluster_->net().stats().balanced()) rep.fail("network byte ledger does not balance");
  }

  std::uint64_t seed_;
  std::mt19937_64 rng_;
  std::vector<std::vector<std::uint8_t>> preload_;
  std::size_t fail_node_ = 0;
  // Declared in teardown order: the healer and membership point into the
  // cluster, the cluster into the injector.
  std::unique_ptr<storage::FaultInjector> injector_;
  std::shared_ptr<core::PlanCache> plan_cache_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<cluster::Membership> membership_;
  std::unique_ptr<cluster::Healer> healer_;
  std::vector<std::vector<std::uint8_t>> copies_;  // the client's copy
  std::vector<bool> live_;
  std::vector<double> degraded_us_, tick_us_;
  double heal_s_ = 0, ticks_to_dead_ = 0, ticks_to_idle_ = 0;
  double plan_hits_ = 0, plan_misses_ = 0;
  std::vector<std::pair<std::string, std::pair<double, const char*>>> layer_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "bulk-stripes") return std::make_unique<BulkStripes>(seed);
  if (name == "small-requests") return std::make_unique<SmallRequests>(seed);
  if (name == "object-store") return std::make_unique<ObjectStore>(seed);
  return nullptr;
}

// ---------------------------------------------------------------------
// Layer probes (traced runs): every layer measured on the workloads'
// shapes in the same process, each ratio next to its base.

/// Sets `name` to the median of a probe's samples and returns it. A sample
/// that falls into two modes is reported on stdout rather than hidden
/// behind its median.
double set_probe(Report& rep, const std::string& name,
                 const std::vector<double>& samples, const char* unit) {
  const Modes m = modes(samples);
  if (m.bimodal)
    std::printf("bimodal %s: %.4g vs %.4g %s\n", name.c_str(), m.lo, m.hi, unit);
  const double v = median(samples);
  rep.set(name, v, unit);
  return v;
}

/// The encode bitmatrix as the broadcast-mask A operand of gemm_xorand.
tensor::AlignedBuffer<std::uint64_t> encode_masks(const ec::ReedSolomon& rs) {
  const gf::BitMatrix bm = gf::BitMatrix::from_gf_matrix(rs.parity_matrix());
  tensor::AlignedBuffer<std::uint64_t> a(bm.rows() * bm.cols());
  for (std::size_t i = 0; i < bm.rows(); ++i)
    for (std::size_t j = 0; j < bm.cols(); ++j)
      a[i * bm.cols() + j] = bm.get(i, j) ? ~std::uint64_t{0} : 0;
  return a;
}

/// Samples of gemm_xorand throughput (data GB/s) for the encode of one
/// stripe of `unit`-byte units under `sched`; the first call's output is
/// checked against the reference parity.
std::vector<double> gemm_gbps(const tensor::AlignedBuffer<std::uint64_t>& masks,
                              const std::uint8_t* stripe, std::size_t unit,
                              const tensor::Schedule& sched, std::size_t rounds,
                              std::size_t inner, Report& rep) {
  const std::size_t words = unit / (8 * kW);
  Bytes parity(kR * unit);
  const tensor::MatView<const std::uint64_t> a{masks.data(), kR * kW, kK * kW, kK * kW};
  const tensor::MatView<const std::uint64_t> b{
      reinterpret_cast<const std::uint64_t*>(stripe), kK * kW, words, words};
  const tensor::MatView<std::uint64_t> c{
      reinterpret_cast<std::uint64_t*>(parity.data()), kR * kW, words, words};
  tensor::gemm_xorand(a, b, c, sched);
  rep.attempt();
  if (std::memcmp(parity.data(), stripe + kK * unit, kR * unit) != 0)
    rep.fail("probe: gemm_xorand parity differs from reference");
  return to_gbps(time_samples([&] { tensor::gemm_xorand(a, b, c, sched); },
                              rounds, inner),
                 static_cast<double>(kK * unit));
}

/// The shared pool's GEMMs run about 2.5x slow for the first second of a
/// process; nothing is timed, set-up included, until they have run that
/// long.
void settle_pool() {
  constexpr std::size_t kUnit = std::size_t{1} << 20;
  const auto masks = encode_masks(ec::ReedSolomon(kParams));
  const std::size_t words = kUnit / (8 * kW);
  tensor::AlignedBuffer<std::uint64_t> data(kK * kW * words), parity(kR * kW * words);
  const tensor::Schedule pool = serve::default_service_schedule();
  for (const auto until = Clock::now() + std::chrono::seconds(1); Clock::now() < until;)
    tensor::gemm_xorand({masks.data(), kR * kW, kK * kW, kK * kW},
                        {data.data(), kK * kW, words, words},
                        {parity.data(), kR * kW, words, words}, pool);
}

void run_probes(std::uint64_t seed, Report& rep,
                const std::vector<std::vector<std::size_t>>& bulk_patterns) {
  std::mt19937_64 rng(seed ^ 0x9B0BEULL);
  const ec::ReedSolomon rs(kParams);
  const gf::Matrix parity_matrix = rs.parity_matrix();
  const auto masks = encode_masks(rs);
  const tensor::Schedule pool = serve::default_service_schedule();
  tensor::Schedule serial = pool;
  serial.num_threads = 1;

  // Roofline and tensor, at the bulk-stripes shape (1 MiB units).
  constexpr std::size_t kBig = std::size_t{1} << 20;
  Bytes big(kN * kBig);
  make_stripe(big.data(), kBig, rng, parity_matrix);
  Bytes copy(kK * kBig);
  const double data_big = static_cast<double>(kK * kBig);
  const double memcpy_gbps = set_probe(
      rep, "host.memcpy_gbps",
      to_gbps(time_samples([&] { std::memcpy(copy.data(), big.data(), kK * kBig); }, 15, 3),
              data_big),
      "GB/s");
  const double serial_gbps = set_probe(rep, "tensor.gemm_serial_gbps",
                                       gemm_gbps(masks, big.data(), kBig, serial, 9, 2, rep),
                                       "GB/s");
  const double pool_gbps = set_probe(rep, "tensor.gemm_pool_gbps",
                                     gemm_gbps(masks, big.data(), kBig, pool, 15, 3, rep),
                                     "GB/s");
  rep.set("tensor.gemm_pool_over_serial", pool_gbps / serial_gbps, "ratio");
  rep.set("tensor.gemm_pool_over_memcpy", pool_gbps / memcpy_gbps, "ratio");

  constexpr std::size_t kMid = 128 * 1024;
  Bytes mid(kN * kMid);
  make_stripe(mid.data(), kMid, rng, parity_matrix);
  const Modes m128 = modes(gemm_gbps(masks, mid.data(), kMid, pool, 25, 8, rep));
  rep.set("tensor.gemm_pool_128k.lo_gbps", m128.lo, "GB/s");
  rep.set("tensor.gemm_pool_128k.hi_gbps", m128.hi, "GB/s");
  rep.set("tensor.gemm_pool_128k.bimodal", m128.bimodal ? 1.0 : 0.0, "flag");
  if (m128.bimodal)
    std::printf("bimodal tensor.gemm_pool_gbps at 128 KiB: %.4g vs %.4g GB/s\n",
                m128.lo, m128.hi);

  // Operands in L1: 2 KiB units, A + B + C ~ 48 KiB.
  constexpr std::size_t kTiny = 2048;
  Bytes tiny(kN * kTiny);
  make_stripe(tiny.data(), kTiny, rng, parity_matrix);
  set_probe(rep, "tensor.micro_l1_gbps",
            gemm_gbps(masks, tiny.data(), kTiny, serial, 9, 2000, rep), "GB/s");

  // Wasted work: ones of the expanded bitmatrix against the dense M*K the
  // kernel executes, for the encode matrix and the bulk decode matrices.
  double useful = static_cast<double>(gf::BitMatrix::from_gf_matrix(parity_matrix).ones());
  double dense = static_cast<double>(kR * kW * kK * kW);
  for (const auto& p : bulk_patterns) {
    const auto plan = ec::make_decode_plan(rs.generator(), p);
    if (!plan) continue;
    useful += static_cast<double>(gf::BitMatrix::from_gf_matrix(plan->recovery).ones());
    dense += static_cast<double>(plan->erased.size() * kW * plan->survivors.size() * kW);
  }
  rep.set("tensor.useful_xors", useful, "count");
  rep.set("tensor.dense_xors", dense, "count");
  rep.set("tensor.useful_xor_ratio", useful / dense, "ratio");

  // core, at the same shapes.
  core::Codec codec(kParams);
  codec.set_schedule(pool);
  const std::span<const std::uint8_t> big_data(big.data(), kK * kBig);
  Bytes out(kR * kBig);
  const double encode_gbps = set_probe(
      rep, "core.encode_gbps",
      to_gbps(time_samples([&] { codec.encode(big_data, out.span(), kBig); }, 15, 3), data_big),
      "GB/s");
  rep.set("core.encode_over_gemm", encode_gbps / pool_gbps, "ratio");
  rep.attempt();
  if (std::memcmp(big.data() + kK * kBig, out.data(), kR * kBig) != 0)
    rep.fail("probe: codec encode differs from reference");
  for (std::size_t e = 1; e <= kR; ++e) {
    std::vector<std::size_t> lost(e);
    for (std::size_t u = 0; u < e; ++u) lost[u] = u;
    const std::span<std::uint8_t> stripe(big.data(), kN * kBig);
    std::memset(big.data(), 0, e * kBig);
    codec.decode(stripe, lost, kBig);
    rep.attempt();
    if (std::memcmp(big.data(), copy.data(), kK * kBig) != 0)
      rep.fail("probe: codec decode did not round-trip");
    set_probe(rep, "core.decode_gbps.e" + std::to_string(e),
              to_gbps(time_samples([&] { codec.decode(stripe, lost, kBig); }, 9, 2), data_big),
              "GB/s");
  }
  std::vector<const std::uint8_t*> data_ptrs;
  std::vector<std::uint8_t*> parity_ptrs;
  for (std::size_t u = 0; u < kK; ++u) data_ptrs.push_back(big.data() + u * kBig);
  for (std::size_t u = 0; u < kR; ++u) parity_ptrs.push_back(out.data() + u * kBig);
  set_probe(rep, "core.encode_scattered_gbps",
            to_gbps(time_samples([&] { codec.encode_scattered(data_ptrs, parity_ptrs, kBig); },
                                 15, 3),
                    data_big),
            "GB/s");

  constexpr std::size_t kSmall = 4096, kItems = 32;
  Bytes batch_in(kItems * kK * kSmall), batch_out(kItems * kR * kSmall);
  fill_random(batch_in.data(), batch_in.size(), rng);
  std::vector<ec::CoderBatchItem> items;
  for (std::size_t i = 0; i < kItems; ++i)
    items.push_back({{batch_in.data() + i * kK * kSmall, kK * kSmall},
                     {batch_out.data() + i * kR * kSmall, kR * kSmall},
                     kSmall});
  set_probe(rep, "core.encode_batch_gbps",
            to_gbps(time_samples([&] { codec.encode_batch(items); }, 15, 50),
                    static_cast<double>(kItems * kK * kSmall)),
            "GB/s");

  // Cold decode plans: a fresh codec per pattern, at a unit small enough
  // that the plan, not the GEMM, dominates the first decode.
  std::vector<double> build_us;
  Bytes small_stripe(kN * kSmall);
  make_stripe(small_stripe.data(), kSmall, rng, parity_matrix);
  const auto cold = make_patterns(rng, 12, 1, 4);
  for (const auto& p : cold) {
    core::Codec fresh(kParams);
    fresh.set_plan_cache(std::make_shared<core::PlanCache>());
    const std::span<std::uint8_t> st(small_stripe.data(), small_stripe.size());
    const auto t0 = Clock::now();
    fresh.decode(st, p, kSmall);
    const double cold_us = us_between(t0, Clock::now());
    const double warm_us =
        median(time_samples([&] { fresh.decode(st, p, kSmall); }, 5, 4)) * 1e6;
    build_us.push_back(cold_us - warm_us);
  }
  set_probe(rep, "core.plan_build_us", build_us, "us");

  // The single-stripe encode under the cluster's codec schedule at the
  // object-store unit: the base of cluster.put_over_encode.
  constexpr std::size_t kObj = 64 * 1024;
  Bytes obj(kN * kObj);
  make_stripe(obj.data(), kObj, rng, parity_matrix);
  core::Codec cluster_codec(kParams);
  const std::span<const std::uint8_t> obj_data(obj.data(), kK * kObj);
  const std::span<std::uint8_t> obj_parity(obj.data() + kK * kObj, kR * kObj);
  set_probe(rep, "core.encode_64k_us",
            to_us(time_samples([&] { cluster_codec.encode(obj_data, obj_parity, kObj); }, 15, 20)),
            "us");
  set_probe(rep, "storage.crc32c_gbps",
            to_gbps(time_samples([&] { (void)storage::crc32c(obj_data.first(kObj)); }, 15, 200),
                    static_cast<double>(kObj)),
            "GB/s");

  // One heartbeat round on an idle 16-node cluster.
  cluster::ClusterConfig cc;
  cc.num_nodes = 16;
  cc.num_domains = 4;
  cluster::Cluster idle(kParams, kObj, cc);
  cluster::Membership membership(idle);
  set_probe(rep, "membership.tick_us", to_us(time_samples([&] { membership.tick(); }, 15, 20)),
            "us");
}

// ---------------------------------------------------------------------
// Driver

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string commit = "unknown";
  std::string trace_file;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<bulk-stripes|small-requests|object-store> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>] [--trace-file <path>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v), have_seed = true;
      else if (flag == "--seconds") a.seconds = std::stod(v), have_seconds = true;
      else if (flag == "--trace") a.trace = std::stoi(v) != 0, have_trace = true;
      else if (flag == "--commit") a.commit = v;
      else if (flag == "--trace-file") a.trace_file = v;
      else usage(("unknown flag " + flag).c_str());
    } catch (const std::exception&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), a.workload) ==
      std::end(kWorkloads))
    usage("unknown workload");
  if (!have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  if (!(a.seconds > 0 && a.seconds <= 600)) usage("--seconds out of range");
  return a;
}

long cache_bytes(int name) {
  const long v = sysconf(name);
  return v > 0 ? v : 0;
}

/// What a result must be read against: commit, host and build.
std::string stamp_json(const Args& a) {
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "{\"commit\": \"%s\", \"nproc\": %u, \"pool_threads\": %zu, "
      "\"kernel_variant\": \"%s\", \"l1d_bytes\": %ld, \"l2_bytes\": %ld, "
      "\"l3_bytes\": %ld, \"build_type\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}",
      a.commit.c_str(), std::thread::hardware_concurrency(),
      tensor::ThreadPool::shared().size(),
      tensor::to_string(tensor::active_variant()),
      cache_bytes(_SC_LEVEL1_DCACHE_SIZE), cache_bytes(_SC_LEVEL2_CACHE_SIZE),
      cache_bytes(_SC_LEVEL3_CACHE_SIZE), PERFBENCH_BUILD_TYPE,
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0);
  return buf;
}

/// Prints the medians of ten consecutive windows of a latency sample and
/// flags the run when they fall into two modes.
void print_windows(const char* name, const std::vector<double>& ordered) {
  constexpr std::size_t kWindows = 10;
  if (ordered.size() < kWindows) return;
  std::vector<double> meds;
  const std::size_t per = ordered.size() / kWindows;
  std::printf("windows %s", name);
  for (std::size_t w = 0; w < kWindows; ++w) {
    const auto first = ordered.begin() + static_cast<std::ptrdiff_t>(w * per);
    meds.push_back(median(std::vector<double>(first, first + static_cast<std::ptrdiff_t>(per))));
    std::printf(" %.1f", meds.back());
  }
  const Modes m = modes(meds);
  if (m.bimodal) std::printf("  BIMODAL %.1f vs %.1f", m.lo, m.hi);
  std::printf("\n");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::string stamp = stamp_json(args);
  std::printf("stamp %s\n", stamp.c_str());
  Report rep;

  settle_pool();
  if (!args.trace) {
    std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
    // Set-up is repeated and its median reported, so one slow page-in or
    // thread spawn does not decide the figure.
    std::vector<double> setups;
    for (int i = 0; i < 9; ++i) {
      const auto t0 = Clock::now();
      w->setup();
      setups.push_back(seconds_between(t0, Clock::now()));
    }
    w->run(args.seconds, nullptr, rep);
    rep.set("setup_s", median(setups), "s");
    rep.set("throughput_gbps", w->throughput_gbps, "GB/s");
    rep.set("write_p50_us", median(w->write_us), "us");
    rep.set("read_p50_us", w->read_p50_us(), "us");
    rep.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::printf("samples writes %zu reads %zu\n", w->write_us.size(),
                w->read_us.size());
    print_windows("write_p50_us", w->write_us);
    print_windows("read_p50_us", w->read_us);
    if (auto* b = dynamic_cast<BulkStripes*>(w.get())) b->diag();
  } else {
    const tensor::KernelStageStats stage0 = tensor::kernel_stage_stats();
    run_probes(args.seed, rep, BulkStripes::loss_patterns(args.seed));
    // The chosen workload untraced, then every workload traced, each for
    // a quarter of the run.
    const double slice = args.seconds / 4;
    double untraced_p50 = 0, traced_p50 = 0;
    {
      std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
      w->setup();
      w->run(slice, nullptr, rep);
      untraced_p50 = median(w->write_us);
    }
    Tracer tracer;
    for (const char* name : kWorkloads) {
      std::unique_ptr<Workload> w = make_workload(name, args.seed);
      w->setup();
      w->run(slice, &tracer, rep);
      w->layer_metrics(rep);
      if (args.workload == name) traced_p50 = median(w->write_us);
    }
    const tensor::KernelStageStats stage1 = tensor::kernel_stage_stats();
    rep.set("tensor.stage_bytes",
            static_cast<double>(stage1.stage_bytes - stage0.stage_bytes), "B");
    rep.set("tensor.scratch_high_water_bytes",
            static_cast<double>(stage1.scratch_high_water_bytes), "B");
    rep.set("serve.goodput_over_kernel",
            rep.get("serve.goodput_gbps") / rep.get("core.encode_batch_gbps"), "ratio");
    rep.set("cluster.put_over_encode",
            rep.get("cluster.put_us_per_stripe") / rep.get("core.encode_64k_us"), "ratio");
    rep.set("trace.overhead_pct", (traced_p50 / untraced_p50 - 1.0) * 100.0, "%");
    std::printf("trace spans %zu\n", tracer.span_count());
    tracer.print_summary();
    if (!args.trace_file.empty()) tracer.write_chrome(args.trace_file, stamp);
  }

  std::printf("%s\n", rep.json().c_str());
  std::fflush(stdout);
  return rep.failed() == 0 ? 0 : 1;
}
