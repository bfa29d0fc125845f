#include "tune/tuning_log.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "tensor/variant.h"

namespace tvmec::tune {

namespace {

std::string shape_key(const TaskShape& shape) {
  return std::to_string(shape.m) + "x" + std::to_string(shape.n) + "x" +
         std::to_string(shape.k);
}

}  // namespace

std::vector<LogRecord> load_log_all(const std::string& path,
                                    LoadLogStats* stats) {
  std::ifstream in(path);
  if (!in) return {};
  std::vector<LogRecord> records;
  std::string line;
  std::size_t line_no = 0;
  const auto error = [&](const char* what) {
    return std::runtime_error(std::string("load_log: ") + what + " at " +
                              path + ":" + std::to_string(line_no));
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    // <m>x<n>x<k> | <schedule string, token count era-dependent> | throughput
    const std::size_t bar1 = line.find('|');
    const std::size_t bar2 =
        bar1 == std::string::npos ? std::string::npos : line.find('|', bar1 + 1);
    if (bar2 == std::string::npos) throw error("malformed record");
    LogRecord rec;
    char x1 = 0, x2 = 0;
    std::istringstream key_field(line.substr(0, bar1));
    std::istringstream value_field(line.substr(bar2 + 1));
    if (!(key_field >> rec.shape.m >> x1 >> rec.shape.n >> x2 >>
          rec.shape.k) ||
        x1 != 'x' || x2 != 'x')
      throw error("malformed shape key");
    if (!(value_field >> rec.throughput)) throw error("malformed record");
    const std::string text = line.substr(bar1 + 1, bar2 - bar1 - 1);
    const std::size_t first = text.find_first_not_of(' ');
    if (first == std::string::npos) throw error("malformed record");
    try {
      rec.schedule = tensor::Schedule::parse(
          text.substr(first, text.find_last_not_of(' ') - first + 1));
    } catch (const std::invalid_argument&) {
      throw error("bad schedule");
    }
    if (rec.schedule.variant != tensor::KernelVariant::Auto &&
        !tensor::variant_available(rec.schedule.variant)) {
      // Tuned on a machine with a tier this host lacks; its measurement
      // is meaningless here. Skip it, keep the rest of the log.
      std::fprintf(stderr,
                   "tvmec: load_log: %s:%zu: dropping record tuned for "
                   "unavailable kernel variant '%s'\n",
                   path.c_str(), line_no,
                   tensor::to_string(rec.schedule.variant));
      if (stats != nullptr) ++stats->dropped_unavailable_variant;
      continue;
    }
    records.push_back(std::move(rec));
  }
  return records;
}

std::optional<ScheduleCache::Entry> ScheduleCache::lookup(
    const TaskShape& shape) const {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(shape);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return it->second;
}

void ScheduleCache::install(const TaskShape& shape, const Entry& entry) {
  std::lock_guard lock(mutex_);
  entries_[shape] = entry;
  ++stats_.installs;
}

std::size_t ScheduleCache::load(const std::string& path) {
  LoadLogStats dropped;
  const std::vector<LogRecord> records = load_log_all(path, &dropped);

  std::lock_guard lock(mutex_);
  stats_.loaded_records += records.size();
  stats_.dropped_unavailable_variant += dropped.dropped_unavailable_variant;
  std::size_t merged = 0;
  for (const LogRecord& rec : records) {
    const Entry entry{rec.schedule, rec.throughput};
    const auto [it, inserted] = entries_.try_emplace(rec.shape, entry);
    if (inserted || rec.throughput > it->second.throughput) {
      it->second = entry;
      ++merged;
    }
  }
  return merged;
}

void ScheduleCache::save(const std::string& path) const {
  std::vector<std::pair<TaskShape, Entry>> snapshot;
  {
    std::lock_guard lock(mutex_);
    snapshot.assign(entries_.begin(), entries_.end());
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out)
      throw std::runtime_error("ScheduleCache::save: cannot open " + tmp);
    out << "# tvmec schedule cache: best schedule per GEMM task shape "
           "(tuning-log format)\n";
    for (const auto& [shape, entry] : snapshot)
      out << shape_key(shape) << " | " << entry.schedule.to_string() << " | "
          << entry.throughput << "\n";
    if (!out)
      throw std::runtime_error("ScheduleCache::save: write failed on " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("ScheduleCache::save: rename failed for " +
                             path);
  std::lock_guard lock(mutex_);
  ++stats_.saves;
}

std::size_t ScheduleCache::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

ScheduleCache::Stats ScheduleCache::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace tvmec::tune
