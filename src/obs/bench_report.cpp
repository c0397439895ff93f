#include "obs/bench_report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "stats/confidence.hpp"
#include "stats/descriptive.hpp"

namespace sci::obs {

const char* to_string(Improve improve) noexcept {
  return improve == Improve::kHigher ? "higher" : "lower";
}

constexpr auto report_fields = [](auto& io, auto& report) {
  io.schema({"scibench.bench", BenchReport::kVersion});
  io("bench", report.bench);
  io("git_sha", report.git_sha);
  io.dict("context", report.context);  // std::map: sorted by key
  io.list("metrics", report.metrics, metric_fields);
  io.list("counters", report.counters, counter_fields);
};

std::string bench_report_json(const BenchReport& report) {
  // Counters sorted by name: deterministic across platforms regardless
  // of the order the harness recorded them in.
  if (!std::is_sorted(report.counters.begin(), report.counters.end())) {
    BenchReport sorted = report;
    std::sort(sorted.counters.begin(), sorted.counters.end());
    return bench_report_json(sorted);
  }
  return json::write(json::Layout::kIndented, report_fields, report);
}

BenchReport parse_bench_report(std::string_view json_text) {
  BenchReport report;
  json::Reader(json::parse(json_text), "bench report").read(report_fields, report);
  return report;
}

BenchReport load_bench_report(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse_bench_report(buffer.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

bool write_file_atomic(const std::string& path, std::string_view text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

BenchReporter::BenchReporter(std::string bench_name) {
  report_.bench = std::move(bench_name);
  if (const char* sha = std::getenv("SCIBENCH_GIT_SHA"); sha != nullptr && *sha != '\0') {
    report_.git_sha = sha;
  }
#ifdef NDEBUG
  constexpr const char* build_type = "release";
#else
  constexpr const char* build_type = "debug";
#endif
#if defined(SCIBENCH_POOLING) && !SCIBENCH_POOLING
  constexpr const char* pooling = "0";
#else
  constexpr const char* pooling = "1";
#endif
  // Constructed in place, not assigned: gcc 12 in Release reports a
  // false -Wrestrict overlap for string assignment from a literal here.
  report_.context.emplace("build_type", build_type);
  report_.context.emplace("pooling", pooling);
  report_.context.emplace("hardware_concurrency",
                          std::to_string(std::thread::hardware_concurrency()));
}

BenchReporter& BenchReporter::set_context(std::string key, std::string value) {
  report_.context[std::move(key)] = std::move(value);
  return *this;
}

BenchMetric& BenchReporter::add_metric(std::string name, std::string unit,
                                       std::span<const double> samples, Improve improve) {
  if (samples.empty()) {
    throw std::invalid_argument("BenchReporter::add_metric: no samples for " + name);
  }
  BenchMetric metric;
  metric.name = std::move(name);
  metric.unit = std::move(unit);
  metric.improve = improve;
  metric.n = samples.size();
  const auto sorted = stats::sorted_copy(samples);
  metric.median = stats::quantile_sorted(sorted, 0.5);
  const stats::Interval ci = stats::median_interval_sorted(sorted);
  metric.ci_lo = ci.lower;
  metric.ci_hi = ci.upper;
  return add_summary(std::move(metric));
}

BenchMetric& BenchReporter::add_summary(BenchMetric metric) {
  report_.metrics.push_back(std::move(metric));
  return report_.metrics.back();
}

BenchReporter& BenchReporter::add_counter(std::string name, std::uint64_t value) {
  for (auto& [existing, existing_value] : report_.counters) {
    if (existing == name) {
      existing_value = value;
      return *this;
    }
  }
  report_.counters.emplace_back(std::move(name), value);
  return *this;
}

std::string BenchReporter::json_path(const std::string& dir) const {
  return dir + "/BENCH_" + report_.bench + ".json";
}

std::string BenchReporter::write_json(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort; write reports failure
  const std::string path = json_path(dir);
  if (!write_file_atomic(path, bench_report_json(report_))) return {};
  return path;
}

}  // namespace sci::obs
