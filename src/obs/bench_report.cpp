#include "obs/bench_report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/json.hpp"
#include "stats/confidence.hpp"
#include "stats/descriptive.hpp"

namespace sci::obs {

const char* to_string(Improve improve) noexcept {
  return improve == Improve::kHigher ? "higher" : "lower";
}

Improve improve_from_string(std::string_view text) {
  if (text == "higher") return Improve::kHigher;
  if (text == "lower") return Improve::kLower;
  throw std::runtime_error("bench report: improve must be \"higher\" or \"lower\", got \"" +
                           std::string(text) + "\"");
}

std::string bench_report_json(const BenchReport& report) {
  std::string out;
  out.reserve(512 + report.metrics.size() * 160);
  out += "{\n  \"schema\": \"scibench.bench\",\n  \"version\": ";
  out += json::dump_size(static_cast<std::size_t>(BenchReport::kVersion));
  out += ",\n  \"bench\": ";
  json::append_quoted(out, report.bench);
  out += ",\n  \"git_sha\": ";
  json::append_quoted(out, report.git_sha);
  out += ",\n  \"context\": {";
  bool first = true;
  for (const auto& [key, value] : report.context) {  // std::map: sorted by key
    out += first ? "\n    " : ",\n    ";
    first = false;
    json::append_quoted(out, key);
    out += ": ";
    json::append_quoted(out, value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"metrics\": [";
  first = true;
  for (const auto& m : report.metrics) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"name\": ";
    json::append_quoted(out, m.name);
    out += ", \"unit\": ";
    json::append_quoted(out, m.unit);
    out += ", \"improve\": ";
    json::append_quoted(out, to_string(m.improve));
    out += ", \"n\": " + json::dump_size(m.n);
    out += ", \"median\": " + json::dump_number(m.median);
    out += ", \"ci_lo\": " + json::dump_number(m.ci_lo);
    out += ", \"ci_hi\": " + json::dump_number(m.ci_hi);
    out += "}";
  }
  out += first ? "],\n" : "\n  ],\n";
  // Counters sorted by name: deterministic across platforms regardless
  // of the order the harness recorded them in.
  CounterSnapshot counters = report.counters;
  std::sort(counters.begin(), counters.end());
  out += "  \"counters\": [";
  first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"name\": ";
    json::append_quoted(out, name);
    out += ", \"value\": " + json::dump_size(static_cast<std::size_t>(value));
    out += "}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

BenchReport parse_bench_report(std::string_view json_text) {
  const json::Value root = json::parse(json_text);
  if (root.type != json::Value::Type::kObject) {
    throw std::runtime_error("bench report: top level must be an object");
  }
  if (root.at("schema").as_string() != "scibench.bench") {
    throw std::runtime_error("bench report: unknown schema \"" +
                             root.at("schema").as_string() + "\"");
  }
  const std::size_t version = root.at("version").as_size();
  if (version != static_cast<std::size_t>(BenchReport::kVersion)) {
    throw std::runtime_error("bench report: unsupported version " +
                             std::to_string(version));
  }
  BenchReport report;
  report.bench = root.at("bench").as_string();
  report.git_sha = root.at("git_sha").as_string();
  for (const auto& [key, value] : root.at("context").as_object()) {
    report.context[key] = value.as_string();
  }
  for (const auto& m : root.at("metrics").as_array()) {
    BenchMetric metric;
    metric.name = m.at("name").as_string();
    metric.unit = m.at("unit").as_string();
    metric.improve = improve_from_string(m.at("improve").as_string());
    metric.n = m.at("n").as_size();
    metric.median = m.at("median").as_number();
    metric.ci_lo = m.at("ci_lo").as_number();
    metric.ci_hi = m.at("ci_hi").as_number();
    report.metrics.push_back(std::move(metric));
  }
  for (const auto& c : root.at("counters").as_array()) {
    report.counters.emplace_back(c.at("name").as_string(),
                                 static_cast<std::uint64_t>(c.at("value").as_size()));
  }
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

std::string BenchReporter::render_markdown() const {
  std::string out = "| metric | unit | n | median | 95% CI |\n|---|---|---|---|---|\n";
  char buf[160];
  for (const auto& m : report_.metrics) {
    std::snprintf(buf, sizeof buf, "| `%s` | %s | %zu | %.6g | [%.6g, %.6g] |\n",
                  m.name.c_str(), m.unit.c_str(), m.n, m.median, m.ci_lo, m.ci_hi);
    out += buf;
  }
  return out;
}

}  // namespace sci::obs
