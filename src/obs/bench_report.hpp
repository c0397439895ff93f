// Machine-readable bench telemetry (the self-benchmarking face of
// Rule 12: performance claims must be comparable over time, including
// this repo's own).
//
// Every bench_* harness that reports medians + 95% nonparametric CIs
// routes them through a BenchReporter: the harness keeps its prose
// stdout, and `--json DIR` additionally writes a schema-versioned
// `BENCH_<name>.json` that tools/scibench_ci can ingest into the
// append-only performance history. One emitter (obs/json.hpp) and a
// fixed key order make the files canonical: emit -> parse -> re-emit is
// byte-identical, which the history store and the round-trip tests rely
// on.
//
// Schema (version 1):
//   {
//     "schema": "scibench.bench", "version": 1,
//     "bench": "<name>", "git_sha": "<sha or unknown>",
//     "context": { "<key>": "<value>", ... },         // sorted by key
//     "metrics": [ { "name", "unit", "improve",       // insertion order
//                    "n", "median", "ci_lo", "ci_hi" }, ... ],
//     "counters": [ { "name", "value" }, ... ]        // sorted by name
//   }
// Non-finite medians/CI bounds are emitted as null and parse back as
// NaN. `improve` is "higher" or "lower": which direction is better,
// so regression detection knows the sign of "worse".
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/counters.hpp"
#include "obs/json.hpp"

namespace sci::obs {

/// Direction of improvement for a metric ("rep/s" -> kHigher,
/// "ms" -> kLower). Drives the sign convention in scibench_ci.
enum class Improve { kLower, kHigher };
[[nodiscard]] const char* to_string(Improve improve) noexcept;

struct BenchMetric {
  std::string name;  ///< e.g. "pingpong_8B.1w.reuse"
  std::string unit;  ///< e.g. "rep/s"
  Improve improve = Improve::kLower;
  std::size_t n = 0;        ///< samples behind the median
  double median = 0.0;
  double ci_lo = 0.0;       ///< 95% CI (stats::median_interval_sorted)
  double ci_hi = 0.0;
};

/// BenchMetric's field list (obs/json.hpp), shared by BENCH_*.json and
/// the bench history store.
inline constexpr auto metric_fields = [](auto& io, auto& m) {
  io("name", m.name);
  io("unit", m.unit);
  io("improve", json::Named{m.improve, {Improve::kLower, Improve::kHigher}});
  io("n", m.n);
  io("median", m.median);
  io("ci_lo", m.ci_lo);
  io("ci_hi", m.ci_hi);
};

struct BenchReport {
  static constexpr int kVersion = 1;

  std::string bench;
  std::string git_sha = "unknown";
  std::map<std::string, std::string> context;  ///< build flags, host facts
  std::vector<BenchMetric> metrics;
  CounterSnapshot counters;  ///< allocator audits etc.; sorted on emit
};

/// Canonical JSON for `report` (byte-deterministic; see header comment).
[[nodiscard]] std::string bench_report_json(const BenchReport& report);
/// Inverse of bench_report_json; throws std::runtime_error on schema
/// mismatch or malformed JSON.
[[nodiscard]] BenchReport parse_bench_report(std::string_view json_text);
/// Loads and parses one BENCH_*.json file (throws on I/O or schema).
[[nodiscard]] BenchReport load_bench_report(const std::string& path);

/// Writes `text` to `path` atomically (temp file + rename) so readers
/// never observe a torn file. Returns false on I/O failure.
bool write_file_atomic(const std::string& path, std::string_view text);

class BenchReporter {
 public:
  /// Fills git sha (SCIBENCH_GIT_SHA env var, else "unknown") and the
  /// standard build context: build_type, pooling,
  /// hardware_concurrency.
  explicit BenchReporter(std::string bench_name);

  BenchReporter& set_context(std::string key, std::string value);

  /// Summarizes `samples` as a median and its 95% interval from
  /// stats::median_interval_sorted, and records the metric. Throws
  /// std::invalid_argument on empty samples.
  BenchMetric& add_metric(std::string name, std::string unit,
                          std::span<const double> samples,
                          Improve improve = Improve::kLower);
  /// Records a metric whose summary the harness already computed.
  BenchMetric& add_summary(BenchMetric metric);
  /// Records an audited counter (e.g. allocator calls during steady
  /// state); duplicate names keep the last value.
  BenchReporter& add_counter(std::string name, std::uint64_t value);

  [[nodiscard]] const BenchReport& report() const noexcept { return report_; }

  /// `dir`/BENCH_`bench`.json -- the filename contract scibench_ci
  /// globs for.
  [[nodiscard]] std::string json_path(const std::string& dir) const;
  /// Atomically writes the canonical JSON into `dir` (created if
  /// missing); returns the path, or empty on I/O failure.
  std::string write_json(const std::string& dir) const;

 private:
  BenchReport report_;
};

}  // namespace sci::obs
