// Append-only performance history for the repo's own benchmarks
// (ROADMAP item 5, grounded in the Continuous-benchmarking paper:
// persist every run, compare against the stored trajectory).
//
// The store is a JSONL file: one canonical-JSON line per recorded
// metric point, strictly appended, never rewritten. Ingesting a
// BENCH_*.json report (obs/bench_report.hpp) appends one point per
// metric; re-ingesting the same (git_sha, bench, metric) triple is a
// no-op, so a retried CI job cannot double-count its run. Loading
// skips every line that does not parse -- a torn final line (a crash
// while appending, whose newline the next append heals) or a corrupt
// line anywhere else -- and counts it in skipped_lines(); valid records
// keep appending after it, and scibench_ci warns with the count. A
// damaged store thins its history instead of stopping the gate.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/bench_report.hpp"

namespace sci::ci {

/// One recorded metric measurement: the metric summary plus where it
/// came from and its position in append order.
struct HistoryPoint {
  std::size_t seq = 0;  ///< append index within the store (dense, 0-based)
  std::string git_sha;
  std::string bench;
  obs::BenchMetric metric;
};

/// All points of one (bench, metric) pair in append order -- the unit
/// of trend/change-point analysis.
struct MetricSeries {
  std::string bench;
  std::string metric;
  std::string unit;
  obs::Improve improve = obs::Improve::kLower;
  std::vector<HistoryPoint> points;

  /// The medians in append order (the detection statistics run on these).
  [[nodiscard]] std::vector<double> medians() const;
};

class HistoryStore {
 public:
  /// Opens (and loads) the store at `path`; a missing file is an empty
  /// store. Unparseable lines (torn appends, corruption) are skipped and
  /// counted in skipped_lines(); on-disk seq values are advisory -- load
  /// order assigns the authoritative sequence.
  explicit HistoryStore(std::string path);

  /// Appends one point per metric in `report`; points whose
  /// (git_sha, bench, metric) triple is already stored are skipped.
  /// Returns the number of points actually appended. Throws on I/O
  /// failure.
  std::size_t ingest(const obs::BenchReport& report);

  [[nodiscard]] const std::vector<HistoryPoint>& points() const noexcept {
    return points_;
  }
  /// Points grouped into per-metric series, in first-appearance order.
  [[nodiscard]] std::vector<MetricSeries> series() const;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// Lines dropped as torn/corrupt during load (0 for a healthy store).
  [[nodiscard]] std::size_t skipped_lines() const noexcept { return skipped_lines_; }

 private:
  [[nodiscard]] bool contains(const std::string& sha, const std::string& bench,
                              const std::string& metric) const noexcept;

  std::string path_;
  std::vector<HistoryPoint> points_;
  std::size_t skipped_lines_ = 0;
  bool heal_newline_ = false;  ///< existing file ends without '\n'
};

/// Serialization of one point as a single canonical JSON line (no
/// trailing newline); exposed for tests.
[[nodiscard]] std::string history_line(const HistoryPoint& point);
[[nodiscard]] HistoryPoint parse_history_line(std::string_view line);

}  // namespace sci::ci
