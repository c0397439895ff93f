#include "exec/csv_export.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/dataset.hpp"
#include "core/format.hpp"
#include "core/measurement.hpp"
#include "exec/runner.hpp"
#include "stats/confidence.hpp"
#include "stats/descriptive.hpp"
#include "stats/selection.hpp"

namespace sci::exec {

namespace {

std::vector<std::string> cell_columns(const std::vector<CampaignCell>& cells) {
  std::vector<std::string> cols = {"config", "rep"};
  if (!cells.empty()) {
    for (const auto& [factor, level] : cells.front().config.levels) {
      cols.push_back("f_" + factor);
    }
  }
  return cols;
}

/// Overwrites `row` with a cell's leading cells: config, rep and the
/// factor level indices.
void set_cell_prefix(const CampaignCell& cell, std::vector<double>& row) {
  row.clear();
  row.push_back(static_cast<double>(cell.config.index));
  row.push_back(static_cast<double>(cell.rep));
  for (std::size_t idx : cell.config.level_indices) {
    row.push_back(static_cast<double>(idx));
  }
}

/// Reorders `v` so each of `ranks` (ascending, distinct, < v.size())
/// holds the value a full ascending sort would put there.
void select_ranks(std::span<double> v, std::span<const std::size_t> ranks,
                  std::size_t offset = 0) {
  if (ranks.empty()) return;
  const std::size_t mid = ranks.size() / 2;
  const std::size_t at = ranks[mid] - offset;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(at), v.end());
  select_ranks(v.first(at), ranks.first(mid), offset);
  select_ranks(v.subspan(at + 1), ranks.subspan(mid + 1), offset + at + 1);
}

/// Appends the six statistics of a summary row: n, median, the
/// median's rank CI, mean, min, max. These are core::summarize_series'
/// values from the same stats calls under the same rules (no CI for a
/// deterministic series or n <= 5), without its diagnostics. Instead of
/// a sort, one pass finds min and max, and `scratch` gets the samples
/// with only the order statistics the calls read -- the median's two
/// neighbours and the CI's two ranks -- in sorted place, so each call
/// returns the bits it returns on a sorted copy. The mean reads the
/// samples in their original order.
void append_summary(std::span<const double> xs, std::vector<double>& scratch,
                    std::vector<double>& row) {
  if (xs.empty()) throw std::invalid_argument("summary_dataset: empty series");
  const core::SummaryOptions options;
  const std::size_t n = xs.size();
  scratch.assign(xs.begin(), xs.end());
  double min = xs.front();
  double max = xs.front();
  bool zero_or_nan = false;
  for (const double x : xs) {
    zero_or_nan |= x == 0.0 || x != x;
    min = std::min(min, x);
    max = std::max(max, x);
  }
  if (zero_or_nan) {
    // +0 and -0 compare equal with different bits, and NaN has no
    // order, so which of them lands at a rank is the sort's own choice:
    // such a sample is sorted as before.
    std::sort(scratch.begin(), scratch.end());
    min = scratch.front();
    max = scratch.back();
  } else {
    std::size_t ranks[4];
    std::size_t count = 0;
    const stats::QuantilePlan median_plan =
        stats::make_quantile_plan(n, 0.5, stats::QuantileMethod::kR7Linear);
    if (median_plan.mode == stats::QuantilePlan::Mode::kPair) {
      ranks[count++] = median_plan.k;
      ranks[count++] = median_plan.k + 1;
    }
    if (n > 5) {
      const auto ci_ranks = stats::quantile_confidence_ranks(n, 0.5, options.confidence);
      ranks[count++] = ci_ranks.lower;
      ranks[count++] = ci_ranks.upper;
    }
    std::sort(ranks, ranks + count);
    count = static_cast<std::size_t>(std::unique(ranks, ranks + count) - ranks);
    select_ranks(scratch, {ranks, count});
  }

  const std::span<const double> placed = scratch;
  const double median = stats::quantile_sorted(placed, 0.5);
  const bool deterministic = (max - min) <= options.deterministic_rtol * std::fabs(median);
  std::optional<stats::Interval> ci;
  if (!deterministic && n > 5) {
    ci = stats::quantile_confidence_interval_sorted(placed, 0.5, options.confidence);
  }
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  row.push_back(static_cast<double>(n));
  row.push_back(median);
  row.push_back(ci ? ci->lower : nan);
  row.push_back(ci ? ci->upper : nan);
  row.push_back(stats::arithmetic_mean(xs));
  row.push_back(min);
  row.push_back(max);
}

/// `cells` as CSV cells into `out`, each followed by ',' and the last
/// by '\n'.
void csv_line(std::span<const double> cells, std::string& out) {
  out.resize(cells.size() * (core::kGeneralMinBuffer + 1));
  char* p = out.data();
  for (const double v : cells) {
    p = core::write_csv_cell(p, v);
    *p++ = ',';
  }
  if (!cells.empty()) p[-1] = '\n';
  out.resize(static_cast<std::size_t>(p - out.data()));
}

/// A cell's row prefix in `prefix`: config, rep and level indices, each
/// followed by ','.
void row_prefix(const CampaignCell& cell, std::vector<double>& row, std::string& prefix) {
  set_cell_prefix(cell, row);
  csv_line(row, prefix);
  prefix.back() = ',';
}

/// Refuses, before any byte is written, what Dataset::add_row and
/// summary_dataset() refuse: a cell whose factor count differs from the
/// header's, and (`summary`) a successful cell without samples.
void check_cells(const CampaignResult& result, bool summary) {
  const std::size_t factors =
      result.cells.empty() ? 0 : result.cells.front().config.levels.size();
  for (const CampaignCell& cell : result.cells) {
    if (cell.config.level_indices.size() != factors) {
      throw std::invalid_argument("Dataset::add_row: arity mismatch");
    }
    if (summary && cell.result.error.empty() && cell.result.samples.empty()) {
      throw std::invalid_argument("summary_dataset: empty series");
    }
  }
}

/// The text of `cell`: its own, or formatted now when it has none.
std::shared_ptr<const CellCsv> text_of(const CampaignCell& cell) {
  return cell.csv ? cell.csv : format_cell_csv(cell.result.samples);
}

/// Buffered output of a CSV file. Errors throw as Dataset::save_csv's
/// do: a file that cannot be opened, and a failed write (a full disk
/// surfaces at close, not as a silently truncated file).
class CsvFile {
 public:
  explicit CsvFile(const std::string& path) : path_(path), os_(path, std::ios::binary) {
    if (!os_) throw std::runtime_error("campaign CSV export: cannot open " + path);
  }

  void append(std::string_view s) {
    if (s.size() > kBlock - used_) {
      flush();
      if (s.size() > kBlock) {
        os_.write(s.data(), static_cast<std::streamsize>(s.size()));
        return;
      }
    }
    std::memcpy(buf_.get() + used_, s.data(), s.size());
    used_ += s.size();
  }

  /// Each '\n'-ended line of `lines` behind `prefix`.
  void prefixed_lines(std::string_view prefix, std::string_view lines) {
    const char* p = lines.data();
    const char* const end = p + lines.size();
    while (p < end) {
      const auto* nl =
          static_cast<const char*>(std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
      const std::size_t len = static_cast<std::size_t>(nl - p) + 1;
      if (prefix.size() + len <= kBlock - used_) {
        std::memcpy(buf_.get() + used_, prefix.data(), prefix.size());
        std::memcpy(buf_.get() + used_ + prefix.size(), p, len);
        used_ += prefix.size() + len;
      } else {
        append(prefix);
        append({p, len});
      }
      p = nl + 1;
    }
  }

  void close() {
    flush();
    os_.flush();
    if (!os_) throw std::runtime_error("campaign CSV export: write failed for " + path_);
  }

 private:
  static constexpr std::size_t kBlock = 64 * 1024;

  void flush() {
    os_.write(buf_.get(), static_cast<std::streamsize>(used_));
    used_ = 0;
  }

  std::string path_;
  std::ofstream os_;
  std::unique_ptr<char[]> buf_ = std::make_unique_for_overwrite<char[]>(kBlock);
  std::size_t used_ = 0;
};

constexpr const char* kSampleColumns[] = {"sample", "value"};
constexpr const char* kSummaryColumns[] = {"failed", "n",     "median", "ci_lo",
                                           "ci_hi",  "mean", "min",    "max"};

/// The header of a campaign CSV whose columns `tail` follow the cell
/// prefix.
std::string header(const CampaignResult& result, std::span<const char* const> tail) {
  std::vector<std::string> cols = cell_columns(result.cells);
  cols.insert(cols.end(), tail.begin(), tail.end());
  return core::Dataset(result.experiment, std::move(cols)).csv_header();
}

}  // namespace

std::shared_ptr<const CellCsv> format_cell_csv(std::span<const double> samples) {
  auto csv = std::make_shared<CellCsv>();
  if (samples.empty()) return csv;
  // A row is at most a 20-digit index, a value in write_csv_cell's
  // working room, and two separators.
  constexpr std::size_t kRow = 20 + core::kGeneralMinBuffer + 2;
  const auto buf = std::make_unique_for_overwrite<char[]>(samples.size() * kRow);
  char* p = buf.get();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    p = std::to_chars(p, p + 20, i).ptr;
    *p++ = ',';
    p = core::write_csv_cell(p, samples[i]);
    *p++ = '\n';
  }
  csv->samples.assign(buf.get(), p);
  std::vector<double> scratch;
  std::vector<double> stats;
  append_summary(samples, scratch, stats);
  std::string line;
  csv_line(stats, line);
  csv->summary.assign(line);  // to size: the cache counts capacity
  return csv;
}

void save_samples_csv(const CampaignResult& result, const std::string& path) {
  const std::string head = header(result, kSampleColumns);
  check_cells(result, false);
  CsvFile out(path);
  out.append(head);
  std::vector<double> row;
  std::string prefix;
  for (const CampaignCell& cell : result.cells) {
    if (!cell.result.error.empty()) continue;
    row_prefix(cell, row, prefix);
    out.prefixed_lines(prefix, text_of(cell)->samples);
  }
  out.close();
}

void save_summary_csv(const CampaignResult& result, const std::string& path) {
  const std::string head = header(result, kSummaryColumns);
  check_cells(result, true);
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  std::string failed_row;
  csv_line(std::vector<double>{1.0, 0.0, nan, nan, nan, nan, nan, nan}, failed_row);
  CsvFile out(path);
  out.append(head);
  std::vector<double> row;
  std::string prefix;
  for (const CampaignCell& cell : result.cells) {
    row_prefix(cell, row, prefix);
    out.append(prefix);
    if (!cell.result.error.empty()) {
      out.append(failed_row);
    } else {
      out.append("0,");
      out.append(text_of(cell)->summary);
    }
  }
  out.close();
}

core::Dataset CampaignResult::samples_dataset() const {
  auto cols = cell_columns(cells);
  for (const char* c : kSampleColumns) cols.emplace_back(c);
  core::Dataset ds(experiment, std::move(cols));
  std::size_t rows = 0;
  for (const auto& cell : cells) {
    if (cell.result.error.empty()) rows += cell.result.samples.size();
  }
  ds.reserve(rows);
  std::vector<double> row;
  for (const auto& cell : cells) {
    if (!cell.result.error.empty()) continue;
    set_cell_prefix(cell, row);
    row.resize(row.size() + 2);
    const std::size_t sample_at = row.size() - 2;
    for (std::size_t i = 0; i < cell.result.samples.size(); ++i) {
      row[sample_at] = static_cast<double>(i);
      row[sample_at + 1] = cell.result.samples[i];
      ds.add_row(row);
    }
  }
  return ds;
}

core::Dataset CampaignResult::summary_dataset() const {
  auto cols = cell_columns(cells);
  for (const char* c : kSummaryColumns) cols.emplace_back(c);
  core::Dataset ds(experiment, std::move(cols));
  ds.reserve(cells.size());
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> row;
  std::vector<double> scratch;
  for (const auto& cell : cells) {
    // Failed cells keep their row (failed=1, NaN statistics) so a
    // partially-failed campaign renders with explicit holes instead of
    // silently shrinking the grid.
    const bool cell_failed = !cell.result.error.empty();
    set_cell_prefix(cell, row);
    row.push_back(cell_failed ? 1.0 : 0.0);
    if (cell_failed) {
      row.push_back(0.0);
      for (int i = 0; i < 6; ++i) row.push_back(nan);
    } else {
      append_summary(cell.result.samples, scratch, row);
    }
    ds.add_row(row);
  }
  return ds;
}

}  // namespace sci::exec
