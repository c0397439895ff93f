// Campaign CSV export: a cell's rows are formatted once, on the runner
// thread that finishes the cell, and an export concatenates them.
//
// A cell's samples and statistics are a pure function of its CellKey,
// so their CSV text is too. The runner formats that text (CellCsv)
// when the cell finishes, keeps it in the ResultCache next to the
// CellResult, and at the end of run() writes each file as one header
// and, per cell, the integer row prefix (config, rep, factor level
// indices) before each cached row. A deduplicated resubmission thus
// formats no number: it copies bytes. The files are byte-identical to
// CampaignResult::samples_dataset().save_csv() and
// summary_dataset().save_csv(), which stay as the reference
// (tests/test_exec_csv_export.cpp compares the two).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

namespace sci::exec {

struct CampaignResult;

/// A successful cell's CSV text without its row prefix. Immutable once
/// made, so the result cache and every CampaignResult holding the cell
/// share one copy.
struct CellCsv {
  /// "sample,value\n" for each sample, in sample order.
  std::string samples;
  /// "n,median,ci_lo,ci_hi,mean,min,max\n"; empty for an empty series,
  /// which has no summary row.
  std::string summary;

  /// What the text holds on the heap, for the cache's budget.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return sizeof(CellCsv) + samples.capacity() + summary.capacity();
  }
};

/// Formats a successful cell's text: each sample and value as
/// printf("%.17g") prints it, the statistics those of
/// CampaignResult::summary_dataset().
[[nodiscard]] std::shared_ptr<const CellCsv> format_cell_csv(std::span<const double> samples);

/// Write `result`'s samples or summary CSV to `path`, byte-identical to
/// samples_dataset().save_csv(path) and summary_dataset().save_csv(path),
/// and throw what those throw (std::invalid_argument for a column name
/// that would not read back or a successful cell without samples in a
/// summary, std::runtime_error for an unwritable file). Cells carry
/// their text in CampaignCell::csv; one without it is formatted here.
void save_samples_csv(const CampaignResult& result, const std::string& path);
void save_summary_csv(const CampaignResult& result, const std::string& path);

}  // namespace sci::exec
