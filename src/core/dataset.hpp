// Tabular dataset with documented provenance.
//
// LibSciBench's "low-overhead data collection mechanism produces
// datasets that can be read directly with established statistical tools
// such as GNU R" -- this is that layer: append rows during measurement,
// write an R/pandas-readable CSV whose '#' header embeds the full
// Experiment description (Rule 9), so a data file never gets separated
// from its setup documentation.
#pragma once

#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace sci::core {

/// Rows are stored row-major in one flat vector of cells; row(i) is a
/// view into it. Cells are written as printf("%.17g") would write them
/// (via std::to_chars), so every double survives a CSV round trip
/// bit-exactly; DESIGN.md "CSV format contract" has the loader grammar.
class Dataset {
 public:
  /// Throws std::invalid_argument for no columns, an empty column name,
  /// a name with a comma or newline, a duplicate name, or a first name
  /// starting with '#' -- each would not read back from the CSV.
  Dataset(Experiment experiment, std::vector<std::string> columns);

  /// Appends one observation; size must match the column count.
  void add_row(std::span<const double> row);
  void add_row(std::initializer_list<double> row) {
    add_row(std::span(row.begin(), row.size()));
  }

  /// Capacity for `rows` rows, so appending them never reallocates.
  void reserve(std::size_t rows) { cells_.reserve(rows * columns_.size()); }

  [[nodiscard]] std::size_t rows() const noexcept {
    return columns_.empty() ? 0 : cells_.size() / columns_.size();  // empty once moved from
  }
  [[nodiscard]] const std::vector<std::string>& columns() const noexcept { return columns_; }
  [[nodiscard]] const Experiment& experiment() const noexcept { return experiment_; }
  /// Row `i` (throws std::out_of_range past the end); the view is valid
  /// until the next add_row.
  [[nodiscard]] std::span<const double> row(std::size_t i) const;

  /// One column as a series.
  [[nodiscard]] std::vector<double> column(const std::string& name) const;

  /// CSV with '#'-prefixed experiment header. R: read.csv(f, comment.char="#").
  void write_csv(std::ostream& os) const;
  /// What write_csv writes before the first row: the experiment header,
  /// each line prefixed "# ", and the column line. The one header
  /// writer, also of exec's campaign export (exec/csv_export.hpp).
  [[nodiscard]] std::string csv_header() const;
  void save_csv(const std::string& path) const;

  /// Parses a CSV produced by write_csv (header comments are skipped).
  /// Every failure -- unreadable file, no header row, a bad column
  /// name, a malformed cell, a short or long row -- is a
  /// std::runtime_error naming the file and line.
  [[nodiscard]] static Dataset load_csv(const std::string& path);

 private:
  Experiment experiment_;
  std::vector<std::string> columns_;
  std::vector<double> cells_;  ///< rows() x columns_.size(), row-major
};

}  // namespace sci::core
