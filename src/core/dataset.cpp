#include "core/dataset.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "core/format.hpp"

namespace sci::core {

namespace {

/// Duplicate names would make column(name) pick one of them silently.
/// Sorting keeps this O(n log n) for hostile files with huge headers.
void check_unique(const std::vector<std::string>& columns) {
  std::vector<std::string_view> names(columns.begin(), columns.end());
  std::sort(names.begin(), names.end());
  const auto dup = std::adjacent_find(names.begin(), names.end());
  if (dup != names.end()) {
    throw std::invalid_argument("Dataset: duplicate column name '" + std::string(*dup) +
                                "'");
  }
}

}  // namespace

Dataset::Dataset(Experiment experiment, std::vector<std::string> columns)
    : experiment_(std::move(experiment)), columns_(std::move(columns)) {
  if (columns_.empty()) throw std::invalid_argument("Dataset: at least one column");
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    const std::string& c = columns_[i];
    // A separator or newline inside a column name would silently shift
    // every subsequent column on re-import; an empty name would not
    // read back at all as the last (or only) one. Refuse both up front.
    if (c.empty()) {
      throw std::invalid_argument("Dataset: column " + std::to_string(i + 1) +
                                  " has an empty name");
    }
    if (c.find_first_of(",\n\r") != std::string::npos) {
      throw std::invalid_argument("Dataset: column name '" + c +
                                  "' contains a comma or newline");
    }
  }
  // The loader skips '#' lines, so the column line must not start so.
  if (columns_.front().front() == '#') {
    throw std::invalid_argument("Dataset: first column name '" + columns_.front() +
                                "' would be written as a '#' comment line");
  }
  check_unique(columns_);
  base_columns_ = columns_.size();
}

void Dataset::add_row(std::span<const double> row) {
  if (row.size() != columns_.size())
    throw std::invalid_argument("Dataset::add_row: arity mismatch");
  cells_.insert(cells_.end(), row.begin(), row.end());
}

void Dataset::enable_provenance() {
  if (provenance_) return;
  if (!cells_.empty())
    throw std::logic_error("Dataset::enable_provenance: call before the first row");
  const auto& extra = obs::provenance_columns();
  std::vector<std::string> widened = columns_;
  widened.insert(widened.end(), extra.begin(), extra.end());
  check_unique(widened);
  columns_ = std::move(widened);
  provenance_ = true;
}

void Dataset::add_row(std::span<const double> row, const obs::SampleProvenance& prov) {
  if (!provenance_)
    throw std::logic_error("Dataset::add_row(prov): enable_provenance() first");
  if (row.size() != base_columns_)
    throw std::invalid_argument("Dataset::add_row: arity mismatch");
  const auto cells = obs::provenance_row(prov);
  cells_.insert(cells_.end(), row.begin(), row.end());
  cells_.insert(cells_.end(), cells.begin(), cells.end());
}

std::span<const double> Dataset::row(std::size_t i) const {
  if (i >= rows()) {
    throw std::out_of_range("Dataset::row: index " + std::to_string(i) + " of " +
                            std::to_string(rows()) + " rows");
  }
  return {cells_.data() + i * columns_.size(), columns_.size()};
}

std::vector<double> Dataset::column(const std::string& name) const {
  const auto it = std::find(columns_.begin(), columns_.end(), name);
  if (it == columns_.end())
    throw std::out_of_range("Dataset::column: no column '" + name + "'");
  const std::size_t stride = columns_.size();
  std::vector<double> out;
  out.reserve(rows());
  for (std::size_t at = static_cast<std::size_t>(it - columns_.begin()); at < cells_.size();
       at += stride) {
    out.push_back(cells_[at]);
  }
  return out;
}

namespace {

/// Buffered CSV output: rows are formatted in place into a fixed
/// block, which goes to the stream whenever it fills. Each column
/// remembers its last value's bits and text, so a cell that repeats the
/// one above it -- config, rep and factor columns do for every sample
/// of a cell -- is copied, not formatted again.
class CsvWriter {
 public:
  CsvWriter(std::ostream& os, std::size_t columns) : os_(os), memo_(columns) {}
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  void text(std::string_view s) {
    while (!s.empty()) {
      if (used_ == kBlock) flush();
      const std::size_t n = std::min(s.size(), kBlock - used_);
      std::memcpy(buf_ + used_, s.data(), n);
      used_ += n;
      s.remove_prefix(n);
    }
  }

  /// Appends one row, a cell per column, each exactly as
  /// printf("%.17g") prints it, separated by commas and ended by a
  /// newline. The write position stays in a local: stores through a
  /// char pointer would otherwise make every cell reload the members.
  void row(const double* cells) {
    char* p = buf_ + used_;
    char* const limit = buf_ + kBlock - kMaxCell;
    const std::size_t width = memo_.size();
    for (std::size_t c = 0; c < width; ++c) {
      if (p > limit) {
        used_ = static_cast<std::size_t>(p - buf_);
        flush();
        p = buf_;
      }
      p = cell(p, memo_[c], cells[c]);
      *p++ = c + 1 < width ? ',' : '\n';
    }
    used_ = static_cast<std::size_t>(p - buf_);
  }

  void flush() {
    os_.write(buf_, static_cast<std::streamsize>(used_));
    used_ = 0;
  }

 private:
  static constexpr std::size_t kBlock = 32 * 1024;
  /// Room for one cell: write_general's working space, which also
  /// holds the longest %.17g output plus the separator.
  static constexpr std::size_t kMaxCell = kGeneralMinBuffer;

  /// A column's last cell; it starts as +0, whose text is "0". The
  /// text (24 bytes at most) is copied whole, a fixed-size move.
  struct Memo {
    std::uint64_t bits = 0;
    std::uint8_t len = 1;
    char text[32] = {'0'};
  };
  static_assert(sizeof Memo::text <= kMaxCell);

  /// Writes `v` at `first`, which has kMaxCell bytes of room, and
  /// returns the end.
  static char* cell(char* first, Memo& memo, double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    if (bits == memo.bits) {
      std::memcpy(first, memo.text, sizeof memo.text);
      return first + memo.len;
    }
    char* const end = write_csv_cell(first, v);
    memo.bits = bits;
    memo.len = static_cast<std::uint8_t>(end - first);
    std::memcpy(memo.text, first, sizeof memo.text);
    return end;
  }

  std::ostream& os_;
  std::vector<Memo> memo_;
  std::size_t used_ = 0;
  char buf_[kBlock]{};
};

}  // namespace

std::string Dataset::csv_header() const {
  const std::string header = experiment_.to_header();
  std::string out;
  out.reserve(header.size() + 64);
  std::string_view rest = header;
  while (!rest.empty()) {
    const std::size_t eol = std::min(rest.find('\n'), rest.size());
    out += "# ";
    out += rest.substr(0, eol);
    out += '\n';
    rest.remove_prefix(std::min(eol + 1, rest.size()));
  }
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    out += columns_[i];
    out += i + 1 < columns_.size() ? ',' : '\n';
  }
  return out;
}

void Dataset::write_csv(std::ostream& os) const {
  CsvWriter out(os, columns_.size());
  out.text(csv_header());
  for (std::size_t at = 0; at < cells_.size(); at += columns_.size()) {
    out.row(cells_.data() + at);
  }
  out.flush();
}

void Dataset::save_csv(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("Dataset::save_csv: cannot open " + path);
  write_csv(os);
  os.flush();
  // A full disk or revoked permission surfaces here, not as a silently
  // truncated data file.
  if (!os) throw std::runtime_error("Dataset::save_csv: write failed for " + path);
}

namespace {

[[noreturn]] void load_error(const std::string& path, std::size_t lineno,
                             const std::string& what) {
  throw std::runtime_error("Dataset::load_csv: " + path + ":" + std::to_string(lineno) +
                           ": " + what);
}

/// Strict numeric cell parse; accepts what write_csv emits (decimal
/// doubles, inf, nan). Positions are 1-based for error messages.
double parse_cell(std::string_view cell, const std::string& path, std::size_t lineno,
                  std::size_t column) {
  // 1-15 decimal digits and nothing else (indices, counts): an integer
  // below 2^53, so the double is exact and equals what from_chars gives.
  // Signs, spaces and longer cells take the general path.
  if (!cell.empty() && cell.size() <= 15) {
    std::uint64_t digits = 0;
    std::size_t i = 0;
    for (; i < cell.size(); ++i) {
      const auto d = static_cast<unsigned>(cell[i] - '0');
      if (d > 9) break;
      digits = digits * 10 + d;
    }
    if (i == cell.size()) return static_cast<double>(digits);
  }
  double value = 0.0;
  const char* begin = cell.data();
  const char* end = begin + cell.size();
  // Tolerate surrounding spaces (hand-edited files) but nothing else.
  while (begin < end && (*begin == ' ' || *begin == '\t')) ++begin;
  while (end > begin && (end[-1] == ' ' || end[-1] == '\t' || end[-1] == '\r')) --end;
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || begin == end) {
    load_error(path, lineno,
               "column " + std::to_string(column) + ": malformed numeric cell '" +
                   std::string(cell) + "'");
  }
  return value;
}

/// Calls `f` on each ','-separated cell of `line`. Like
/// std::getline(is, cell, ','), a trailing separator does not open a
/// final empty cell: "1,2," is two cells, "1,2,," three.
template <class F>
void for_each_cell(std::string_view line, F&& f) {
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t comma = line.find(',', pos);
    if (comma == std::string_view::npos) {
      f(line.substr(pos));
      return;
    }
    f(line.substr(pos, comma - pos));
    pos = comma + 1;
  }
}

/// The whole file in one buffer, in one read when its size is known
/// (a pipe has none and reads until end of file).
std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("Dataset::load_csv: cannot open " + path);
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  // One byte past the size, so a complete read comes back short.
  std::string text(ec ? 65536 : static_cast<std::size_t>(size) + 1, '\0');
  std::size_t used = 0;
  for (;;) {
    is.read(text.data() + used, static_cast<std::streamsize>(text.size() - used));
    used += static_cast<std::size_t>(is.gcount());
    if (used < text.size()) break;
    text.resize(text.size() * 2);
  }
  text.resize(used);
  return text;
}

}  // namespace

Dataset Dataset::load_csv(const std::string& path) {
  const std::string text = read_file(path);
  const char* p = text.data();
  const char* const end = p + text.size();
  std::size_t lineno = 0;
  // std::getline semantics: '\n' ends a line, the last line needs none.
  const auto next_line = [&](std::string_view& line) {
    if (p == end) return false;
    const auto* nl =
        static_cast<const char*>(std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    const char* stop = nl != nullptr ? nl : end;
    line = std::string_view(p, static_cast<std::size_t>(stop - p));
    p = nl != nullptr ? nl + 1 : end;
    ++lineno;
    return true;
  };

  Experiment exp;
  std::vector<std::string> cols;
  // Header comments are provenance for humans/R; keep the raw text in
  // the description so round-trips do not silently drop it.
  std::string header_text;
  std::string_view line;
  while (next_line(line)) {
    if (line.empty()) continue;
    if (line.front() == '#') {
      header_text += line.substr(line.size() > 1 && line[1] == ' ' ? 2 : 1);
      header_text += '\n';
      continue;
    }
    // First non-comment line: column names.
    for_each_cell(line, [&](std::string_view cell) {
      if (!cell.empty() && cell.back() == '\r') cell.remove_suffix(1);
      cols.emplace_back(cell);
    });
    break;
  }
  if (cols.empty()) {
    load_error(path, std::max<std::size_t>(lineno, 1),
               "no column names (the file is empty or only comments)");
  }
  exp.name = "loaded:" + path;
  exp.description = std::move(header_text);

  Dataset ds = [&] {
    try {
      return Dataset(std::move(exp), std::move(cols));
    } catch (const std::invalid_argument& e) {
      load_error(path, lineno, e.what());  // a bad or duplicate column name
    }
  }();
  const std::size_t width = ds.columns_.size();
  // At most one row per remaining line, and a row takes at least two
  // bytes per cell (digit plus separator), which bounds the reservation
  // by the file size even for a file of blank lines.
  std::size_t lines = 1;
  for (const char* at = p; (at = static_cast<const char*>(std::memchr(
                                at, '\n', static_cast<std::size_t>(end - at)))) != nullptr;
       ++at) {
    ++lines;
  }
  const auto remaining = static_cast<std::size_t>(end - p);
  ds.cells_.reserve(std::min(lines, remaining / (2 * width) + 1) * width);
  while (next_line(line)) {
    if (line.empty() || line.front() == '#') continue;
    std::size_t cells = 0;
    for_each_cell(line, [&](std::string_view cell) {
      ds.cells_.push_back(parse_cell(cell, path, lineno, ++cells));
    });
    if (cells != width) {
      load_error(path, lineno,
                 "expected " + std::to_string(width) + " cells, got " +
                     std::to_string(cells));
    }
  }
  return ds;
}

}  // namespace sci::core
