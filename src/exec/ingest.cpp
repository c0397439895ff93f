#include "exec/ingest.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <utility>

#include "core/format.hpp"

namespace sci::exec {

namespace {

bool has_column(const std::vector<std::string>& cols, const std::string& name) {
  return std::find(cols.begin(), cols.end(), name) != cols.end();
}

std::size_t column_index(const std::vector<std::string>& cols, const std::string& name) {
  return static_cast<std::size_t>(
      std::find(cols.begin(), cols.end(), name) - cols.begin());
}

/// Value of "env.<key>: <value>" in the preserved raw header text, or
/// empty. Values round-trip through escape_header_text on export.
std::string header_env(const std::string& header_text, const std::string& key) {
  const std::string needle = "env." + key + ": ";
  std::size_t pos = 0;
  while (pos < header_text.size()) {
    std::size_t eol = header_text.find('\n', pos);
    if (eol == std::string::npos) eol = header_text.size();
    if (header_text.compare(pos, needle.size(), needle) == 0) {
      return core::unescape_header_text(
          header_text.substr(pos + needle.size(), eol - pos - needle.size()));
    }
    pos = eol + 1;
  }
  return {};
}

std::size_t header_env_count(const std::string& header_text, const std::string& key) {
  // Hand-edited junk, a sign or overflow degrades to 0, not an abort.
  return core::parse_number<std::size_t>(header_env(header_text, key)).value_or(0);
}

/// A config or rep cell as an index. Anything but a non-negative
/// integer (NaN, -1, 2.5, 1e300) is a corrupt or hand-edited file, and
/// converting it to an integer would be undefined.
std::size_t index_cell(double v, const std::string& path, std::size_t row,
                       const char* what) {
  if (!(v >= 0.0 && v < 9007199254740992.0) || v != std::floor(v)) {
    throw std::runtime_error("exec::load_measurements: " + path + ": data row " +
                             std::to_string(row + 1) + ": " + what +
                             " is not a non-negative integer");
  }
  return static_cast<std::size_t>(v);
}

}  // namespace

Ingested load_measurements(const std::string& path) {
  Ingested out{core::Dataset::load_csv(path), false, {}, 0, 0, {}, {}, 0, {}};
  const std::string& header = out.dataset.experiment().description;
  out.failed = header_env_count(header, "campaign.failed");
  out.interrupted = header_env_count(header, "campaign.interrupted");
  out.failed_cells = header_env(header, "campaign.failed_cells");
  out.stopping = header_env(header, "campaign.stopping");
  out.rounds = header_env_count(header, "campaign.rounds");
  // "6,4,12,..." -- per-config rep counts of a sequential campaign.
  // Hand-edited junk degrades to an empty list, like the counts above.
  const std::string counts = header_env(header, "campaign.rep_counts");
  std::size_t pos = 0;
  while (pos < counts.size()) {
    std::size_t comma = counts.find(',', pos);
    if (comma == std::string::npos) comma = counts.size();
    const auto n =
        core::parse_number<std::size_t>(std::string_view(counts).substr(pos, comma - pos));
    if (!n) {
      out.rep_counts.clear();
      break;
    }
    out.rep_counts.push_back(*n);
    pos = comma + 1;
  }
  const auto& cols = out.dataset.columns();
  out.campaign = has_column(cols, "config") && has_column(cols, "rep") &&
                 has_column(cols, "value") && has_column(cols, "sample");
  if (!out.campaign) return out;

  const std::size_t config_col = column_index(cols, "config");
  const std::size_t rep_col = column_index(cols, "rep");
  const std::size_t value_col = column_index(cols, "value");
  std::vector<std::size_t> factor_cols;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (cols[i].rfind("f_", 0) == 0) factor_cols.push_back(i);
  }

  // Regroup long-form rows per (config, rep). In export order a cell's
  // rows are adjacent, so a row whose key repeats the previous row's
  // reuses its slot; the map keeps externally sorted files working.
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> index;
  std::pair<std::size_t, std::size_t> last_key;
  std::size_t slot = 0;
  for (std::size_t r = 0; r < out.dataset.rows(); ++r) {
    const auto row = out.dataset.row(r);
    const auto key = std::make_pair(index_cell(row[config_col], path, r, "config"),
                                    index_cell(row[rep_col], path, r, "rep"));
    if (r > 0 && key == last_key) {
      out.cells[slot].values.push_back(row[value_col]);
      continue;
    }
    last_key = key;
    auto it = index.find(key);
    if (it == index.end()) {
      IngestedSeries series;
      series.config = key.first;
      series.rep = key.second;
      std::string label =
          "config " + std::to_string(key.first) + " rep " + std::to_string(key.second);
      if (!factor_cols.empty()) {
        label += " (";
        for (std::size_t f = 0; f < factor_cols.size(); ++f) {
          if (f) label += ' ';
          char buf[32];
          std::snprintf(buf, sizeof buf, "%g", row[factor_cols[f]]);
          label += cols[factor_cols[f]] + "=" + buf;
        }
        label += ')';
      }
      series.label = std::move(label);
      it = index.emplace(key, out.cells.size()).first;
      out.cells.push_back(std::move(series));
    }
    slot = it->second;
    out.cells[slot].values.push_back(row[value_col]);
  }
  // Cells were appended in first-appearance order; normalize to
  // (config, rep) order to match CampaignResult::cells.
  std::sort(out.cells.begin(), out.cells.end(),
            [](const IngestedSeries& a, const IngestedSeries& b) {
              return std::tie(a.config, a.rep) < std::tie(b.config, b.rep);
            });
  return out;
}

std::vector<ConfigSummary> summarize_configs(const Ingested& ingested, double p,
                                             double confidence,
                                             const stats::ExecPolicy& policy) {
  // Pool each config's replications; per-config rep counts vary under
  // sequential stopping, so the grouping comes from the rows themselves.
  std::map<std::size_t, std::pair<std::size_t, std::vector<double>>> configs;
  for (const auto& cell : ingested.cells) {
    auto& [reps, values] = configs[cell.config];
    ++reps;
    values.insert(values.end(), cell.values.begin(), cell.values.end());
  }

  std::vector<ConfigSummary> out;
  std::vector<std::vector<double>> groups;
  out.reserve(configs.size());
  groups.reserve(configs.size());
  for (auto& [config, group] : configs) {
    ConfigSummary cs;
    cs.config = config;
    cs.reps = group.first;
    out.push_back(cs);
    groups.push_back(std::move(group.second));
  }
  const auto summaries = stats::grouped_quantile_summary(groups, p, confidence, policy);
  for (std::size_t i = 0; i < out.size(); ++i) out[i].summary = summaries[i];
  return out;
}

}  // namespace sci::exec
