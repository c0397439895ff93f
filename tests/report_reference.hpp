// The report path as it was before it was made single-pass: the oracle
// the differential tests in test_report_reference.cpp compare against.
// Point-major kernel density (every grid point scans every sample),
// one ostringstream per formatted number, regrouping through the map
// alone, and every CSV cell through std::from_chars. Nothing here
// shares code with the implementations under test.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/dataset.hpp"
#include "exec/ingest.hpp"
#include "stats/descriptive.hpp"
#include "stats/histogram.hpp"

namespace sci::reference {

/// Gaussian KDE, point-major: the loop the windowed one replaced.
inline stats::DensityCurve kernel_density(std::span<const double> xs, std::size_t points,
                                          double bandwidth) {
  std::vector<double> thinned;
  std::span<const double> data = xs;
  constexpr std::size_t kMaxSamples = 100'000;
  if (xs.size() > kMaxSamples) {
    const std::size_t stride = (xs.size() + kMaxSamples - 1) / kMaxSamples;
    for (std::size_t i = 0; i < xs.size(); i += stride) thinned.push_back(xs[i]);
    data = thinned;
  }
  const auto n = static_cast<double>(data.size());
  if (bandwidth <= 0.0) {
    const double s = stats::sample_stddev(data);
    const auto sorted = stats::sorted_copy(data);
    const double iqr =
        stats::quantile_sorted(sorted, 0.75) - stats::quantile_sorted(sorted, 0.25);
    double sigma = (iqr > 0.0) ? std::min(s, iqr / 1.349) : s;
    if (sigma <= 0.0) sigma = 1.0;
    bandwidth = 0.9 * sigma * std::pow(n, -0.2);
  }
  const double lo = *std::min_element(data.begin(), data.end()) - 3.0 * bandwidth;
  const double hi = *std::max_element(data.begin(), data.end()) + 3.0 * bandwidth;
  stats::DensityCurve curve;
  curve.bandwidth = bandwidth;
  curve.x.resize(points);
  curve.density.assign(points, 0.0);
  const double inv_h = 1.0 / bandwidth;
  const double norm = 1.0 / (n * bandwidth * std::sqrt(2.0 * M_PI));
  for (std::size_t p = 0; p < points; ++p) {
    const double xp = lo + (hi - lo) * static_cast<double>(p) / static_cast<double>(points - 1);
    curve.x[p] = xp;
    double acc = 0.0;
    for (double v : data) {
      const double u = (xp - v) * inv_h;
      if (u * u < 40.0) acc += std::exp(-0.5 * u * u);
    }
    curve.density[p] = acc * norm;
  }
  return curve;
}

/// `v` through an ostream at `digits` significant digits.
inline std::string format_number(double v, int digits) {
  std::ostringstream os;
  os << std::setprecision(digits) << std::defaultfloat << v;
  return os.str();
}

/// One CSV cell through std::from_chars after trimming spaces, tabs and
/// a trailing '\r'; throws std::invalid_argument where the loader
/// reports a malformed cell.
inline double parse_cell(std::string_view cell) {
  const char* begin = cell.data();
  const char* end = begin + cell.size();
  while (begin < end && (*begin == ' ' || *begin == '\t')) ++begin;
  while (end > begin && (end[-1] == ' ' || end[-1] == '\t' || end[-1] == '\r')) --end;
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || begin == end) {
    throw std::invalid_argument("malformed numeric cell '" + std::string(cell) + "'");
  }
  return value;
}

/// A campaign export's rows regrouped per (config, rep) through the
/// map alone, then sorted into (config, rep) order.
inline std::vector<exec::IngestedSeries> regroup(const core::Dataset& ds) {
  const auto& cols = ds.columns();
  const auto at = [&](const char* name) {
    return static_cast<std::size_t>(std::find(cols.begin(), cols.end(), name) - cols.begin());
  };
  const std::size_t config_col = at("config"), rep_col = at("rep"), value_col = at("value");
  std::vector<std::size_t> factor_cols;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (cols[i].rfind("f_", 0) == 0) factor_cols.push_back(i);
  }
  std::vector<exec::IngestedSeries> cells;
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> index;
  for (std::size_t r = 0; r < ds.rows(); ++r) {
    const auto row = ds.row(r);
    const auto key = std::make_pair(static_cast<std::size_t>(row[config_col]),
                                    static_cast<std::size_t>(row[rep_col]));
    auto it = index.find(key);
    if (it == index.end()) {
      exec::IngestedSeries series;
      series.config = key.first;
      series.rep = key.second;
      series.label =
          "config " + std::to_string(key.first) + " rep " + std::to_string(key.second);
      if (!factor_cols.empty()) {
        series.label += " (";
        for (std::size_t f = 0; f < factor_cols.size(); ++f) {
          if (f) series.label += ' ';
          char buf[32];
          std::snprintf(buf, sizeof buf, "%g", row[factor_cols[f]]);
          series.label += cols[factor_cols[f]] + "=" + buf;
        }
        series.label += ')';
      }
      it = index.emplace(key, cells.size()).first;
      cells.push_back(std::move(series));
    }
    cells[it->second].values.push_back(row[value_col]);
  }
  std::sort(cells.begin(), cells.end(), [](const auto& a, const auto& b) {
    return std::tie(a.config, a.rep) < std::tie(b.config, b.rep);
  });
  return cells;
}

}  // namespace sci::reference
