#include "core/plots.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "core/format.hpp"
#include "stats/histogram.hpp"
#include "stats/normality.hpp"

namespace sci::core {
namespace {

std::string format_number(double v) { return format_general(v, 4); }

struct Canvas {
  std::size_t width;
  std::size_t height;
  std::vector<std::string> rows;

  Canvas(std::size_t w, std::size_t h) : width(w), height(h), rows(h, std::string(w, ' ')) {}

  void put(std::size_t col, std::size_t row, char glyph) {
    if (row < height && col < width) rows[row][col] = glyph;
  }

  [[nodiscard]] std::string str() const {
    std::string out;
    for (const auto& r : rows) {
      out += '|';
      out += r;
      out += "|\n";
    }
    return out;
  }
};

std::string axis_line(double lo, double hi, std::size_t width, const std::string& label) {
  std::ostringstream os;
  const std::string left = format_number(lo);
  const std::string right = format_number(hi);
  os << '+' << std::string(width, '-') << "+\n";
  os << ' ' << left;
  const std::size_t used = left.size() + right.size();
  if (width > used) os << std::string(width - used, ' ');
  os << right;
  if (!label.empty()) os << "  [" << label << ']';
  os << '\n';
  return os.str();
}

std::string title_line(const std::string& title, std::size_t width) {
  if (title.empty()) return {};
  std::string out = "  " + title;
  if (out.size() < width) out += std::string(width - out.size(), ' ');
  return out + "\n";
}

}  // namespace

std::string render_density(std::span<const double> xs, const PlotOptions& options) {
  if (xs.empty()) throw std::invalid_argument("render_density: empty series");
  // Checked before the sort: NaN has no place in a strict order.
  if (!std::all_of(xs.begin(), xs.end(), [](double x) { return std::isfinite(x); })) {
    throw std::domain_error("render_density: non-finite sample in input");
  }
  // One sort serves the bandwidth's IQR and the median marker.
  const auto sorted = stats::sorted_copy(xs);
  const auto curve = stats::kernel_density_sorted(xs, sorted, options.width);
  const double peak = *std::max_element(curve.density.begin(), curve.density.end());
  Canvas canvas(options.width, options.height);
  for (std::size_t c = 0; c < options.width && c < curve.density.size(); ++c) {
    const double frac = (peak > 0.0) ? curve.density[c] / peak : 0.0;
    const auto bar = static_cast<std::size_t>(std::round(frac * static_cast<double>(options.height - 1)));
    for (std::size_t b = 0; b <= bar; ++b) {
      canvas.put(c, options.height - 1 - b, b == bar ? '*' : ':');
    }
  }
  // Median / mean markers on a separate annotation row.
  const double lo = curve.x.front();
  const double hi = curve.x.back();
  const double med = stats::quantile_sorted(sorted, 0.5);
  const double mean = stats::arithmetic_mean(xs);
  auto col_of = [&](double v) {
    return static_cast<std::size_t>(std::clamp(
        (v - lo) / (hi - lo) * static_cast<double>(options.width - 1), 0.0,
        static_cast<double>(options.width - 1)));
  };
  std::string marks(options.width, ' ');
  marks[col_of(med)] = 'M';    // median
  marks[col_of(mean)] = 'A';   // arithmetic mean
  std::ostringstream os;
  os << title_line(options.title, options.width);
  os << canvas.str();
  os << '|' << marks << "|  M=median(" << format_number(med) << ") A=mean("
     << format_number(mean) << ")\n";
  os << axis_line(lo, hi, options.width, options.x_label);
  return os.str();
}

std::string render_box(std::span<const NamedSeries> series, const PlotOptions& options) {
  if (series.empty()) throw std::invalid_argument("render_box: no series");
  // Axis spans the whisker range, not the outliers: a single extreme
  // observation would otherwise squeeze every box into a sliver.
  std::vector<stats::BoxStats> boxes;
  std::size_t name_width = 0;
  for (const auto& s : series) {
    boxes.push_back(stats::box_stats(s.values));
    name_width = std::max(name_width, s.name.size());
  }
  double lo = boxes.front().whisker_low;
  double hi = boxes.front().whisker_high;
  for (const auto& b : boxes) {
    lo = std::min(lo, b.whisker_low);
    hi = std::max(hi, b.whisker_high);
  }
  if (hi == lo) hi = lo + 1.0;

  auto col_of = [&](double v) {
    return static_cast<std::size_t>(std::clamp(
        (v - lo) / (hi - lo) * static_cast<double>(options.width - 1), 0.0,
        static_cast<double>(options.width - 1)));
  };

  std::ostringstream os;
  os << title_line(options.title, options.width + name_width + 3);
  for (std::size_t i = 0; i < series.size(); ++i) {
    const auto& b = boxes[i];
    std::string row(options.width, ' ');
    for (std::size_t c = col_of(b.whisker_low); c <= col_of(b.q1); ++c) row[c] = '-';
    for (std::size_t c = col_of(b.q1); c <= col_of(b.q3); ++c) row[c] = '=';
    for (std::size_t c = col_of(b.q3); c <= col_of(b.whisker_high); ++c) row[c] = '-';
    row[col_of(b.whisker_low)] = '|';
    row[col_of(b.whisker_high)] = '|';
    row[col_of(b.q1)] = '[';
    row[col_of(b.q3)] = ']';
    row[col_of(b.median)] = 'M';
    std::string name = series[i].name;
    name.resize(name_width, ' ');
    os << ' ' << name << " |" << row << "|\n";
  }
  os << std::string(name_width + 2, ' ')
     << axis_line(lo, hi, options.width, options.x_label);
  os << "  [=]=IQR  M=median  |--|=1.5 IQR whiskers (outliers beyond axis omitted)\n";
  return os.str();
}

std::string render_violin(std::span<const NamedSeries> series, const PlotOptions& options) {
  if (series.empty()) throw std::invalid_argument("render_violin: no series");
  double lo = series.front().values.front();
  double hi = lo;
  for (const auto& s : series) {
    lo = std::min(lo, stats::min_value(s.values));
    hi = std::max(hi, stats::max_value(s.values));
  }
  if (hi == lo) hi = lo + 1.0;

  std::ostringstream os;
  os << title_line(options.title, options.width);
  // Glyph ramp for half-width of the violin at each x position.
  static constexpr char kRamp[] = {'.', ':', '+', '#'};
  for (const auto& s : series) {
    const auto curve = stats::kernel_density(s.values, options.width);
    const double peak = *std::max_element(curve.density.begin(), curve.density.end());
    const double c_lo = curve.x.front();
    const double c_hi = curve.x.back();
    std::string row(options.width, ' ');
    for (std::size_t c = 0; c < options.width && c < curve.density.size(); ++c) {
      const double frac = (peak > 0.0) ? curve.density[c] / peak : 0.0;
      if (frac > 0.02) {
        row[c] = kRamp[std::min<std::size_t>(static_cast<std::size_t>(frac * 4.0), 3)];
      }
    }
    const auto b = stats::box_stats(s.values);
    auto col_of = [&](double v) {
      return static_cast<std::size_t>(std::clamp(
          (v - c_lo) / (c_hi - c_lo) * static_cast<double>(options.width - 1), 0.0,
          static_cast<double>(options.width - 1)));
    };
    row[col_of(b.q1)] = '[';
    row[col_of(b.q3)] = ']';
    row[col_of(b.median)] = 'M';
    os << ' ' << s.name << "\n |" << row << "|\n";
    os << ' ' << axis_line(c_lo, c_hi, options.width, options.x_label);
  }
  os << "  density ramp . : + #   [ ]=quartiles  M=median\n";
  return os.str();
}

std::string render_qq(std::span<const double> xs, const PlotOptions& options) {
  // One sort serves the plotted points and r(QQ).
  const auto sorted = stats::sorted_copy(xs);
  const auto points = stats::qq_normal_sorted(sorted, options.width * 2);
  double x_lo = points.front().theoretical, x_hi = points.back().theoretical;
  double y_lo = points.front().sample, y_hi = points.back().sample;
  if (x_hi == x_lo) x_hi = x_lo + 1.0;
  if (y_hi == y_lo) y_hi = y_lo + 1.0;

  Canvas canvas(options.width, options.height);
  for (const auto& pt : points) {
    const auto c = static_cast<std::size_t>((pt.theoretical - x_lo) / (x_hi - x_lo) *
                                            static_cast<double>(options.width - 1));
    const auto r = static_cast<std::size_t>((pt.sample - y_lo) / (y_hi - y_lo) *
                                            static_cast<double>(options.height - 1));
    canvas.put(c, options.height - 1 - r, 'o');
  }
  // Reference diagonal through the quartile pair (as R's qqline).
  std::ostringstream os;
  os << title_line(options.title, options.width);
  os << canvas.str();
  os << axis_line(x_lo, x_hi, options.width, "theoretical quantiles (std normal)");
  os << "  straight diagonal of o's => plausibly normal; r(QQ)="
     << format_number(stats::qq_correlation_sorted(sorted)) << '\n';
  return os.str();
}

std::string render_xy(std::span<const XYSeries> series, const PlotOptions& options,
                      bool log_y) {
  if (series.empty()) throw std::invalid_argument("render_xy: no series");
  double x_lo = 0, x_hi = 0, y_lo = 0, y_hi = 0;
  bool first = true;
  for (const auto& s : series) {
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      const double y = log_y ? std::log10(s.y[i]) : s.y[i];
      if (first) {
        x_lo = x_hi = s.x[i];
        y_lo = y_hi = y;
        first = false;
      } else {
        x_lo = std::min(x_lo, s.x[i]);
        x_hi = std::max(x_hi, s.x[i]);
        y_lo = std::min(y_lo, y);
        y_hi = std::max(y_hi, y);
      }
    }
  }
  if (first) throw std::invalid_argument("render_xy: all series empty");
  if (x_hi == x_lo) x_hi = x_lo + 1.0;
  if (y_hi == y_lo) y_hi = y_lo + 1.0;

  Canvas canvas(options.width, options.height);
  for (const auto& s : series) {
    for (std::size_t i = 0; i < s.x.size() && i < s.y.size(); ++i) {
      const double y = log_y ? std::log10(s.y[i]) : s.y[i];
      const auto c = static_cast<std::size_t>((s.x[i] - x_lo) / (x_hi - x_lo) *
                                              static_cast<double>(options.width - 1));
      const auto r = static_cast<std::size_t>((y - y_lo) / (y_hi - y_lo) *
                                              static_cast<double>(options.height - 1));
      canvas.put(c, options.height - 1 - r, s.glyph);
    }
  }
  std::ostringstream os;
  os << title_line(options.title, options.width);
  os << canvas.str();
  os << axis_line(x_lo, x_hi, options.width, options.x_label);
  os << "  y-range: [" << format_number(log_y ? std::pow(10, y_lo) : y_lo) << ", "
     << format_number(log_y ? std::pow(10, y_hi) : y_hi) << ']'
     << (log_y ? " (log scale)" : "") << "  legend:";
  for (const auto& s : series) os << "  " << s.glyph << '=' << s.name;
  os << '\n';
  return os.str();
}

}  // namespace sci::core
