// Histogram and kernel density estimation: the data behind the paper's
// density plots (Figures 1-3) and violin plots (Figure 7c, Rule 12).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sci::stats {

struct Histogram {
  std::vector<double> edges;   ///< size bins+1, ascending
  std::vector<std::size_t> counts;
  std::vector<double> density; ///< counts normalized so the area is 1
  [[nodiscard]] std::size_t bins() const noexcept { return counts.size(); }
};

/// Equal-width histogram. `bins == 0` selects the Freedman-Diaconis rule
/// (falling back to Sturges when the IQR vanishes).
[[nodiscard]] Histogram make_histogram(std::span<const double> xs, std::size_t bins = 0);

struct DensityCurve {
  std::vector<double> x;
  std::vector<double> density;
  double bandwidth = 0.0;
};

/// Gaussian KDE evaluated on `points` equally spaced positions spanning
/// the data range widened by 3 bandwidths. `bandwidth == 0` selects
/// Silverman's rule of thumb. Each sample only visits the grid points
/// within sqrt(40) bandwidths of it (terms beyond are dropped), so the
/// cost is O(n * (1 + points * bandwidth / range)) -- about a fifth of
/// the grid per sample at Silverman's bandwidth on a unimodal series;
/// for very long series the input is thinned to <= 100k samples first.
[[nodiscard]] DensityCurve kernel_density(std::span<const double> xs,
                                          std::size_t points = 128,
                                          double bandwidth = 0.0);

/// As kernel_density, with `sorted` the ascending copy of `xs` for the
/// bandwidth's IQR (callers that sort anyway skip a second sort). The
/// sums still run over `xs` in its own order, so the curve is the same.
[[nodiscard]] DensityCurve kernel_density_sorted(std::span<const double> xs,
                                                 std::span<const double> sorted,
                                                 std::size_t points = 128,
                                                 double bandwidth = 0.0);

}  // namespace sci::stats
