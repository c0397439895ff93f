#include "core/refinement.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/confidence.hpp"
#include "stats/descriptive.hpp"

namespace sci::core {
namespace {

void resummarize(RefinedLevel& lvl, double confidence) {
  // Runs after every refinement batch; one sort serves both the median
  // and its CI (the observed [min, max] while n <= 5, so a fresh
  // midpoint is not mistaken for an exact one).
  const auto sorted = stats::sorted_copy(lvl.samples);
  lvl.median = stats::quantile_sorted(sorted, 0.5);
  lvl.ci = stats::median_interval_sorted(sorted, confidence);
}

/// Relative CI width; the refinement priority.
double uncertainty(const RefinedLevel& lvl) {
  if (lvl.median == 0.0) return lvl.ci.width();
  return lvl.ci.width() / std::fabs(lvl.median);
}

}  // namespace

std::vector<RefinedLevel> measure_adaptive_levels(
    const std::function<double(double)>& measure, std::vector<double> levels,
    const RefinementOptions& options) {
  if (!measure) throw std::invalid_argument("measure_adaptive_levels: null function");
  if (levels.size() < 2)
    throw std::invalid_argument("measure_adaptive_levels: need >= 2 levels");
  if (!std::is_sorted(levels.begin(), levels.end()))
    throw std::invalid_argument("measure_adaptive_levels: levels must be sorted");
  if (options.initial_samples * levels.size() > options.total_budget)
    throw std::invalid_argument("measure_adaptive_levels: budget below initial sampling");

  std::vector<RefinedLevel> out;
  out.reserve(levels.size());
  std::size_t spent = 0;
  for (double level : levels) {
    RefinedLevel lvl;
    lvl.level = level;
    for (std::size_t i = 0; i < options.initial_samples; ++i) {
      lvl.samples.push_back(measure(level));
      ++spent;
    }
    resummarize(lvl, options.confidence);
    out.push_back(std::move(lvl));
  }

  while (spent + options.batch <= options.total_budget) {
    // Shape-driven: insert a midpoint where interpolation fails worst.
    std::size_t insert_after = out.size();
    double worst_gap = options.interpolation_tolerance;
    if (options.insert_midpoints && out.size() < options.max_levels) {
      for (std::size_t i = 0; i + 2 < out.size(); ++i) {
        // Predict the middle level from its neighbors.
        const auto& a = out[i];
        const auto& b = out[i + 1];
        const auto& c = out[i + 2];
        if (c.level == a.level) continue;
        const double t = (b.level - a.level) / (c.level - a.level);
        const double predicted = a.median + t * (c.median - a.median);
        const double gap =
            (b.median != 0.0) ? std::fabs(predicted - b.median) / std::fabs(b.median) : 0.0;
        // The same interpolation of the neighbors' CI bounds: where it
        // overlaps the middle level's CI, the miss may be noise alone.
        const stats::Interval predicted_ci{(1.0 - t) * a.ci.lower + t * c.ci.lower,
                                           (1.0 - t) * a.ci.upper + t * c.ci.upper,
                                           options.confidence};
        // Candidate midpoints flank a level that is poorly predicted, and
        // provably so.
        if (gap > worst_gap && b.level - a.level > 1.0 && !b.ci.overlaps(predicted_ci)) {
          worst_gap = gap;
          insert_after = i;
        }
      }
    }
    if (insert_after < out.size()) {
      RefinedLevel mid;
      mid.level = std::floor((out[insert_after].level + out[insert_after + 1].level) / 2.0);
      mid.inserted = true;
      for (std::size_t i = 0; i < options.batch && spent < options.total_budget; ++i) {
        mid.samples.push_back(measure(mid.level));
        ++spent;
      }
      resummarize(mid, options.confidence);
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(insert_after) + 1,
                 std::move(mid));
      continue;
    }

    // Uncertainty-driven: refine the level with the widest relative CI.
    auto widest = std::max_element(out.begin(), out.end(),
                                   [](const RefinedLevel& a, const RefinedLevel& b) {
                                     return uncertainty(a) < uncertainty(b);
                                   });
    if (uncertainty(*widest) == 0.0) break;  // everything is exact
    for (std::size_t i = 0; i < options.batch && spent < options.total_budget; ++i) {
      widest->samples.push_back(measure(widest->level));
      ++spent;
    }
    resummarize(*widest, options.confidence);
  }
  return out;
}

}  // namespace sci::core
