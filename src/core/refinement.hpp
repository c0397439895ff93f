// Adaptive level refinement (Section 4.2 "Adaptive Level Refinement":
// "one could use adaptive refinement to measure levels where the
// uncertainty is highest, similar to active learning. SKaMPI uses this
// approach assuming parameters are linear.")
//
// Given a measurable f(level) and an initial set of levels (message
// sizes, process counts, ...), the refiner spends a fixed measurement
// budget where it is most informative:
//   - sampling the level whose nonparametric CI is widest relative to
//     its center (uncertainty-driven), and
//   - inserting midpoints where linear interpolation between neighboring
//     levels mispredicts the measured value the most (SKaMPI-style
//     shape-driven refinement) -- and beyond noise: the interpolation
//     of the neighbors' CIs must miss the level's own median CI.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "stats/confidence.hpp"

namespace sci::core {

struct RefinementOptions {
  std::size_t initial_samples = 10;   ///< per level before refinement starts
  std::size_t batch = 5;              ///< samples added per refinement step
  std::size_t total_budget = 500;     ///< total measurement invocations
  double confidence = 0.95;
  /// Insert a midpoint level when linear interpolation of the medians of
  /// its neighbors misses the measured median by more than this fraction.
  bool insert_midpoints = true;
  double interpolation_tolerance = 0.1;
  std::size_t max_levels = 64;
};

struct RefinedLevel {
  double level = 0.0;
  std::vector<double> samples;
  double median = 0.0;
  stats::Interval ci;           ///< median CI (stats::median_interval_sorted)
  bool inserted = false;        ///< added by midpoint refinement
};

/// Measures `measure(level)` adaptively. `levels` must be sorted
/// ascending with at least two entries. Results are sorted by level.
[[nodiscard]] std::vector<RefinedLevel> measure_adaptive_levels(
    const std::function<double(double)>& measure, std::vector<double> levels,
    const RefinementOptions& options = {});

}  // namespace sci::core
