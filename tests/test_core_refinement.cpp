#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "core/refinement.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"

namespace sci::core {
namespace {

TEST(Refinement, BudgetRespectedAndSorted) {
  rng::Xoshiro256 gen(1);
  std::size_t calls = 0;
  RefinementOptions opts;
  opts.total_budget = 200;
  const auto levels = measure_adaptive_levels(
      [&](double level) {
        ++calls;
        return level + rng::normal(gen, 0.0, 0.1);
      },
      {1.0, 2.0, 4.0, 8.0}, opts);
  EXPECT_LE(calls, 200u);
  EXPECT_GE(calls, 40u);  // initial sampling happened
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_GT(levels[i].level, levels[i - 1].level);
  }
  for (const auto& lvl : levels) {
    EXPECT_EQ(lvl.samples.size() >= 5, true);
    EXPECT_LE(lvl.ci.lower, lvl.median);
    EXPECT_GE(lvl.ci.upper, lvl.median);
  }
}

TEST(Refinement, SpendsBudgetOnNoisyLevels) {
  // Level 100 is 30x noisier than the others: it must receive the bulk
  // of the refinement budget.
  rng::Xoshiro256 gen(2);
  RefinementOptions opts;
  opts.total_budget = 400;
  opts.insert_midpoints = false;
  const auto levels = measure_adaptive_levels(
      [&](double level) {
        const double sigma = (level == 100.0) ? 30.0 : 1.0;
        return 1000.0 + rng::normal(gen, 0.0, sigma);
      },
      {10.0, 50.0, 100.0, 200.0}, opts);
  std::map<double, std::size_t> counts;
  for (const auto& lvl : levels) counts[lvl.level] = lvl.samples.size();
  EXPECT_GT(counts[100.0], 3 * counts[10.0]);
}

TEST(Refinement, InsertsMidpointsAtNonlinearity) {
  // Step function between 32 and 64 (e.g. an eager/rendezvous protocol
  // switch): the refiner should insert levels into that gap.
  rng::Xoshiro256 gen(3);
  RefinementOptions opts;
  opts.total_budget = 400;
  const auto levels = measure_adaptive_levels(
      [&](double level) {
        const double base = (level <= 40.0) ? 1.0 : 10.0;
        return base + rng::normal(gen, 0.0, 0.01);
      },
      {1.0, 16.0, 32.0, 64.0, 128.0, 256.0}, opts);
  bool inserted_in_gap = false;
  for (const auto& lvl : levels) {
    if (lvl.inserted && lvl.level > 16.0 && lvl.level < 128.0) inserted_in_gap = true;
  }
  EXPECT_TRUE(inserted_in_gap);
  EXPECT_GT(levels.size(), 6u);
}

TEST(Refinement, LinearDataNeedsNoMidpoints) {
  rng::Xoshiro256 gen(4);
  RefinementOptions opts;
  opts.total_budget = 300;
  const auto levels = measure_adaptive_levels(
      [&](double level) { return 3.0 * level + rng::normal(gen, 0.0, 0.001); },
      {10.0, 20.0, 30.0, 40.0}, opts);
  for (const auto& lvl : levels) EXPECT_FALSE(lvl.inserted);
}

TEST(Refinement, DeterministicMeasurementStopsEarly) {
  std::size_t calls = 0;
  RefinementOptions opts;
  opts.total_budget = 10000;
  opts.insert_midpoints = false;
  const auto levels = measure_adaptive_levels(
      [&](double level) {
        ++calls;
        return level * 2.0;  // exact
      },
      {1.0, 2.0, 3.0}, opts);
  // CIs have zero width everywhere: no point burning the budget.
  EXPECT_LT(calls, 100u);
  EXPECT_EQ(levels.size(), 3u);
}

TEST(Refinement, BudgetGoesToLevelsWithMoreThanFiveSamples) {
  // A latency floor (max(x, 1000) times lognormal noise): the middle
  // levels sit on the floor, and the curve bends at the first of them.
  // Midpoints inserted where interpolation merely looks off used to
  // start at 5 samples with a zero-width CI and pile up there; at most
  // a quarter of the budget may end in levels of n <= 5.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    rng::Xoshiro256 gen(seed);
    RefinementOptions opts;
    opts.total_budget = 400;
    const auto levels = measure_adaptive_levels(
        [&](double level) { return std::max(level, 1000.0) * rng::lognormal(gen, 0.0, 0.3); },
        {10.0, 1000.0, 10000.0, 100000.0}, opts);
    std::size_t thin = 0;
    for (const auto& lvl : levels) {
      if (lvl.samples.size() <= 5) thin += lvl.samples.size();
    }
    EXPECT_LE(thin, 100u) << "seed " << seed;
  }
}

TEST(Refinement, Validation) {
  const auto f = [](double) { return 1.0; };
  EXPECT_THROW(measure_adaptive_levels(nullptr, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(measure_adaptive_levels(f, {1.0}), std::invalid_argument);
  EXPECT_THROW(measure_adaptive_levels(f, {2.0, 1.0}), std::invalid_argument);
  RefinementOptions tiny;
  tiny.total_budget = 5;  // below initial sampling
  EXPECT_THROW(measure_adaptive_levels(f, {1.0, 2.0}, tiny), std::invalid_argument);
}

}  // namespace
}  // namespace sci::core
