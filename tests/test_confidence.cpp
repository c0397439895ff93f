#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/confidence.hpp"
#include "stats/descriptive.hpp"
#include "stats/distributions.hpp"

namespace sci::stats {
namespace {

TEST(MeanCI, MatchesHandComputation) {
  const std::vector<double> v = {10.0, 12.0, 11.0, 13.0, 9.0};
  // mean 11, s = sqrt(2.5), t(4, .025) = 2.776.
  const auto ci = mean_confidence_interval(v, 0.95);
  const double half = 2.776 * std::sqrt(2.5) / std::sqrt(5.0);
  EXPECT_NEAR(ci.lower, 11.0 - half, 0.01);
  EXPECT_NEAR(ci.upper, 11.0 + half, 0.01);
  EXPECT_TRUE(ci.contains(11.0));
}

TEST(MeanCI, NarrowsWithMoreSamples) {
  rng::Xoshiro256 gen(1);
  std::vector<double> v;
  for (int i = 0; i < 20; ++i) v.push_back(rng::normal(gen, 5.0, 1.0));
  const double w20 = mean_confidence_interval(v).width();
  for (int i = 0; i < 480; ++i) v.push_back(rng::normal(gen, 5.0, 1.0));
  const double w500 = mean_confidence_interval(v).width();
  EXPECT_LT(w500, w20 / 3.0);  // ~ sqrt(25) = 5x narrower in expectation
}

TEST(MeanCI, CoverageProperty) {
  // 95% CIs should contain the true mean ~95% of the time (frequentist
  // interpretation spelled out in Section 3.1.2).
  rng::Xoshiro256 gen(2);
  int covered = 0;
  constexpr int kTrials = 2000;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<double> v;
    for (int i = 0; i < 30; ++i) v.push_back(rng::normal(gen, 10.0, 2.0));
    covered += mean_confidence_interval(v, 0.95).contains(10.0);
  }
  const double rate = static_cast<double>(covered) / kTrials;
  EXPECT_GT(rate, 0.93);
  EXPECT_LT(rate, 0.97);
}

TEST(MedianCI, CoveragePropertyOnSkewedData) {
  // The rank-based CI is distribution-free: check on lognormal data.
  rng::Xoshiro256 gen(3);
  const double true_median = std::exp(1.0);  // lognormal(1, 0.75)
  int covered = 0;
  constexpr int kTrials = 1500;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<double> v;
    for (int i = 0; i < 50; ++i) v.push_back(rng::lognormal(gen, 1.0, 0.75));
    covered += median_confidence_interval(v, 0.95).contains(true_median);
  }
  const double rate = static_cast<double>(covered) / kTrials;
  EXPECT_GT(rate, 0.92);  // rank CIs are conservative: >= nominal
}

TEST(MedianCI, BoundsAreObservedValues) {
  const std::vector<double> v = {5.0, 3.0, 8.0, 1.0, 9.0, 2.0, 7.0, 4.0, 6.0, 10.0};
  const auto ci = median_confidence_interval(v, 0.95);
  auto is_observed = [&](double x) {
    for (double w : v) {
      if (w == x) return true;
    }
    return false;
  };
  EXPECT_TRUE(is_observed(ci.lower));
  EXPECT_TRUE(is_observed(ci.upper));
  EXPECT_LE(ci.lower, median(v));
  EXPECT_GE(ci.upper, median(v));
}

TEST(MedianCI, IntervalSortedIsTheRankCiOrTheObservedRange) {
  // n <= 5: the observed [min, max], at the requested confidence.
  const std::vector<double> five = {1.0, 2.0, 3.0, 4.0, 5.5};
  const Interval small = median_interval_sorted(five);
  EXPECT_EQ(small.lower, 1.0);
  EXPECT_EQ(small.upper, 5.5);
  EXPECT_EQ(small.confidence, 0.95);
  EXPECT_EQ(median_interval_sorted(std::vector<double>{2.0}).upper, 2.0);
  // n > 5: exactly the rank CI.
  std::vector<double> many;
  for (int i = 0; i < 40; ++i) many.push_back(0.25 * i * i);
  for (const double confidence : {0.9, 0.95, 0.99}) {
    const Interval want = quantile_confidence_interval_sorted(many, 0.5, confidence);
    const Interval got = median_interval_sorted(many, confidence);
    EXPECT_EQ(got.lower, want.lower);
    EXPECT_EQ(got.upper, want.upper);
    EXPECT_EQ(got.confidence, want.confidence);
  }
  EXPECT_THROW((void)median_interval_sorted(std::vector<double>{}), std::invalid_argument);
}

TEST(QuantileCI, RequiresEnoughSamples) {
  const std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_THROW((void)quantile_confidence_interval(v, 0.5), std::invalid_argument);
}

TEST(QuantileCI, TailQuantileAsymmetric) {
  rng::Xoshiro256 gen(4);
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(rng::exponential(gen, 1.0));
  const auto ci = quantile_confidence_interval(v, 0.9, 0.95);
  const double q90 = quantile(v, 0.9);
  EXPECT_LE(ci.lower, q90);
  EXPECT_GE(ci.upper, q90);
}

TEST(Interval, OverlapLogic) {
  const Interval a{1.0, 2.0, 0.95};
  const Interval b{1.5, 3.0, 0.95};
  const Interval c{2.5, 3.0, 0.95};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_TRUE(b.overlaps(c));
}

TEST(RequiredSamples, MatchesFormula) {
  const std::vector<double> pilot = {10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5};
  const double mean = arithmetic_mean(pilot);
  const double s = sample_stddev(pilot);
  const double t = StudentT{7.0}.critical_two_sided(0.05);
  const auto n = required_samples_mean(pilot, 0.02, 0.95);
  const double expect = std::pow(s * t / (0.02 * mean), 2.0);
  EXPECT_EQ(n, static_cast<std::size_t>(std::ceil(expect)));
}

TEST(RequiredSamples, TighterErrorNeedsMore) {
  rng::Xoshiro256 gen(5);
  std::vector<double> pilot;
  for (int i = 0; i < 30; ++i) pilot.push_back(rng::normal(gen, 100.0, 15.0));
  EXPECT_GT(required_samples_mean(pilot, 0.01), required_samples_mean(pilot, 0.05));
}

TEST(QuantileConverged, DetectsConvergence) {
  // Very tight data converges immediately; wild data does not.
  std::vector<double> tight;
  rng::Xoshiro256 gen(6);
  for (int i = 0; i < 100; ++i) tight.push_back(rng::normal(gen, 100.0, 0.1));
  EXPECT_TRUE(quantile_ci_converged(tight, 0.5, 0.05));

  std::vector<double> wild;
  for (int i = 0; i < 10; ++i) wild.push_back(rng::pareto(gen, 1.0, 1.1));
  EXPECT_FALSE(quantile_ci_converged(wild, 0.5, 0.0001));
}

}  // namespace
}  // namespace sci::stats
