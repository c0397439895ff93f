#include <gtest/gtest.h>

#include <vector>

#include "bootstrap_reference.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/bootstrap.hpp"
#include "stats/confidence.hpp"
#include "stats/descriptive.hpp"

namespace sci::stats {
namespace {

std::vector<double> normal_sample(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(rng::normal(gen, 50.0, 5.0));
  return v;
}

TEST(Bootstrap, DeterministicForFixedSeed) {
  const auto v = normal_sample(40, 1);
  const auto mean_stat = [](std::span<const double> xs) { return arithmetic_mean(xs); };
  const auto d1 = bootstrap_distribution(v, mean_stat, 200, 7);
  const auto d2 = bootstrap_distribution(v, mean_stat, 200, 7);
  EXPECT_EQ(d1, d2);
  const auto d3 = bootstrap_distribution(v, mean_stat, 200, 8);
  EXPECT_NE(d1, d3);
}

TEST(Bootstrap, PercentileCiCloseToParametricOnNormalData) {
  const auto v = normal_sample(100, 2);
  const auto mean_stat = [](std::span<const double> xs) { return arithmetic_mean(xs); };
  const auto boot = bootstrap_percentile_ci(v, mean_stat, 2000, 0.95, 3);
  const auto param = mean_confidence_interval(v, 0.95);
  EXPECT_NEAR(boot.lower, param.lower, 0.35);
  EXPECT_NEAR(boot.upper, param.upper, 0.35);
}

TEST(Bootstrap, CiContainsPointEstimate) {
  const auto v = normal_sample(60, 4);
  const auto med = [](std::span<const double> xs) { return median(xs); };
  const auto ci = bootstrap_percentile_ci(v, med, 500, 0.95, 5);
  const double point = median(v);
  EXPECT_LE(ci.lower, point);
  EXPECT_GE(ci.upper, point);
}

TEST(Bootstrap, CoverageOfMeanCi) {
  // Percentile bootstrap 90% CIs should cover the true mean ~90%.
  int covered = 0;
  constexpr int kTrials = 200;
  const auto mean_stat = [](std::span<const double> xs) { return arithmetic_mean(xs); };
  for (int t = 0; t < kTrials; ++t) {
    const auto v = normal_sample(40, 1000 + t);
    covered += bootstrap_percentile_ci(v, mean_stat, 400, 0.90, t).contains(50.0);
  }
  const double rate = static_cast<double>(covered) / kTrials;
  EXPECT_GT(rate, 0.82);
  EXPECT_LT(rate, 0.97);
}

TEST(Bootstrap, BcaCorrectsSkew) {
  // On right-skewed data, BCa shifts the CI relative to the naive
  // percentile CI; both must stay valid brackets of the estimate region.
  rng::Xoshiro256 gen(6);
  std::vector<double> v;
  for (int i = 0; i < 50; ++i) v.push_back(rng::lognormal(gen, 0.0, 1.0));
  const auto mean_stat = [](std::span<const double> xs) { return arithmetic_mean(xs); };
  const auto naive = bootstrap_percentile_ci(v, mean_stat, 1000, 0.95, 9);
  const auto bca = bootstrap_bca_ci(v, mean_stat, 1000, 0.95, 9);
  EXPECT_GT(bca.upper, bca.lower);
  EXPECT_NE(bca.lower, naive.lower);  // correction does something
  EXPECT_TRUE(bca.contains(arithmetic_mean(v)));
}

TEST(Bootstrap, InputValidation) {
  const auto mean_stat = [](std::span<const double> xs) { return arithmetic_mean(xs); };
  EXPECT_THROW(bootstrap_distribution(std::vector<double>{1.0}, mean_stat, 10),
               std::invalid_argument);
  const std::vector<double> v = {1.0, 2.0, 3.0};
  EXPECT_THROW(bootstrap_distribution(v, mean_stat, 0), std::invalid_argument);
  EXPECT_THROW(bootstrap_distribution(std::vector<double>{1.0}, ResampleStat::mean(), 10),
               std::invalid_argument);
  EXPECT_THROW(bootstrap_distribution(v, ResampleStat::median(), 0), std::invalid_argument);
  EXPECT_THROW(ResampleStat::quantile(-0.1), std::domain_error);
  EXPECT_THROW(ResampleStat::quantile(1.5), std::domain_error);
}

// ---------------------------------------------------------------------------
// Engine vs the naive oracle (bootstrap_reference.hpp), through both the
// ResampleStat and the Statistic overloads: the contract is exact,
// seed-for-seed, bit-for-bit equality -- not statistical closeness.
// ---------------------------------------------------------------------------

/// (fast statistic, equivalent opaque callback) pairs under test.
struct StatPair {
  const char* name;
  ResampleStat fast;
  Statistic generic;
};

std::vector<StatPair> stat_pairs() {
  std::vector<StatPair> pairs;
  pairs.push_back({"mean", ResampleStat::mean(),
                   [](std::span<const double> xs) { return arithmetic_mean(xs); }});
  pairs.push_back({"median", ResampleStat::median(),
                   [](std::span<const double> xs) { return median(xs); }});
  pairs.push_back({"q1", ResampleStat::quantile(0.25),
                   [](std::span<const double> xs) { return quantile(xs, 0.25); }});
  pairs.push_back({"q3", ResampleStat::quantile(0.75),
                   [](std::span<const double> xs) { return quantile(xs, 0.75); }});
  pairs.push_back({"q1_r1", ResampleStat::quantile(0.25, QuantileMethod::kR1InverseEcdf),
                   [](std::span<const double> xs) {
                     return quantile(xs, 0.25, QuantileMethod::kR1InverseEcdf);
                   }});
  pairs.push_back({"q90_r6", ResampleStat::quantile(0.9, QuantileMethod::kR6Weibull),
                   [](std::span<const double> xs) {
                     return quantile(xs, 0.9, QuantileMethod::kR6Weibull);
                   }});
  return pairs;
}

std::vector<std::vector<double>> equality_fixtures() {
  std::vector<std::vector<double>> fixtures;
  fixtures.push_back(normal_sample(37, 11));  // odd n
  fixtures.push_back(normal_sample(64, 12));  // even n
  // Tie-heavy: quantized timer readings, the worst case for rank tricks.
  rng::Xoshiro256 gen(13);
  std::vector<double> ties;
  for (int i = 0; i < 48; ++i) {
    ties.push_back(1e-3 * static_cast<double>(rng::uniform_below(gen, 6)));
  }
  fixtures.push_back(std::move(ties));
  // Right-skewed, like real latency data.
  std::vector<double> skewed;
  for (int i = 0; i < 51; ++i) skewed.push_back(rng::lognormal(gen, 0.0, 1.0));
  fixtures.push_back(std::move(skewed));
  return fixtures;
}

TEST(BootstrapFastPath, DistributionBitIdenticalToGenericPath) {
  for (const auto& xs : equality_fixtures()) {
    for (const auto& pair : stat_pairs()) {
      for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{0xb00f}}) {
        const auto want = reference_multilane(xs, pair.generic, 300, seed, 1);
        ASSERT_EQ(bootstrap_distribution(xs, pair.fast, 300, seed), want)
            << pair.name << " seed " << seed << " n " << xs.size();
        ASSERT_EQ(bootstrap_distribution(xs, pair.generic, 300, seed), want)
            << pair.name << " seed " << seed << " n " << xs.size();
      }
    }
  }
}

TEST(BootstrapFastPath, PercentileCiBitIdenticalToGenericPath) {
  for (const auto& xs : equality_fixtures()) {
    for (const auto& pair : stat_pairs()) {
      const auto want = reference_percentile_ci(xs, pair.generic, 400, 0.95, 21);
      const auto fast = bootstrap_percentile_ci(xs, pair.fast, 400, 0.95, 21);
      const auto generic = bootstrap_percentile_ci(xs, pair.generic, 400, 0.95, 21);
      EXPECT_EQ(fast.lower, want.lower) << pair.name;
      EXPECT_EQ(fast.upper, want.upper) << pair.name;
      EXPECT_EQ(generic.lower, want.lower) << pair.name;
      EXPECT_EQ(generic.upper, want.upper) << pair.name;
    }
  }
}

TEST(BootstrapFastPath, BcaCiBitIdenticalToGenericPath) {
  for (const auto& xs : equality_fixtures()) {
    for (const auto& pair : stat_pairs()) {
      const auto want = reference_bca_ci(xs, pair.generic, 400, 0.95, 31);
      const auto fast = bootstrap_bca_ci(xs, pair.fast, 400, 0.95, 31);
      const auto generic = bootstrap_bca_ci(xs, pair.generic, 400, 0.95, 31);
      EXPECT_EQ(fast.lower, want.lower) << pair.name;
      EXPECT_EQ(fast.upper, want.upper) << pair.name;
      EXPECT_EQ(generic.lower, want.lower) << pair.name;
      EXPECT_EQ(generic.upper, want.upper) << pair.name;
    }
  }
}

TEST(BootstrapFastPath, SmallSamplesAndOddReplicateCountsStayBitIdentical) {
  // Edge shapes for the engine: n below the 4-wide wave width, replicate
  // counts that don't divide evenly, and a single replicate.
  for (const std::size_t n : {2u, 3u, 5u}) {
    const auto xs = normal_sample(n, 70 + n);
    for (const auto& pair : stat_pairs()) {
      for (const std::size_t replicates : {1u, 7u, 33u}) {
        const auto want = reference_multilane(xs, pair.generic, replicates, 23, 1);
        ASSERT_EQ(bootstrap_distribution(xs, pair.fast, replicates, 23), want)
            << pair.name << " n " << n << " R " << replicates;
        ASSERT_EQ(bootstrap_distribution(xs, pair.generic, replicates, 23), want)
            << pair.name << " n " << n << " R " << replicates;
      }
    }
  }
}

TEST(BootstrapFastPath, CustomKindMatchesStatisticOverloadExactly) {
  const auto v = normal_sample(40, 17);
  const Statistic cov = [](std::span<const double> xs) {
    return coefficient_of_variation(xs);
  };
  const auto want = reference_bca_ci(v, cov, 300, 0.95, 5);
  const auto via_custom = bootstrap_bca_ci(v, ResampleStat::custom(cov), 300, 0.95, 5);
  const auto via_statistic = bootstrap_bca_ci(v, cov, 300, 0.95, 5);
  EXPECT_EQ(via_custom.lower, want.lower);
  EXPECT_EQ(via_custom.upper, want.upper);
  EXPECT_EQ(via_statistic.lower, want.lower);
  EXPECT_EQ(via_statistic.upper, want.upper);
}

TEST(BootstrapFastPath, EvaluateMatchesDirectStatistics) {
  const auto v = normal_sample(25, 19);
  EXPECT_EQ(ResampleStat::mean().evaluate(v), arithmetic_mean(v));
  EXPECT_EQ(ResampleStat::median().evaluate(v), median(v));
  EXPECT_EQ(ResampleStat::quantile(0.25).evaluate(v), quantile(v, 0.25));
}

}  // namespace
}  // namespace sci::stats
