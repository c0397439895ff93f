// Differential and property tests for the multi-lane bootstrap stack:
// multi-lane RNG streams, the histogram rank-selection kernel, the
// BootstrapEngine's lane determinism contract, and the grouped
// policy-taking entry points with their thread fan-out.
//
// The oracle throughout is the deliberately naive scalar reference in
// bootstrap_reference.hpp: lane l draws from Xoshiro256(seed) jumped l
// times and evaluates each replicate on a materialized resample. The
// engine -- index tiles, rank selection, Kahan rows -- must reproduce
// it bit for bit at every lane count.
//
// Own test binary: links counting_new.cpp, which overrides global
// operator new/delete to count allocator entries, proving the engine's warmed steady state performs
// zero allocations per distribution() call.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <atomic>
#include <span>
#include <thread>
#include <vector>

#include "bootstrap_reference.hpp"
#include "counting_new.hpp"
#include "rng/distributions.hpp"
#include "rng/lanes.hpp"
#include "rng/xoshiro.hpp"
#include "stats/bootstrap.hpp"
#include "stats/bootstrap_engine.hpp"
#include "stats/confidence.hpp"
#include "stats/descriptive.hpp"
#include "stats/histogram_select.hpp"
#include "stats/parallel.hpp"
#include "stats/quantile_regression.hpp"

namespace sci::stats {
namespace {

std::vector<double> lognormal_sample(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(rng::lognormal(gen, 0.0, 0.7));
  return v;
}

struct StatCase {
  const char* name;
  ResampleStat fast;
  Statistic generic;
};

std::vector<StatCase> stat_cases() {
  std::vector<StatCase> cases;
  cases.push_back({"mean", ResampleStat::mean(),
                   [](std::span<const double> xs) { return arithmetic_mean(xs); }});
  cases.push_back({"median", ResampleStat::median(),
                   [](std::span<const double> xs) { return median(xs); }});
  cases.push_back({"q90_r6", ResampleStat::quantile(0.9, QuantileMethod::kR6Weibull),
                   [](std::span<const double> xs) {
                     return quantile(xs, 0.9, QuantileMethod::kR6Weibull);
                   }});
  cases.push_back({"q25_r1", ResampleStat::quantile(0.25, QuantileMethod::kR1InverseEcdf),
                   [](std::span<const double> xs) {
                     return quantile(xs, 0.25, QuantileMethod::kR1InverseEcdf);
                   }});
  // p = 0 and p = 1 plan to plain min/max scans of the drawn ranks.
  cases.push_back({"p0", ResampleStat::quantile(0.0),
                   [](std::span<const double> xs) { return quantile(xs, 0.0); }});
  cases.push_back({"p1", ResampleStat::quantile(1.0),
                   [](std::span<const double> xs) { return quantile(xs, 1.0); }});
  const Statistic cov = [](std::span<const double> xs) {
    return coefficient_of_variation(xs);
  };
  cases.push_back({"custom_cov", ResampleStat::custom(cov), cov});
  return cases;
}

// ------------------------------------------------------- lane RNG

TEST(LaneRng, LaneLIsSeedGeneratorJumpedLTimes) {
  rng::LaneRng lanes;
  lanes.reset(0xfeedface, 5);
  for (std::size_t l = 0; l < 5; ++l) {
    rng::Xoshiro256 want(0xfeedface);
    for (std::size_t j = 0; j < l; ++j) want.jump();
    rng::Xoshiro256 got = lanes.lane(l);  // copy; don't advance the member
    for (int i = 0; i < 64; ++i) ASSERT_EQ(got(), want()) << "lane " << l;
  }
}

TEST(LaneRng, FillIndicesMatchesScalarUniformBelowDrawForDraw) {
  // Every (bound, count) cell, with and without a rank map, against the
  // scalar loop -- including bounds that trigger Lemire rejections.
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 7ull, 641ull}) {
    for (std::size_t count : {1u, 2u, 5u, 33u}) {
      const std::size_t kLanes = 6;
      std::vector<std::uint32_t> map(bound);
      for (std::uint32_t i = 0; i < bound; ++i) map[i] = i * 2 + 1;

      for (const bool mapped : {false, true}) {
        rng::LaneRng lanes;
        lanes.reset(99, kLanes);
        const std::size_t stride = count + 3;  // padding must stay untouched
        std::vector<std::uint32_t> out(kLanes * stride, 0xdeadbeef);
        // Fill in two calls to exercise first/active offsets.
        lanes.fill_indices(bound, count, 0, 2, mapped ? map.data() : nullptr, out.data(),
                           stride);
        lanes.fill_indices(bound, count, 2, kLanes - 2, mapped ? map.data() : nullptr,
                           out.data() + 2 * stride, stride);

        rng::Xoshiro256 root(99);
        for (std::size_t l = 0; l < kLanes; ++l) {
          rng::Xoshiro256 gen = root.split();
          for (std::size_t i = 0; i < count; ++i) {
            const auto draw =
                static_cast<std::uint32_t>(rng::uniform_below(gen, bound));
            const std::uint32_t want = mapped ? map[draw] : draw;
            ASSERT_EQ(out[l * stride + i], want)
                << "lane " << l << " draw " << i << " bound " << bound;
          }
          for (std::size_t i = count; i < stride; ++i) {
            ASSERT_EQ(out[l * stride + i], 0xdeadbeefu) << "padding clobbered";
          }
        }
      }
    }
  }
}

// ------------------------------------------------ selection kernels

TEST(Selection, MinMaxOfMatchSortedUnderDuplicates) {
  rng::Xoshiro256 gen(7);
  for (std::size_t n : {1u, 2u, 3u, 5u, 24u, 25u, 100u, 257u}) {
    // Small bounds force heavy duplication.
    for (std::uint64_t bound : {1ull, 3ull, 8ull, 1000ull}) {
      std::vector<std::uint32_t> data(n);
      for (auto& v : data) v = static_cast<std::uint32_t>(rng::uniform_below(gen, bound));
      auto sorted = data;
      std::sort(sorted.begin(), sorted.end());
      ASSERT_EQ(min_of(data.data(), n), sorted.front()) << "n " << n << " bound " << bound;
      ASSERT_EQ(max_of(data.data(), n), sorted.back()) << "n " << n << " bound " << bound;
    }
  }
}

TEST(HistogramSelect, MatchesMaterializedQuantile) {
  // Differential per (n, m, p, method), m != n included: histogram
  // select == quantile() on the materialized resample. p in {0, 1}
  // covers the kMin/kMax scans; the sparse histograms (m draws over n
  // bins) exercise the pair walk's scan over runs of empty bins.
  rng::Xoshiro256 gen(21);
  for (const std::size_t n : {2u, 3u, 8u, 24u, 57u, 256u}) {
    const auto sorted = sorted_copy(lognormal_sample(n, 500 + n));
    std::vector<std::uint32_t> counts(n);
    for (const std::size_t m : {1u, 2u, 7u, 64u}) {
      std::vector<std::uint32_t> row(m);
      std::vector<double> resample(m);
      for (std::size_t i = 0; i < m; ++i) {
        row[i] = static_cast<std::uint32_t>(rng::uniform_below(gen, n));
        resample[i] = sorted[row[i]];
      }
      for (const auto method :
           {QuantileMethod::kR1InverseEcdf, QuantileMethod::kR6Weibull,
            QuantileMethod::kR7Linear}) {
        for (const double p : {0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0}) {
          const auto plan = make_quantile_plan(m, p, method);
          const double want = quantile(resample, p, method);
          ASSERT_EQ(histogram_select_quantile(row, sorted, counts, plan), want)
              << "n " << n << " m " << m << " p " << p;
        }
      }
    }
  }
}

// ------------------------------------------- engine bit-determinism

TEST(BootstrapEngine, MatchesScalarReferenceAtEveryThreadAndLaneCount) {
  // The engine's contract: output is a pure function of (data, stat,
  // replicates, seed, lanes), and index tiles, rank selection and the
  // interleaved Kahan rows are invisible relative to the naive per-lane
  // oracle. A bootstrap runs on the calling thread, so lanes are the
  // only count to vary; with R in {1, 7, 33} the lane blocks cover full
  // tiles of eight rows and partial ones.
  const auto cases = stat_cases();
  for (const std::size_t n : {2u, 3u, 23u}) {
    const auto xs = lognormal_sample(n, 41 + n);
    for (const auto& sc : cases) {
      // Replicate counts: R < lanes, odd R, R % lanes != 0.
      for (const std::size_t replicates : {1u, 7u, 33u}) {
        for (const std::size_t lanes : {1u, 2u, 3u, 8u}) {
          const auto want =
              reference_multilane(xs, sc.generic, replicates, 17, lanes);
          BootstrapEngine engine(lanes);
          std::vector<double> got;
          engine.distribution(xs, sc.fast, replicates, 17, got);
          ASSERT_EQ(got, want) << sc.name << " n=" << n << " R=" << replicates
                               << " lanes=" << lanes;
        }
      }
    }
  }
}

TEST(BootstrapEngine, SingleLaneIsByteIdenticalToLegacyEntryPoints) {
  // lanes = 0 and lanes = 1 both name the historical single-stream
  // path: the free-function defaults as callers use them, and a reused
  // engine.
  const auto xs = lognormal_sample(31, 5);
  for (const auto& sc : stat_cases()) {
    const auto legacy = bootstrap_distribution(xs, sc.fast, 250, 0xb00f);
    const auto legacy_ci = bootstrap_percentile_ci(xs, sc.fast, 250, 0.95, 0xb00f);
    const auto legacy_bca = bootstrap_bca_ci(xs, sc.fast, 250, 0.95, 0xb00f);
    for (const std::size_t lanes : {0u, 1u}) {
      EXPECT_EQ(bootstrap_distribution(xs, sc.fast, 250, 0xb00f, lanes), legacy)
          << sc.name;
      BootstrapEngine engine(lanes);
      const auto ci = engine.percentile_ci(xs, sc.fast, 250, 0.95, 0xb00f);
      EXPECT_EQ(ci.lower, legacy_ci.lower) << sc.name;
      EXPECT_EQ(ci.upper, legacy_ci.upper) << sc.name;
      const auto bca = engine.bca_ci(xs, sc.fast, 250, 0.95, 0xb00f);
      EXPECT_EQ(bca.lower, legacy_bca.lower) << sc.name;
      EXPECT_EQ(bca.upper, legacy_bca.upper) << sc.name;
    }
  }
}

TEST(BootstrapEngine, ReusedEngineMatchesFreshEngineAcrossShapes) {
  // Scratch reuse across calls of different (n, R, stat) shapes must
  // never leak state between jobs.
  BootstrapEngine engine(4);
  std::vector<double> got;
  for (const std::size_t n : {23u, 2u, 57u, 3u}) {
    const auto xs = lognormal_sample(n, 100 + n);
    for (const std::size_t replicates : {33u, 5u}) {
      for (const auto& sc : stat_cases()) {
        BootstrapEngine fresh(4);
        std::vector<double> want;
        fresh.distribution(xs, sc.fast, replicates, 7, want);
        engine.distribution(xs, sc.fast, replicates, 7, got);
        ASSERT_EQ(got, want) << sc.name << " n=" << n << " R=" << replicates;
      }
    }
  }
}

TEST(BootstrapEngine, ValidatesInput) {
  BootstrapEngine engine(4);
  std::vector<double> out;
  const std::vector<double> one = {1.0};
  const std::vector<double> ok = {1.0, 2.0, 3.0};
  EXPECT_THROW(engine.distribution(one, ResampleStat::mean(), 10, 1, out),
               std::invalid_argument);
  EXPECT_THROW(engine.distribution(ok, ResampleStat::mean(), 0, 1, out),
               std::invalid_argument);
}

// ---------------------------------------------- grouped entry points

TEST(GroupedStats, QuantileSummaryIsThreadInvariantAndMatchesScalar) {
  std::vector<std::vector<double>> groups;
  for (std::size_t g = 0; g < 9; ++g) {
    // Mix of rank-CI-eligible (n > 5) and fallback (n <= 5) groups.
    groups.push_back(lognormal_sample(g % 3 == 0 ? 4 : 40 + g, 7 * g + 1));
  }
  const auto want = grouped_quantile_summary(groups, 0.5, 0.95, ExecPolicy{1, 1});
  ASSERT_EQ(want.size(), groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    EXPECT_EQ(want[g].value, quantile(groups[g], 0.5)) << "group " << g;
    EXPECT_EQ(want[g].n, groups[g].size());
    if (groups[g].size() > 5) {
      EXPECT_TRUE(want[g].ci_rank_based);
      const auto ci = quantile_confidence_interval(groups[g], 0.5, 0.95);
      EXPECT_EQ(want[g].ci.lower, ci.lower) << "group " << g;
      EXPECT_EQ(want[g].ci.upper, ci.upper) << "group " << g;
    } else {
      EXPECT_FALSE(want[g].ci_rank_based);
      EXPECT_EQ(want[g].ci.lower, min_value(groups[g]));
      EXPECT_EQ(want[g].ci.upper, max_value(groups[g]));
    }
  }
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const auto got = grouped_quantile_summary(groups, 0.5, 0.95, ExecPolicy{threads, 1});
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t g = 0; g < want.size(); ++g) {
      EXPECT_EQ(got[g].value, want[g].value) << "threads " << threads;
      EXPECT_EQ(got[g].ci.lower, want[g].ci.lower) << "threads " << threads;
      EXPECT_EQ(got[g].ci.upper, want[g].ci.upper) << "threads " << threads;
    }
  }
}

TEST(GroupedStats, QuantileRegressionCiDefaultPolicyMatchesLegacyAndIsThreadInvariant) {
  // Two-level design: y = 1 + 2x + lognormal noise.
  rng::Xoshiro256 gen(3);
  std::vector<double> y;
  std::vector<std::vector<double>> design;
  for (std::size_t i = 0; i < 60; ++i) {
    const double x = static_cast<double>(i % 2);
    y.push_back(1.0 + 2.0 * x + rng::lognormal(gen, 0.0, 0.4));
    design.push_back({x});
  }
  const auto legacy = quantile_regression_bootstrap_ci(y, design, 0.5, 120, 0.95, 77);
  const auto explicit_default =
      quantile_regression_bootstrap_ci(y, design, 0.5, 120, 0.95, 77, ExecPolicy{1, 1});
  EXPECT_EQ(explicit_default.lower, legacy.lower);
  EXPECT_EQ(explicit_default.upper, legacy.upper);

  const auto lanes4 =
      quantile_regression_bootstrap_ci(y, design, 0.5, 120, 0.95, 77, ExecPolicy{1, 4});
  for (const std::size_t threads : {2u, 8u}) {
    const auto got = quantile_regression_bootstrap_ci(y, design, 0.5, 120, 0.95, 77,
                                                      ExecPolicy{threads, 4});
    EXPECT_EQ(got.lower, lanes4.lower) << "threads " << threads;
    EXPECT_EQ(got.upper, lanes4.upper) << "threads " << threads;
  }
}

TEST(GroupedStats, ConcurrentCallersOfOneSizeShareTheTeam) {
  // Both threads fan out at the same thread count, so both get the one
  // pooled team of that size and must take turns on it.
  constexpr std::size_t kCount = 1000;
  std::atomic<int> failures{0};
  const auto caller = [&failures] {
    for (int round = 0; round < 200; ++round) {
      std::vector<int> hits(kCount, 0);
      try {
        policy_partition(ExecPolicy{2, 1}, kCount,
                         [&hits](std::size_t, std::size_t lo, std::size_t hi) {
                           for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                         });
      } catch (const std::exception&) {
        failures.fetch_add(1);
        continue;
      }
      if (std::count(hits.begin(), hits.end(), 1) != static_cast<long>(kCount)) {
        failures.fetch_add(1);
      }
    }
  };
  std::thread a(caller);
  std::thread b(caller);
  a.join();
  b.join();
  EXPECT_EQ(failures.load(), 0);
}

// --------------------------------------------------- alloc audit

TEST(BootstrapEngine, WarmedDistributionIsAllocFree) {
  const auto xs = lognormal_sample(64, 9);
  for (const std::size_t lanes : {1u, 8u}) {
    BootstrapEngine engine(lanes);
    std::vector<double> out;
    const ResampleStat stats[] = {ResampleStat::mean(), ResampleStat::median()};
    for (const ResampleStat& stat : stats) {
      engine.distribution(xs, stat, 500, 3, out);  // warm-up: sizes scratch
      const std::size_t before = sci::testing::allocation_count();
      engine.distribution(xs, stat, 500, 3, out);
      const std::size_t after = sci::testing::allocation_count();
      EXPECT_EQ(after - before, 0u) << "lanes " << lanes;
    }
  }
}

TEST(QuantRegRefits, AllocationsDoNotGrowWithTheRefitCount) {
  // Every refit reuses its worker's scratch and solver, so 400 refits
  // make exactly as many allocator calls as 50: the per-call outputs
  // and scratch, sized once.
  rng::Xoshiro256 gen(0x41);
  std::vector<double> y;
  std::vector<std::vector<double>> design;
  for (std::size_t i = 0; i < 41; ++i) {
    y.push_back(std::round(1000.0 * (1.0 + 0.002 * static_cast<double>(i) +
                                     rng::normal(gen, 0.0, 0.01))) /
                1000.0);
    design.push_back({static_cast<double>(i)});
  }
  const auto allocations = [&](std::size_t refits) {
    const std::size_t before = sci::testing::allocation_count();
    const auto reps = detail::quantile_regression_replicates(y, design, 0.5, refits, 0x5c1b3);
    const std::size_t after = sci::testing::allocation_count();
    EXPECT_EQ(std::count(reps.converged.begin(), reps.converged.end(), 1),
              static_cast<std::ptrdiff_t>(refits));
    return after - before;
  };
  (void)allocations(1);  // one-time setup (lane tables, statics)
  const std::size_t few = allocations(50);
  EXPECT_EQ(allocations(400), few);
}

}  // namespace
}  // namespace sci::stats
