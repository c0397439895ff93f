// Differential and property tests for the vectorized bootstrap stack:
// multi-lane RNG streams, the histogram rank-selection kernels, the
// BootstrapEngine's thread/lane determinism contract, and the grouped
// policy-taking entry points.
//
// The oracle throughout is the deliberately naive scalar reference in
// bootstrap_reference.hpp: lane l draws from Xoshiro256(seed) jumped l
// times and evaluates each replicate on a materialized resample. The
// engine -- waves, rank selection, Kahan rows, thread sharding -- must
// reproduce it bit for bit at every thread count.
//
// Own test binary: links counting_new.cpp, which overrides global
// operator new/delete to count allocator entries, proving the engine's warmed steady state performs
// zero allocations per distribution() call.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "stats/simd_dispatch.hpp"

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

// ------------------------------------- SIMD dispatch + histogram path

/// Restores the dispatch override no matter how a test exits, so ISA
/// state never leaks between tests.
struct KernelStateGuard {
  ~KernelStateGuard() { simd::reset_isa(); }
};

TEST(SimdDispatch, ForceIsaOverridesAndCapsAtHostSupport) {
  KernelStateGuard guard;
  simd::force_isa(simd::Isa::kScalar);
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  EXPECT_EQ(simd::dispatch().isa, simd::Isa::kScalar);
  simd::force_isa(simd::Isa::kAvx2);
  // Requesting AVX2 on a host without it must degrade to scalar, never
  // hand out a table the machine cannot execute.
  EXPECT_EQ(simd::active_isa(), simd::host_isa());
  EXPECT_EQ(simd::dispatch().isa, simd::host_isa());
  simd::reset_isa();
  EXPECT_EQ(simd::scalar_kernels().isa, simd::Isa::kScalar);
}

TEST(SimdDispatch, MeanRows4BitIdenticalAcrossIsaTablesAndToSingleRowKahan) {
  // The determinism contract at kernel granularity: the dispatched
  // 4-row kernel (AVX2 on hosts that have it) must emit bit-identical
  // doubles to the scalar table AND to a plain single-row Kahan chain.
  rng::Xoshiro256 gen(31);
  for (const std::size_t n : {1u, 2u, 3u, 17u, 64u, 257u}) {
    const auto xs = lognormal_sample(n, 700 + n);
    std::vector<std::uint32_t> idx(4 * n);
    for (auto& v : idx) v = static_cast<std::uint32_t>(rng::uniform_below(gen, n));
    double scalar_out[4], dispatched_out[4];
    simd::scalar_kernels().mean_rows4(xs.data(), idx.data(), n, n, scalar_out);
    simd::dispatch().mean_rows4(xs.data(), idx.data(), n, n, dispatched_out);
    for (std::size_t j = 0; j < 4; ++j) {
      double sum = 0.0, comp = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double y = xs[idx[j * n + i]] - comp;
        const double t = sum + y;
        comp = (t - sum) - y;
        sum = t;
      }
      const double want = sum / static_cast<double>(n);
      ASSERT_EQ(scalar_out[j], want) << "row " << j << " n " << n;
      ASSERT_EQ(dispatched_out[j], want)
          << "row " << j << " n " << n << " isa " << to_string(simd::dispatch().isa);
    }
  }
}

TEST(SimdDispatch, RankSelectMatchesExpandedMultisetAcrossIsaTables) {
  // Oracle: expand the histogram into the sorted multiset it encodes and
  // index it directly. Bin counts include zeros and runs of zeros so the
  // pair walk's next-nonzero scan is exercised.
  rng::Xoshiro256 gen(47);
  for (const std::size_t bins : {1u, 2u, 7u, 8u, 9u, 16u, 33u, 257u}) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<std::uint32_t> counts(bins);
      std::vector<std::uint32_t> expanded;
      for (std::uint32_t b = 0; b < bins; ++b) {
        counts[b] = static_cast<std::uint32_t>(rng::uniform_below(gen, 4));
        for (std::uint32_t c = 0; c < counts[b]; ++c) expanded.push_back(b);
      }
      if (expanded.size() < 2) continue;
      const std::size_t total = expanded.size();
      for (const std::size_t k : {std::size_t{0}, total / 2, total - 2}) {
        if (k + 1 >= total) continue;  // pair kernels require k + 1 < total
        for (const simd::Kernels* kt : {&simd::scalar_kernels(), &simd::dispatch()}) {
          ASSERT_EQ(kt->rank_select(counts.data(), bins, k), expanded[k])
              << "bins " << bins << " k " << k << " isa " << to_string(kt->isa);
          const auto pair = kt->rank_select_pair(counts.data(), bins, k);
          ASSERT_EQ(pair.kth, expanded[k]) << "isa " << to_string(kt->isa);
          ASSERT_EQ(pair.next, expanded[k + 1]) << "isa " << to_string(kt->isa);
        }
      }
    }
  }
}

TEST(HistogramSelect, MatchesMaterializedQuantile) {
  // Differential per (n, m, p, method), m != n included: histogram
  // select under both kernel tables == quantile() on the materialized
  // resample. p in {0, 1} covers the kMin/kMax scans.
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
          for (const simd::Kernels* kt : {&simd::scalar_kernels(), &simd::dispatch()}) {
            ASSERT_EQ(histogram_select_quantile(row, sorted, counts, plan, *kt), want)
                << "n " << n << " m " << m << " p " << p
                << " isa " << to_string(kt->isa);
          }
        }
      }
    }
  }
}

TEST(BootstrapEngine, IsaForcedOffIsByteIdenticalAcrossLanesAndReplicates) {
  // Engine-level half of the contract: a full distribution() run with
  // the ISA forced to scalar equals the auto-dispatched run byte for
  // byte, across n x R x lanes, for both SIMD-touched kinds.
  KernelStateGuard guard;
  const ResampleStat stats[] = {ResampleStat::mean(), ResampleStat::median()};
  for (const std::size_t n : {2u, 23u, 100u}) {
    const auto xs = lognormal_sample(n, 900 + n);
    for (const ResampleStat& stat : stats) {
      for (const std::size_t replicates : {7u, 250u}) {
        for (const std::size_t lanes : {1u, 3u, 8u}) {
          simd::reset_isa();
          BootstrapEngine auto_engine(ExecPolicy{1, lanes});
          std::vector<double> auto_out;
          auto_engine.distribution(xs, stat, replicates, 17, auto_out);

          simd::force_isa(simd::Isa::kScalar);
          BootstrapEngine scalar_engine(ExecPolicy{1, lanes});
          std::vector<double> scalar_out;
          scalar_engine.distribution(xs, stat, replicates, 17, scalar_out);
          ASSERT_EQ(scalar_out, auto_out)
              << "n=" << n << " R=" << replicates << " lanes=" << lanes;
        }
      }
    }
  }
}

// ------------------------------------------- engine bit-determinism

TEST(BootstrapEngine, MatchesScalarReferenceAtEveryThreadAndLaneCount) {
  // The tentpole contract: output is a pure function of (data, stat,
  // replicates, seed, lanes). Threads shard lanes and never appear in
  // the answer; waves/selection/Kahan are invisible relative to the
  // naive per-lane oracle.
  const auto cases = stat_cases();
  for (const std::size_t n : {2u, 3u, 23u}) {
    const auto xs = lognormal_sample(n, 41 + n);
    for (const auto& sc : cases) {
      // Replicate counts: R < lanes, odd R, R % lanes != 0.
      for (const std::size_t replicates : {1u, 7u, 33u}) {
        for (const std::size_t lanes : {1u, 2u, 3u, 8u}) {
          const auto want =
              reference_multilane(xs, sc.generic, replicates, 17, lanes);
          for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
            BootstrapEngine engine(ExecPolicy{threads, lanes});
            std::vector<double> got;
            engine.distribution(xs, sc.fast, replicates, 17, got);
            ASSERT_EQ(got, want) << sc.name << " n=" << n << " R=" << replicates
                                 << " lanes=" << lanes << " threads=" << threads;
          }
        }
      }
    }
  }
}

TEST(BootstrapEngine, SingleLaneIsByteIdenticalToLegacyEntryPoints) {
  // lanes = 1 at any thread count == the historical single-stream path,
  // through the free-function conveniences as callers use them.
  const auto xs = lognormal_sample(31, 5);
  for (const auto& sc : stat_cases()) {
    const auto legacy = bootstrap_distribution(xs, sc.fast, 250, 0xb00f);
    const auto legacy_ci = bootstrap_percentile_ci(xs, sc.fast, 250, 0.95, 0xb00f);
    const auto legacy_bca = bootstrap_bca_ci(xs, sc.fast, 250, 0.95, 0xb00f);
    for (const std::size_t threads : {1u, 4u}) {
      const ExecPolicy policy{threads, 1};
      EXPECT_EQ(bootstrap_distribution(xs, sc.fast, 250, 0xb00f, policy), legacy)
          << sc.name;
      const auto ci = bootstrap_percentile_ci(xs, sc.fast, 250, 0.95, 0xb00f, policy);
      EXPECT_EQ(ci.lower, legacy_ci.lower) << sc.name;
      EXPECT_EQ(ci.upper, legacy_ci.upper) << sc.name;
      const auto bca = bootstrap_bca_ci(xs, sc.fast, 250, 0.95, 0xb00f, policy);
      EXPECT_EQ(bca.lower, legacy_bca.lower) << sc.name;
      EXPECT_EQ(bca.upper, legacy_bca.upper) << sc.name;
    }
  }
}

TEST(BootstrapEngine, BcaJackknifeIsThreadInvariant) {
  // The jackknife shards leave-one-out indices across the team; every
  // thread count must produce the single-thread bytes, for the O(n^2)
  // mean kernel, the O(n) quantile kernel, and the materialized kCustom
  // loop (whose callable runs concurrently and must be thread-safe).
  const auto xs = lognormal_sample(47, 13);
  for (const auto& sc : stat_cases()) {
    for (const std::size_t lanes : {1u, 8u}) {
      BootstrapEngine serial(ExecPolicy{1, lanes});
      const Interval want = serial.bca_ci(xs, sc.fast, 251, 0.9, 0xabc);
      for (const std::size_t threads : {2u, 8u}) {
        BootstrapEngine threaded(ExecPolicy{threads, lanes});
        const Interval got = threaded.bca_ci(xs, sc.fast, 251, 0.9, 0xabc);
        EXPECT_EQ(got.lower, want.lower)
            << sc.name << " lanes=" << lanes << " threads=" << threads;
        EXPECT_EQ(got.upper, want.upper)
            << sc.name << " lanes=" << lanes << " threads=" << threads;
      }
    }
  }
}

TEST(BootstrapEngine, ReusedEngineMatchesFreshEngineAcrossShapes) {
  // Scratch reuse across calls of different (n, R, stat) shapes must
  // never leak state between jobs.
  BootstrapEngine engine(ExecPolicy{2, 4});
  std::vector<double> got;
  for (const std::size_t n : {23u, 2u, 57u, 3u}) {
    const auto xs = lognormal_sample(n, 100 + n);
    for (const std::size_t replicates : {33u, 5u}) {
      for (const auto& sc : stat_cases()) {
        BootstrapEngine fresh(ExecPolicy{2, 4});
        std::vector<double> want;
        fresh.distribution(xs, sc.fast, replicates, 7, want);
        engine.distribution(xs, sc.fast, replicates, 7, got);
        ASSERT_EQ(got, want) << sc.name << " n=" << n << " R=" << replicates;
      }
    }
  }
}

TEST(BootstrapEngine, ValidatesInput) {
  BootstrapEngine engine(ExecPolicy{2, 4});
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

TEST(GroupedStats, BootstrapPercentileCiIsThreadInvariant) {
  std::vector<std::vector<double>> storage;
  for (std::size_t g = 0; g < 5; ++g) storage.push_back(lognormal_sample(30 + g, g + 1));
  std::vector<std::span<const double>> groups(storage.begin(), storage.end());

  const auto want = grouped_bootstrap_percentile_ci(groups, ResampleStat::median(), 300,
                                                    0.95, 42, ExecPolicy{1, 4});
  ASSERT_EQ(want.size(), groups.size());
  for (const std::size_t threads : {2u, 8u}) {
    const auto got = grouped_bootstrap_percentile_ci(groups, ResampleStat::median(), 300,
                                                     0.95, 42, ExecPolicy{threads, 4});
    for (std::size_t g = 0; g < want.size(); ++g) {
      EXPECT_EQ(got[g].lower, want[g].lower) << "threads " << threads;
      EXPECT_EQ(got[g].upper, want[g].upper) << "threads " << threads;
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

// --------------------------------------------------- alloc audit

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

TEST(BootstrapEngine, WarmedDistributionIsAllocFree) {
  const auto xs = lognormal_sample(64, 9);
  for (const std::size_t lanes : {1u, 8u}) {
    BootstrapEngine engine(ExecPolicy{1, lanes});
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

TEST(BootstrapEngine, WarmedThreadedDistributionIsAllocFree) {
  // The fan-out path: the preconstructed region closure captures only
  // `this` (fits std::function's SBO) and ThreadTeam::run takes it by
  // reference, so even the threaded steady state stays off the heap.
  const auto xs = lognormal_sample(64, 9);
  BootstrapEngine engine(ExecPolicy{4, 8});
  std::vector<double> out;
  const ResampleStat stat = ResampleStat::median();
  engine.distribution(xs, stat, 500, 3, out);
  const std::size_t before = sci::testing::allocation_count();
  engine.distribution(xs, stat, 500, 3, out);
  const std::size_t after = sci::testing::allocation_count();
  EXPECT_EQ(after - before, 0u);
}

}  // namespace
}  // namespace sci::stats
