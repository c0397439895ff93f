// Acceptance benchmark for the vectorized bootstrap stack (multi-lane
// xoshiro streams + histogram rank selection + thread-sharded lanes),
// dogfooding the library's methodology: medians with 95% nonparametric
// CIs, interleaved duels so drift hits every configuration equally.
//
// Part 1 times a fig7ab-style CI computation -- a batch of latency
// series, each needing a 1000-replicate bootstrap percentile CI -- in
// three configurations:
//   baseline     the legacy single-stream path (ExecPolicy{1,1},
//                draw-for-draw identical to the pre-engine code);
//   vectorized   one thread, 8 RNG lanes: batch index fills and 4-wide
//                accumulation waves, no parallelism;
//   parallel     hardware_concurrency threads x 8 lanes.
// The metric is bootstrap CIs per second. Two statistics are duelled
// because they stress different kernels: the mean (generation- and
// accumulation-bound -- where the in-core waves win single-threaded)
// and the median (selection-bound -- where lanes exist to be sharded
// across threads, and the single-thread delta is honestly ~1x).
//
// Part 2 times median CIs on small samples (n = 64), where the
// histogram walk is shortest; part 3 times BCa thread scaling.
//
// Part 4 pins what the speedup must not buy: distributions byte-equal
// across {1,2,4,8} threads at fixed lanes, and lanes=1 byte-equal to
// the legacy path.
//
// Part 5 audits the alloc-free steady state: a warmed engine's
// distribution() makes exactly zero calls into the global allocator.
//
// `--smoke` shrinks sizes for CI; determinism and allocation invariants
// are still asserted, timing gates only run in full mode (and the >=4x
// multi-core gate only arms when the host actually has >= 4 hardware
// threads -- Rule 4: report the environment, don't gate on what it
// cannot show).
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "counting_new.hpp"
#include "harness.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/bootstrap.hpp"
#include "stats/bootstrap_engine.hpp"
#include "stats/simd_dispatch.hpp"

// Every allocator call in the process is counted (counting_new.hpp),
// so "zero allocations" is an observed fact, not a claim.

using namespace sci;

namespace {

/// The workload: right-skewed latency-like series, as in the fig7ab
/// bound studies.
std::vector<std::vector<double>> make_series(std::size_t count, std::size_t n) {
  std::vector<std::vector<double>> series(count);
  rng::Xoshiro256 gen(0xf16ab);
  for (auto& s : series) {
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i) s.push_back(rng::lognormal(gen, 3.0, 0.5));
  }
  return series;
}

// ------------------------------------------------------------ the duel

struct Workload {
  std::vector<std::vector<double>> series;
  std::size_t replicates = 0;
};

/// Times one pass of "bootstrap-CI every series" through a warm
/// engine; returns CIs per second.
double time_pass(stats::BootstrapEngine& engine, const Workload& w,
                 const stats::ResampleStat& stat) {
  const double t0 = bench::now_s();
  double sink = 0.0;
  for (std::size_t i = 0; i < w.series.size(); ++i) {
    const auto ci =
        engine.percentile_ci(w.series[i], stat, w.replicates, 0.95, 0xb00f + i);
    sink += ci.lower + ci.upper;
  }
  const double dt = bench::now_s() - t0;
  bench::check(sink != 0.0, "CI pass produced nonzero bounds");
  return static_cast<double>(w.series.size()) / dt;
}

struct DuelOutcome {
  obs::BenchMetric baseline;
  obs::BenchMetric vectorized;
  obs::BenchMetric parallel;
  std::size_t parallel_threads = 1;
};

DuelOutcome duel(const char* name, const char* slug, const stats::ResampleStat& stat,
                 const Workload& w, std::size_t reps) {
  const std::size_t hc = std::thread::hardware_concurrency();
  DuelOutcome outcome;
  outcome.parallel_threads = hc > 1 ? hc : 1;

  stats::BootstrapEngine baseline(stats::ExecPolicy{1, 1});
  stats::BootstrapEngine vectorized(stats::ExecPolicy{1, 8});
  stats::BootstrapEngine parallel(stats::ExecPolicy{outcome.parallel_threads, 8});

  std::vector<double> baseline_s, vectorized_s, parallel_s;
  // Warm-up pass per engine: size the scratch, fault the code.
  (void)time_pass(baseline, w, stat);
  (void)time_pass(vectorized, w, stat);
  (void)time_pass(parallel, w, stat);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    baseline_s.push_back(time_pass(baseline, w, stat));
    vectorized_s.push_back(time_pass(vectorized, w, stat));
    parallel_s.push_back(time_pass(parallel, w, stat));
  }
  const std::string base = slug;
  outcome.baseline =
      bench::summarize(base + ".baseline", "ci/s", baseline_s, obs::Improve::kHigher);
  outcome.vectorized =
      bench::summarize(base + ".vectorized", "ci/s", vectorized_s, obs::Improve::kHigher);
  outcome.parallel =
      bench::summarize(base + ".parallel", "ci/s", parallel_s, obs::Improve::kHigher);
  std::printf("  %s\n", name);
  std::printf("    %-24s %8.1f [%8.1f, %8.1f] ci/s\n", "baseline {1t, 1 lane}",
              outcome.baseline.median, outcome.baseline.ci_lo, outcome.baseline.ci_hi);
  std::printf("    %-24s %8.1f [%8.1f, %8.1f] ci/s   %.2fx\n", "vectorized {1t, 8 lanes}",
              outcome.vectorized.median, outcome.vectorized.ci_lo, outcome.vectorized.ci_hi,
              outcome.vectorized.median / outcome.baseline.median);
  std::printf("    %-18s %2zut  %8.1f [%8.1f, %8.1f] ci/s   %.2fx\n",
              "parallel {8 lanes}", outcome.parallel_threads, outcome.parallel.median,
              outcome.parallel.ci_lo, outcome.parallel.ci_hi,
              outcome.parallel.median / outcome.baseline.median);
  return outcome;
}

// ------------------------------------------------- small-n median

/// Absolute small-n median-CI throughput of the vectorized engine
/// configuration {1t, 8 lanes}. Timing only; no gate.
void smalln_median(const Workload& w, std::size_t reps) {
  const stats::ResampleStat stat = stats::ResampleStat::median();
  stats::BootstrapEngine engine(stats::ExecPolicy{1, 8});
  (void)time_pass(engine, w, stat);
  std::vector<double> histogram_s;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    histogram_s.push_back(time_pass(engine, w, stat));
  }
  const auto histogram = bench::summarize("median_ci_smalln.histogram", "ci/s", histogram_s,
                                          obs::Improve::kHigher);
  std::printf("  median CI, n=%zu, {1t, 8 lanes}, isa=%s\n", w.series.front().size(),
              to_string(stats::simd::active_isa()));
  std::printf("    %-24s %8.1f [%8.1f, %8.1f] ci/s\n", "histogram select",
              histogram.median, histogram.ci_lo, histogram.ci_hi);
}

// --------------------------------------------- BCa jackknife scaling

double time_bca_pass(stats::BootstrapEngine& engine, const Workload& w,
                     const stats::ResampleStat& stat) {
  const double t0 = bench::now_s();
  double sink = 0.0;
  for (std::size_t i = 0; i < w.series.size(); ++i) {
    const auto ci = engine.bca_ci(w.series[i], stat, w.replicates, 0.95, 0xb00f + i);
    sink += ci.lower + ci.upper;
  }
  const double dt = bench::now_s() - t0;
  bench::check(sink != 0.0, "BCa pass produced nonzero bounds");
  return static_cast<double>(w.series.size()) / dt;
}

struct BcaOutcome {
  obs::BenchMetric serial;
  obs::BenchMetric parallel;
  std::size_t parallel_threads = 1;
};

/// BCa CI wall-clock: serial {1t} vs {hc t}. The mean's O(n^2)
/// jackknife is the dominant serial term this PR sharded across the
/// team, so the thread column is the one to watch.
BcaOutcome bca_duel(const Workload& w, std::size_t reps) {
  const std::size_t hc = std::thread::hardware_concurrency();
  BcaOutcome outcome;
  outcome.parallel_threads = hc > 1 ? hc : 1;
  const stats::ResampleStat stat = stats::ResampleStat::mean();

  stats::BootstrapEngine serial(stats::ExecPolicy{1, 8});
  stats::BootstrapEngine parallel(stats::ExecPolicy{outcome.parallel_threads, 8});
  (void)time_bca_pass(serial, w, stat);
  (void)time_bca_pass(parallel, w, stat);
  std::vector<double> serial_s, parallel_s;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    serial_s.push_back(time_bca_pass(serial, w, stat));
    parallel_s.push_back(time_bca_pass(parallel, w, stat));
  }
  outcome.serial =
      bench::summarize("bca_mean_ci.serial", "ci/s", serial_s, obs::Improve::kHigher);
  outcome.parallel =
      bench::summarize("bca_mean_ci.parallel", "ci/s", parallel_s, obs::Improve::kHigher);
  std::printf("  BCa mean CI (jackknife n=%zu per series)\n", w.series.front().size());
  std::printf("    %-24s %8.1f [%8.1f, %8.1f] ci/s\n", "serial {1t, 8 lanes}",
              outcome.serial.median, outcome.serial.ci_lo, outcome.serial.ci_hi);
  std::printf("    %-18s %2zut  %8.1f [%8.1f, %8.1f] ci/s   %.2fx\n",
              "parallel {8 lanes}", outcome.parallel_threads, outcome.parallel.median,
              outcome.parallel.ci_lo, outcome.parallel.ci_hi,
              outcome.parallel.median / outcome.serial.median);
  return outcome;
}

// -------------------------------------------------- determinism checks

void determinism_checks(const Workload& w) {
  const stats::ResampleStat stat = stats::ResampleStat::median();
  const auto& xs = w.series.front();

  // Thread count never changes the answer at fixed lanes.
  std::vector<double> want;
  stats::BootstrapEngine reference(stats::ExecPolicy{1, 8});
  reference.distribution(xs, stat, w.replicates, 0xb00f, want);
  for (std::size_t threads : {2u, 4u, 8u}) {
    stats::BootstrapEngine engine(stats::ExecPolicy{threads, 8});
    std::vector<double> got;
    engine.distribution(xs, stat, w.replicates, 0xb00f, got);
    char what[96];
    std::snprintf(what, sizeof what,
                  "distribution byte-equal: %zu threads vs 1 thread (8 lanes)", threads);
    bench::check(got == want, what);
  }

  // lanes = 1 reproduces the legacy single-stream path exactly.
  const auto legacy = stats::bootstrap_distribution(xs, stat, w.replicates, 0xb00f);
  stats::BootstrapEngine single(stats::ExecPolicy{4, 1});
  std::vector<double> got;
  single.distribution(xs, stat, w.replicates, 0xb00f, got);
  bench::check(got == legacy, "distribution byte-equal: engine {4t, 1 lane} vs legacy path");

  // ISA never changes bytes: {scalar, SIMD} x {1,4,8} threads must all
  // produce one distribution and one BCa interval. On hosts without
  // AVX2 both tables are scalar and the check is trivially green --
  // which is itself the fallback contract.
  std::vector<double> isa_want;
  stats::Interval bca_want{0.0, 0.0, 0.0};
  bool first = true;
  const char* auto_label = "scalar";
  for (const bool force_scalar : {true, false}) {
    if (force_scalar) {
      stats::simd::force_isa(stats::simd::Isa::kScalar);
    } else {
      stats::simd::reset_isa();
      auto_label = to_string(stats::simd::active_isa());
    }
    for (const std::size_t threads : {1u, 4u, 8u}) {
      stats::BootstrapEngine engine(stats::ExecPolicy{threads, 8});
      std::vector<double> dist;
      engine.distribution(xs, stat, w.replicates, 0xb00f, dist);
      const auto bca = engine.bca_ci(xs, stat, w.replicates, 0.95, 0xb00f);
      if (first) {
        isa_want = std::move(dist);
        bca_want = bca;
        first = false;
        continue;
      }
      char what[96];
      std::snprintf(what, sizeof what, "distribution byte-equal: isa=%s, %zu threads",
                    to_string(stats::simd::active_isa()), threads);
      bench::check(dist == isa_want, what);
      std::snprintf(what, sizeof what, "BCa interval byte-equal: isa=%s, %zu threads",
                    to_string(stats::simd::active_isa()), threads);
      bench::check(bca.lower == bca_want.lower && bca.upper == bca_want.upper, what);
    }
  }
  stats::simd::reset_isa();
  std::printf(
      "  distributions byte-equal across {1,2,4,8} threads; lanes=1 == legacy path\n");
  std::printf(
      "  distribution + BCa byte-equal across {scalar, %s} x {1,4,8} threads\n",
      auto_label);
}

// --------------------------------------------------- allocation audit

void audit_global_allocator(const Workload& w) {
  const stats::ResampleStat stat = stats::ResampleStat::median();
  const auto& xs = w.series.front();
  stats::BootstrapEngine engine(stats::ExecPolicy{1, 8});
  std::vector<double> out;
  engine.distribution(xs, stat, w.replicates, 1, out);  // warm: size the scratch

  std::uint64_t allocs = 0;
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    const std::uint64_t before = testing::allocation_count();
    engine.distribution(xs, stat, w.replicates, 1 + rep, out);
    allocs += testing::allocation_count() - before;
  }
  bench::check(allocs == 0, "zero allocator calls across 5 warmed distribution() invocations");
  std::printf("  global allocator calls across 5 warmed invocations: %llu\n",
              static_cast<unsigned long long>(allocs));
  bench::reporter().add_counter("global_alloc_calls_warmed_distribution", allocs);
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("stats_parallel", argc, argv);
  bench::reporter().set_context("mode", bench::mode());
  const bool smoke = bench::smoke();
  const unsigned hc = std::thread::hardware_concurrency();
  std::printf("bench_stats_parallel (%s, %u hardware thread(s))\n", bench::mode(), hc);

  Workload w;
  w.series = make_series(smoke ? 4 : 16, smoke ? 80 : 1000);
  w.replicates = smoke ? 200 : 1000;
  const std::size_t reps = smoke ? 3 : 25;
  std::printf("  workload: %zu series x n=%zu, %zu bootstrap replicates each\n",
              w.series.size(), w.series.front().size(), w.replicates);

  std::printf("\n[1] bootstrap CI throughput\n");
  const DuelOutcome mean_ci =
      duel("mean CI (generation/accumulation-bound)", "mean_ci",
           stats::ResampleStat::mean(), w, reps);
  const DuelOutcome median_ci =
      duel("median CI (selection-bound)", "median_ci", stats::ResampleStat::median(), w,
           reps);

  std::printf("\n[2] small-n median CI\n");
  Workload smalln;
  smalln.series = make_series(smoke ? 8 : 32, 64);
  smalln.replicates = w.replicates;
  std::printf("  workload: %zu series x n=%zu, %zu bootstrap replicates each\n",
              smalln.series.size(), smalln.series.front().size(), smalln.replicates);
  smalln_median(smalln, reps);

  std::printf("\n[3] BCa CI thread scaling\n");
  const BcaOutcome bca = bca_duel(w, reps);

  std::printf("\n[4] determinism\n");
  determinism_checks(w);

  std::printf("\n[5] allocation audit\n");
  audit_global_allocator(w);

  if (!smoke) {
    // Single-thread acceptance, on the statistic whose kernels the
    // in-core waves actually accelerate: the mean path's 4-wide fills
    // and Kahan rows must pay for themselves with disjoint CIs. (The
    // median path is selection-bound; its single-thread delta is
    // reported above but only gated as "no regression".)
    bench::check(mean_ci.vectorized.ci_lo > mean_ci.baseline.ci_hi,
                 "mean CI, vectorized {1t, 8 lanes}: faster than baseline, 95% CIs disjoint");
    bench::check(median_ci.vectorized.median >= 0.9 * median_ci.baseline.median,
                 "median CI, vectorized {1t, 8 lanes}: no single-thread regression");
    // Multi-core acceptance: the end-to-end >= 4x target needs enough
    // cores to show it (threads shard 8 lanes, so >= 8 hardware threads
    // leaves headroom; at 4-7 the honest bar is hc/2). A 1-CPU runner
    // records the single-thread account instead -- see
    // bench/RESULTS_stats_parallel.md.
    if (hc >= 4) {
      const double required = hc >= 8 ? 4.0 : static_cast<double>(hc) / 2.0;
      char what[96];
      std::snprintf(what, sizeof what,
                    "median CI, parallel {%ut, 8 lanes}: >= %.1fx baseline median", hc,
                    required);
      bench::check(median_ci.parallel.median >= required * median_ci.baseline.median, what);
      bench::check(median_ci.parallel.ci_lo > median_ci.baseline.ci_hi,
                   "median CI, parallel: 95% CIs disjoint from baseline");
    } else {
      std::printf("  (multi-core gates skipped: %u hardware thread(s))\n", hc);
    }
    // BCa scaling is a thread story; arm it only where threads exist.
    // (Serial-vs-serial there is a wash by construction: the jackknife
    // kernels are byte-for-byte the PR 8 loops, just range-sharded.)
    if (hc >= 4) {
      bench::check(bca.parallel.median >= 2.0 * bca.serial.median,
                   "BCa mean CI, parallel: >= 2x serial median");
      bench::check(bca.parallel.ci_lo > bca.serial.ci_hi,
                   "BCa mean CI, parallel: 95% CIs disjoint from serial");
    } else {
      std::printf("  (BCa multi-core gates skipped: %u hardware thread(s))\n", hc);
    }
  }

  return bench::finish();
}
