// Acceptance benchmark for the multi-lane bootstrap engine (multi-lane
// xoshiro streams, interleaved Kahan tiles for the mean, histogram rank
// selection for quantiles, all on the calling thread), dogfooding the
// library's methodology: medians with 95% nonparametric CIs,
// interleaved duels so drift hits every configuration equally.
//
// Part 1 times a fig7ab-style CI computation -- a batch of latency
// series, each needing a 1000-replicate bootstrap percentile CI -- at
// two lane counts:
//   {1 lane}   the legacy single-stream path, draw-for-draw identical
//              to the pre-engine code;
//   {8 lanes}  eight independent RNG streams, the lane count the
//              fig7ab studies publish.
// The metric is bootstrap CIs per second. Lanes are part of a result's
// identity, not a speed knob, so the gate is "no slower than one lane".
// Two statistics are duelled because they stress different kernels:
// the mean (generation- and accumulation-bound) and the median
// (selection-bound).
//
// Part 2 times median CIs on small samples (n = 64), where the
// histogram walk is shortest; part 3 times BCa mean CIs, whose O(n^2)
// jackknife dominates.
//
// Part 4 pins lanes=1 byte-equal to the legacy path.
//
// Part 5 audits the alloc-free steady state: a warmed engine's
// distribution() makes exactly zero calls into the global allocator.
//
// `--smoke` shrinks sizes for CI; determinism and allocation invariants
// are still asserted, timing gates only run in full mode.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "counting_new.hpp"
#include "harness.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/bootstrap.hpp"
#include "stats/bootstrap_engine.hpp"

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
/// engine; returns CIs per second. `bca` picks the BCa interval over
/// the percentile one.
double time_pass(stats::BootstrapEngine& engine, const Workload& w,
                 const stats::ResampleStat& stat, bool bca) {
  const double t0 = bench::now_s();
  double sink = 0.0;
  for (std::size_t i = 0; i < w.series.size(); ++i) {
    const auto ci =
        bca ? engine.bca_ci(w.series[i], stat, w.replicates, 0.95, 0xb00f + i)
            : engine.percentile_ci(w.series[i], stat, w.replicates, 0.95, 0xb00f + i);
    sink += ci.lower + ci.upper;
  }
  const double dt = bench::now_s() - t0;
  bench::check(sink != 0.0, "CI pass produced nonzero bounds");
  return static_cast<double>(w.series.size()) / dt;
}

struct DuelOutcome {
  obs::BenchMetric lanes1;
  obs::BenchMetric lanes8;
};

/// {1 lane} vs {8 lanes}, interleaved rep by rep.
DuelOutcome duel(const char* name, const char* slug, const stats::ResampleStat& stat,
                 const Workload& w, std::size_t reps, bool bca = false) {
  stats::BootstrapEngine one(1);
  stats::BootstrapEngine eight(8);
  // Warm-up pass per engine: size the scratch, fault the code.
  (void)time_pass(one, w, stat, bca);
  (void)time_pass(eight, w, stat, bca);
  std::vector<double> one_s, eight_s;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    one_s.push_back(time_pass(one, w, stat, bca));
    eight_s.push_back(time_pass(eight, w, stat, bca));
  }
  const std::string base = slug;
  DuelOutcome outcome;
  outcome.lanes1 = bench::summarize(base + ".lanes1", "ci/s", one_s, obs::Improve::kHigher);
  outcome.lanes8 = bench::summarize(base + ".lanes8", "ci/s", eight_s, obs::Improve::kHigher);
  std::printf("  %s\n", name);
  std::printf("    %-10s %8.1f [%8.1f, %8.1f] ci/s\n", "{1 lane}", outcome.lanes1.median,
              outcome.lanes1.ci_lo, outcome.lanes1.ci_hi);
  std::printf("    %-10s %8.1f [%8.1f, %8.1f] ci/s   %.2fx\n", "{8 lanes}",
              outcome.lanes8.median, outcome.lanes8.ci_lo, outcome.lanes8.ci_hi,
              outcome.lanes8.median / outcome.lanes1.median);
  return outcome;
}

// ------------------------------------------------- small-n median

/// Absolute small-n median-CI throughput at {8 lanes}. Timing only; no
/// gate.
void smalln_median(const Workload& w, std::size_t reps) {
  const stats::ResampleStat stat = stats::ResampleStat::median();
  stats::BootstrapEngine engine(8);
  (void)time_pass(engine, w, stat, false);
  std::vector<double> histogram_s;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    histogram_s.push_back(time_pass(engine, w, stat, false));
  }
  const auto histogram = bench::summarize("median_ci_smalln.histogram", "ci/s", histogram_s,
                                          obs::Improve::kHigher);
  std::printf("  median CI, n=%zu, {8 lanes}\n", w.series.front().size());
  std::printf("    %-24s %8.1f [%8.1f, %8.1f] ci/s\n", "histogram select",
              histogram.median, histogram.ci_lo, histogram.ci_hi);
}

// -------------------------------------------------- determinism checks

void determinism_checks(const Workload& w) {
  // lanes = 1 reproduces the legacy single-stream path exactly.
  const stats::ResampleStat stat = stats::ResampleStat::median();
  const auto& xs = w.series.front();
  const auto legacy = stats::bootstrap_distribution(xs, stat, w.replicates, 0xb00f);
  stats::BootstrapEngine single(1);
  std::vector<double> got;
  single.distribution(xs, stat, w.replicates, 0xb00f, got);
  bench::check(got == legacy, "distribution byte-equal: engine {1 lane} vs legacy path");
  std::printf("  lanes=1 == legacy path\n");
}

// --------------------------------------------------- allocation audit

void audit_global_allocator(const Workload& w) {
  const stats::ResampleStat stat = stats::ResampleStat::median();
  const auto& xs = w.series.front();
  stats::BootstrapEngine engine(8);
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
  std::printf("bench_stats_parallel (%s, one thread)\n", bench::mode());

  Workload w;
  w.series = make_series(smoke ? 4 : 16, smoke ? 80 : 1000);
  w.replicates = smoke ? 200 : 1000;
  const std::size_t reps = smoke ? 3 : 25;
  std::printf("  workload: %zu series x n=%zu, %zu bootstrap replicates each\n",
              w.series.size(), w.series.front().size(), w.replicates);

  std::printf("\n[1] bootstrap CI throughput\n");
  const DuelOutcome mean_ci = duel("mean CI (generation/accumulation-bound)", "mean_ci",
                                   stats::ResampleStat::mean(), w, reps);
  const DuelOutcome median_ci = duel("median CI (selection-bound)", "median_ci",
                                     stats::ResampleStat::median(), w, reps);

  std::printf("\n[2] small-n median CI\n");
  Workload smalln;
  smalln.series = make_series(smoke ? 8 : 32, 64);
  smalln.replicates = w.replicates;
  std::printf("  workload: %zu series x n=%zu, %zu bootstrap replicates each\n",
              smalln.series.size(), smalln.series.front().size(), smalln.replicates);
  smalln_median(smalln, reps);

  std::printf("\n[3] BCa CI\n");
  (void)duel("BCa mean CI (jackknife-bound)", "bca_mean_ci", stats::ResampleStat::mean(), w,
             reps, true);

  std::printf("\n[4] determinism\n");
  determinism_checks(w);

  std::printf("\n[5] allocation audit\n");
  audit_global_allocator(w);

  if (!smoke) {
    // Lanes change which draws feed which replicate, not the work per
    // replicate: eight lanes must cost no more than one. The mean sits a
    // few percent under one lane by construction (each lane's last < 8
    // replicates take the single-row Kahan chain), so it is gated the
    // house way, on disjoint CIs; the median keeps its 0.9x floor.
    bench::check(mean_ci.lanes8.ci_hi >= mean_ci.lanes1.ci_lo,
                 "mean CI, {8 lanes}: not slower than {1 lane} with disjoint 95% CIs");
    bench::check(median_ci.lanes8.median >= 0.9 * median_ci.lanes1.median,
                 "median CI, {8 lanes}: no regression against {1 lane}");
  }

  return bench::finish();
}
