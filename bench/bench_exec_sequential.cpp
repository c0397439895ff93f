// Sequential-stopping acceptance benchmark: fixed replication counts
// vs CI-driven sequential stopping at MATCHED target CI width, on a
// ping-pong campaign whose grid mixes quiet interconnects with a
// fault-injected straggler system -- the heterogeneity adaptive
// measurement control exists for (paper Sec. 4.1.2: stop when the CI is
// tight, not after a rep count chosen in advance).
//
// Part 1 runs the sequential campaign once (deterministic: stop
// decisions are pure functions of the sampled values) and derives the
// fixed-design comparator from it: a fixed campaign must provision
// EVERY config with the rep count its noisiest config needed, because
// the experimenter picks one replication number up front without
// knowing which cell is noisy. Both designs are then verified to reach
// the target CI width on every config, and the replication-savings
// ratio (fixed total reps / sequential total reps) is required to be
// >= 2x in the full run.
//
// Part 2 pins the determinism contract: sequential campaign sample CSVs
// are byte-equal across {1,2,4,8} workers.
//
// Part 3 is the wall-clock duel, dogfooding the library's rules (5/7):
// interleaved timed runs of both designs, medians + 95% nonparametric
// CIs, never a bare mean.
//
// `--smoke` trims the duel's timed runs for CI (invariants still
// asserted; the >= 2x savings target is evaluated in both modes since
// parts 1 and 2 are deterministic and identical across modes).
// `--json DIR` writes BENCH_exec_sequential.json via obs::BenchReporter
// for the performance-history pipeline.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/runner.hpp"
#include "exec/sim_backend.hpp"
#include "harness.hpp"
#include "stats/confidence.hpp"
#include "stats/descriptive.hpp"

using namespace sci;

namespace {

// ------------------------------------------------------- the campaign

constexpr double kTarget = 0.02;  ///< relative CI half-width target

// Same in both modes: parts [1] and [2] are deterministic (identical
// stop decisions either way), so smoke only trims the timed duel reps.
std::size_t samples_per_rep() { return 60; }

exec::SimBackend make_backend() {
  return exec::SimBackend(exec::SimBackendOptions{.kernel = exec::SimKernel::kPingPong,
                                                  .samples = samples_per_rep(),
                                                  .warmup = 4,
                                                  .message_bytes = 64,
                                                  .scale = 1e6,
                                                  .unit = "us"});
}

/// Grid: two quiet interconnects plus the fault-injected straggler
/// variant. The chaos config needs many replications to pin its median;
/// the quiet ones converge almost immediately -- exactly the imbalance
/// a fixed design cannot exploit.
exec::Campaign make_campaign(exec::StoppingPolicy stopping) {
  exec::CampaignSpec spec;
  spec.name = "seq_duel";
  spec.factors.push_back({"system", {"daint", "dora", "dora+chaos"}});
  spec.factors.push_back({"message_bytes", {"64", "4096"}});
  spec.seed = 0x5e9;
  spec.stopping = stopping;
  return exec::Campaign(spec);
}

exec::StoppingPolicy sequential_policy() {
  return exec::StoppingPolicy::sequential_ci(kTarget, /*min_reps=*/2,
                                             /*max_reps=*/96);
}

exec::CampaignResult run_campaign(exec::Backend& backend,
                                  const exec::Campaign& campaign,
                                  std::size_t workers) {
  exec::CampaignRunnerOptions options;
  options.workers = workers;
  exec::CampaignRunner runner(backend, campaign, options);  // fresh cache: every cell runs
  return runner.run();
}

/// Pooled relative CI half-width of the median for one config.
double achieved_width(const exec::CampaignResult& result, std::size_t config) {
  const std::vector<double> pooled = result.merged_series(config);
  const auto ci = stats::quantile_confidence_interval(pooled, 0.5, 0.95);
  const double center = stats::quantile(pooled, 0.5);
  return std::max(ci.upper - center, center - ci.lower) / center;
}

std::string samples_csv(const exec::CampaignResult& result) {
  std::ostringstream os;
  result.samples_dataset().write_csv(os);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("exec_sequential", argc, argv);
  bench::reporter().set_context("mode", bench::mode());
  const bool smoke = bench::smoke();
  std::printf("bench_exec_sequential (%s, %u hardware thread(s))\n", bench::mode(),
              std::thread::hardware_concurrency());

  exec::SimBackend backend = make_backend();

  // ---- [1] replication budgets at matched CI width -------------------
  std::printf("\n[1] replication budgets at matched target (CI half-width <= %.0f%%)\n",
              kTarget * 100.0);
  const exec::Campaign seq_campaign = make_campaign(sequential_policy());
  const exec::CampaignResult seq = run_campaign(backend, seq_campaign, 2);
  bench::check(seq.failed == 0, "sequential: no cell failed");

  std::size_t seq_total = 0;
  std::size_t worst_reps = 0;
  for (std::size_t c = 0; c < seq.config_count(); ++c) {
    const auto& info = seq.stopping[c];
    bench::check(info.converged, "sequential: every config converged below the rep cap");
    seq_total += info.reps;
    worst_reps = std::max(worst_reps, info.reps);
    const std::string label = seq_campaign.config(c).level("system") + "/" +
                              seq_campaign.config(c).level("message_bytes") + "B";
    std::printf("  %-18s sequential stopped at %3zu reps (round %zu, CI +-%.2f%%)\n",
                label.c_str(), info.reps, info.stop_round,
                info.rel_ci_half_width * 100.0);
  }

  // The fixed design's honest comparator: one rep count chosen up
  // front must cover the noisiest cell, so every cell pays it.
  const exec::Campaign fixed_campaign =
      make_campaign(exec::StoppingPolicy::fixed(worst_reps));
  const exec::CampaignResult fixed = run_campaign(backend, fixed_campaign, 2);
  bench::check(fixed.failed == 0, "fixed: no cell failed");
  const std::size_t fixed_total = fixed.cells.size();
  for (std::size_t c = 0; c < fixed.config_count(); ++c) {
    bench::check(achieved_width(fixed, c) <= kTarget,
                 "fixed comparator reaches the target width on every config");
    bench::check(achieved_width(seq, c) <= kTarget,
                 "sequential reaches the target width on every config");
  }

  const double savings =
      static_cast<double>(fixed_total) / static_cast<double>(seq_total);
  std::printf("  fixed-at-%zu total %zu reps vs sequential total %zu reps: "
              "%.2fx fewer replications\n",
              worst_reps, fixed_total, seq_total, savings);
  bench::check(savings >= 2.0, ">= 2x fewer total replications at matched CI width");
  bench::reporter().add_counter("sequential_total_reps", seq_total);
  bench::reporter().add_counter("fixed_total_reps", fixed_total);
  bench::reporter().add_counter("rounds", seq.rounds);

  // ---- [2] determinism ----------------------------------------------
  std::printf("\n[2] determinism\n");
  const std::string reference = samples_csv(seq);
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    exec::SimBackend fresh = make_backend();
    const exec::CampaignResult again =
        run_campaign(fresh, make_campaign(sequential_policy()), workers);
    char what[96];
    std::snprintf(what, sizeof what,
                  "sequential CSV bytes equal @%zu workers", workers);
    bench::check(samples_csv(again) == reference, what);
  }
  std::printf("  sequential CSVs byte-equal across {1,2,4,8} workers\n");

  // ---- [3] wall-clock duel ------------------------------------------
  std::printf("\n[3] wall-clock duel (interleaved, %s)\n",
              smoke ? "3 timed runs" : "15 timed runs");
  const std::size_t reps = smoke ? 3 : 15;
  std::vector<double> fixed_s, seq_s;
  fixed_s.reserve(reps);
  seq_s.reserve(reps);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    {
      exec::SimBackend b = make_backend();
      const double t0 = bench::now_s();
      (void)run_campaign(b, fixed_campaign, 2);
      fixed_s.push_back(bench::now_s() - t0);
    }
    {
      exec::SimBackend b = make_backend();
      const double t0 = bench::now_s();
      (void)run_campaign(b, make_campaign(sequential_policy()), 2);
      seq_s.push_back(bench::now_s() - t0);
    }
  }
  const auto fs = bench::summarize("fixed.wall", "s", fixed_s);
  const auto ss = bench::summarize("sequential.wall", "s", seq_s);
  std::printf("  fixed      %7.3f s [%7.3f, %7.3f]\n", fs.median, fs.ci_lo, fs.ci_hi);
  std::printf("  sequential %7.3f s [%7.3f, %7.3f]   speedup %.2fx\n", ss.median,
              ss.ci_lo, ss.ci_hi, fs.median / ss.median);
  if (!smoke) {
    // The duel's floor is deliberately below the replication savings:
    // sequential pays round barriers and per-round thread spawns.
    bench::check(ss.median < fs.median, "sequential campaign is faster wall-clock");
  }
  return bench::finish();
}
