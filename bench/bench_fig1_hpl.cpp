// Reproduces Figure 1: distribution of completion times for 50 HPL runs
// on 64 nodes (N = 314k) of the simulated Piz Daint, with the exact
// annotation set the paper shows: min, max, median, arithmetic mean,
// 95% quantile, and the 99% CI of the median -- each also expressed as
// the Tflop/s rate the paper prints on the labels.
#include <cstdio>
#include <string>

#include "core/plots.hpp"
#include "harness.hpp"
#include "hpl/sim_hpl.hpp"
#include "sim/machine.hpp"
#include "stats/confidence.hpp"
#include "stats/descriptive.hpp"

using namespace sci;

int main(int argc, char** argv) {
  bench::init("fig1_hpl", argc, argv);
  const auto machine = sim::make_daint();
  hpl::SimHplConfig config;  // N = 314k, 64 nodes, fresh allocation per run
  const auto runs = hpl::simulate_hpl_series(machine, config, 50, 2015);

  std::vector<double> t;
  t.reserve(runs.size());
  for (const auto& r : runs) t.push_back(r.completion_s);
  const double flops = hpl::hpl_flops(config.n);
  const auto rate_tflops = [&](double seconds) { return flops / seconds / 1e12; };

  std::printf("=== Figure 1: 50 HPL runs, 64 nodes of daint-sim, N=314k ===\n");
  std::printf("theoretical peak: 94.50 Tflop/s\n\n");
  std::printf("%-22s %12s %14s   paper\n", "statistic", "time [s]", "rate [Tflop/s]");

  const double min_t = stats::min_value(t);
  const double max_t = stats::max_value(t);
  const double med = stats::median(t);
  const double mean = stats::arithmetic_mean(t);
  const double q95 = stats::quantile(t, 0.95);
  std::printf("%-22s %12.1f %14.2f   77.38 (Max rate)\n", "min time", min_t,
              rate_tflops(min_t));
  std::printf("%-22s %12.1f %14.2f   72.79 (95%% quantile)\n",
              "5% quantile time", stats::quantile(t, 0.05),
              rate_tflops(stats::quantile(t, 0.05)));
  std::printf("%-22s %12.1f %14.2f   69.92 (arith. mean)\n", "mean time", mean,
              rate_tflops(mean));
  std::printf("%-22s %12.1f %14.2f   65.23 (median)\n", "median time", med,
              rate_tflops(med));
  std::printf("%-22s %12.1f %14.2f   61.23 (Min rate)\n", "max time", max_t,
              rate_tflops(max_t));
  std::printf("%-22s %12.1f %14.2f\n", "95% quantile time", q95, rate_tflops(q95));

  const auto ci = stats::median_confidence_interval(t, 0.99);
  std::printf("\n99%% CI (median): [%.1f, %.1f] s  = [%.2f, %.2f] Tflop/s\n", ci.lower,
              ci.upper, rate_tflops(ci.upper), rate_tflops(ci.lower));
  std::printf("spread: slowest run is %.1f%% slower than the fastest "
              "(paper: \"variation is up to 20%%\")\n\n",
              100.0 * (max_t - min_t) / min_t);

  core::PlotOptions opts;
  opts.title = "completion-time density, 50 HPL runs";
  opts.x_label = "completion time (s)";
  std::fputs(core::render_density(t, opts).c_str(), stdout);

  std::printf("\nper-run detail (first 10): time[s] Tflop/s comm[s] energy[MJ] Gflop/W\n");
  for (std::size_t i = 0; i < 10; ++i) {
    std::printf("  run %2zu: %7.1f  %6.2f  %5.1f  %6.2f  %5.2f\n", i,
                runs[i].completion_s, runs[i].gflops / 1000.0, runs[i].comm_s,
                runs[i].energy_j / 1e6, runs[i].gflops_per_watt());
  }
  // Rule 3 in the energy dimension: summarize Joules (a cost) with the
  // arithmetic mean, and flop/W via totals, never by averaging rates.
  double total_j = 0.0;
  for (const auto& r : runs) total_j += r.energy_j;
  std::printf("\nenergy: mean %.2f MJ per run; aggregate efficiency %.2f Gflop/W\n",
              total_j / static_cast<double>(runs.size()) / 1e6,
              flops * static_cast<double>(runs.size()) / total_j / 1e9);

  bench::summarize("hpl_completion_s", "s", t);
  return bench::finish();
}
