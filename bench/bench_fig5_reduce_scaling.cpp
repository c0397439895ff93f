// Reproduces Figure 5: 1,000 MPI_Reduce runs for each process count
// 2..64 on the simulated Piz Daint, summarized as the max across ranks
// (worst-case completion, Rule 10), split into the powers-of-two series
// and the others -- the powers of two are visibly faster.
#include <cstdio>
#include <string>
#include <vector>

#include "core/plots.hpp"
#include "harness.hpp"
#include "sim/machine.hpp"
#include "simmpi/benchmarks.hpp"
#include "stats/confidence.hpp"
#include "stats/descriptive.hpp"

using namespace sci;

int main(int argc, char** argv) {
  bench::init("fig5_reduce_scaling", argc, argv);
  std::printf("=== Figure 5: MPI_Reduce completion time vs process count ===\n");
  std::printf("1,000 runs per count on daint-sim; summary: median of "
              "max-across-ranks, window-synchronized starts (Rule 10)\n\n");
  const auto machine = sim::make_daint();

  // The paper plots p = 2..64; simulate a representative sweep.
  const std::vector<int> counts = {2,  3,  4,  6,  8,  12, 16, 20, 24,
                                   28, 31, 32, 33, 40, 48, 56, 63, 64};
  constexpr std::size_t kIterations = 1000;

  core::XYSeries pow2{"powers of two", 'O', {}, {}};
  core::XYSeries others{"others", '*', {}, {}};

  std::printf("%5s %12s %22s %10s\n", "p", "median [us]", "99% CI(median) [us]", "class");
  for (int p : counts) {
    const auto bench = simmpi::reduce_bench(machine, p, kIterations, 500 + p);
    const auto maxes = bench.max_across_ranks();
    std::vector<double> us;
    us.reserve(maxes.size());
    for (double m : maxes) us.push_back(m * 1e6);
    const double med = stats::median(us);
    const auto ci = stats::median_confidence_interval(us, 0.99);
    const bool is_pow2 = (p & (p - 1)) == 0;
    std::printf("%5d %12.2f      [%6.2f, %6.2f] %10s\n", p, med, ci.lower, ci.upper,
                is_pow2 ? "2^k" : "other");
    (is_pow2 ? pow2 : others).x.push_back(p);
    (is_pow2 ? pow2 : others).y.push_back(med);
    // Only the powers of two feed the history: the "others" exist to
    // show the penalty, not to gate on.
    if (is_pow2) bench::summarize("reduce_p" + std::to_string(p) + "_us", "us", us);
  }

  std::printf("\npaper's observation: implementations perform better with 2^k\n");
  std::printf("processes; reporting only powers of two would hide the penalty.\n\n");

  core::PlotOptions opts;
  opts.title = "median reduce completion (us) vs processes";
  opts.x_label = "number of processes";
  opts.height = 12;
  std::fputs(core::render_xy(std::vector<core::XYSeries>{pow2, others}, opts).c_str(),
             stdout);
  return bench::finish();
}
