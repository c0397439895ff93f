// The one harness every bench_* binary shares: its two flags, its
// checks, its clock, its metric summaries and its verdict.
//
//   --smoke     shrink sizes for CI; invariants are still asserted,
//               timing targets only in the full run
//   --json DIR  also write DIR/BENCH_<name>.json (obs::BenchReporter)
//               for scibench_ci
//
// Other arguments are left to the bench. A bench calls init() first and
// returns finish() from main:
//
//   int main(int argc, char** argv) {
//     bench::init("csv_io", argc, argv);
//     ...
//     bench::check(loaded == want, "reload is bit-identical");
//     const auto m = bench::summarize("load.mb_per_s", "MB/s", rates,
//                                     obs::Improve::kHigher);
//     ...
//     return bench::finish();
//   }
//
// Every metric goes into the report whether or not --json was given;
// only the write depends on the flag.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "obs/bench_report.hpp"

namespace sci::bench {

/// Parses --smoke and --json DIR and names the report BENCH_`name`.
void init(std::string name, int argc, char** argv);

[[nodiscard]] bool smoke();
/// "smoke" or "full", for headers and the report's "mode" context.
[[nodiscard]] const char* mode();
[[nodiscard]] obs::BenchReporter& reporter();

/// Counts a failed invariant and prints "FAILED: what".
void check(bool ok, std::string_view what);

/// Steady-clock seconds, for timing one pass.
[[nodiscard]] double now_s();

/// Records `samples` as metric `name` and returns it: the median and
/// its 95% CI from stats::median_interval_sorted.
obs::BenchMetric summarize(std::string name, std::string unit,
                           std::span<const double> samples,
                           obs::Improve improve = obs::Improve::kLower);

/// Writes the report when --json DIR was given (a failed write is a
/// failed check), prints the verdict line -- `pass_line` or the failure
/// count -- and returns the exit code: 0 when every check held, else 1.
[[nodiscard]] int finish(const char* pass_line = "all checks passed");

}  // namespace sci::bench
