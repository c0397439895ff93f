// scibench_ci: continuous performance gate over BENCH_*.json reports.
//
//   scibench_ci ingest --history FILE <report.json | dir>...
//   scibench_ci check  --history FILE [--markdown OUT] [--html OUT]
//   scibench_ci gate   --history FILE [--markdown OUT] [--html OUT] <report.json | dir>...
//
// `ingest` appends every metric point of the given reports (directories
// are scanned for BENCH_*.json) into the append-only JSONL history;
// re-ingesting the same (git sha, bench, metric) is a no-op. `check`
// runs the detection battery (ci/detect.hpp: CI-overlap gate,
// Kruskal-Wallis change point, quantile-regression trend) over the
// stored series and prints the markdown dashboard; `gate` is ingest
// followed by check -- the one-shot CI entry point.
//
// Detection knobs: --alpha P (default 0.05), --min-effect F (relative
// change floor, default 0.05), --baseline-window N (default 8),
// --min-points N (default 4).
//
// Exit codes: 0 clean, 1 usage or I/O error, 2 at least one metric
// flagged as a regression (check/gate only) -- the code a CI job should
// treat as "fail the PR".
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "ci/dashboard.hpp"
#include "ci/detect.hpp"
#include "ci/history.hpp"
#include "core/format.hpp"
#include "obs/bench_report.hpp"

namespace fs = std::filesystem;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <command> [options] [inputs...]\n"
               "commands:\n"
               "  ingest --history FILE <report.json | dir>...\n"
               "  check  --history FILE [--markdown OUT] [--html OUT]\n"
               "  gate   --history FILE [--markdown OUT] [--html OUT] <report.json | dir>...\n"
               "options: --alpha P  --min-effect F  --baseline-window N  --min-points N\n"
               "         --threads N (parallel per-metric analysis; same output bytes)\n"
               "exit: 0 clean, 1 usage/IO error, 2 regression detected\n",
               argv0);
  return 1;
}

/// Expands an input path: a directory yields its BENCH_*.json files
/// (sorted for deterministic ingest order), a file yields itself.
std::vector<std::string> expand_input(const std::string& input) {
  std::vector<std::string> out;
  std::error_code ec;
  if (fs::is_directory(input, ec)) {
    for (const auto& entry : fs::directory_iterator(input, ec)) {
      if (!entry.is_regular_file()) continue;
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
          name.compare(name.size() - 5, 5, ".json") == 0) {
        out.push_back(entry.path().string());
      }
    }
    std::sort(out.begin(), out.end());
  } else {
    out.push_back(input);
  }
  return out;
}

struct Args {
  std::string command;
  std::string history;
  std::string markdown_out;
  std::string html_out;
  sci::ci::DetectionOptions detect;
  std::vector<std::string> inputs;
};

constexpr double kMaxDouble = std::numeric_limits<double>::max();
constexpr std::size_t kMaxCount = std::numeric_limits<std::size_t>::max();

/// Stores the whole of `text` as a T in [lo, hi] in `out`; false (a
/// usage error) for a missing value, a partial token or junk.
template <typename T>
bool parse_value(const char* text, std::type_identity_t<T> lo, std::type_identity_t<T> hi,
                 T& out) {
  if (text == nullptr) return false;
  const auto value = sci::core::parse_number(text, lo, hi);
  if (!value) {
    std::fprintf(stderr, "invalid value: %s\n", text);
    return false;
  }
  out = *value;
  return true;
}

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return ++i < argc ? argv[i] : nullptr; };
    if (a == "--history") {
      const char* v = next();
      if (v == nullptr) return false;
      args.history = v;
    } else if (a == "--markdown") {
      const char* v = next();
      if (v == nullptr) return false;
      args.markdown_out = v;
    } else if (a == "--html") {
      const char* v = next();
      if (v == nullptr) return false;
      args.html_out = v;
    } else if (a == "--alpha") {
      if (!parse_value(next(), 0.0, 1.0, args.detect.alpha)) return false;
    } else if (a == "--min-effect") {
      if (!parse_value(next(), 0.0, kMaxDouble, args.detect.min_effect)) return false;
    } else if (a == "--baseline-window") {
      if (!parse_value(next(), 0, kMaxCount, args.detect.baseline_window)) return false;
    } else if (a == "--min-points") {
      if (!parse_value(next(), 0, kMaxCount, args.detect.min_points)) return false;
    } else if (a == "--threads") {
      // Shards per-metric analysis across workers; findings (and every
      // output byte) are identical at any thread count.
      if (!parse_value(next(), 0, sci::stats::kMaxThreads, args.detect.policy.threads)) {
        return false;
      }
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      return false;
    } else {
      args.inputs.push_back(a);
    }
  }
  return !args.history.empty();
}

int do_ingest(sci::ci::HistoryStore& store, const std::vector<std::string>& inputs) {
  std::size_t reports = 0, appended = 0;
  for (const auto& input : inputs) {
    for (const auto& file : expand_input(input)) {
      try {
        const sci::obs::BenchReport report = sci::obs::load_bench_report(file);
        appended += store.ingest(report);
        ++reports;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s: %s\n", file.c_str(), e.what());
        return 1;
      }
    }
  }
  std::printf("ingested %zu report%s, appended %zu point%s (history: %zu total)\n",
              reports, reports == 1 ? "" : "s", appended, appended == 1 ? "" : "s",
              store.points().size());
  return 0;
}

int do_check(const sci::ci::HistoryStore& store, const Args& args) {
  const std::vector<sci::ci::MetricSeries> series = store.series();
  const std::vector<sci::ci::Finding> findings =
      sci::ci::analyze_all(series, args.detect);

  const std::string markdown = sci::ci::render_markdown_dashboard(findings, series);
  std::fputs(markdown.c_str(), stdout);
  if (!args.markdown_out.empty()) {
    sci::obs::write_file_atomic(args.markdown_out, markdown);
  }
  if (!args.html_out.empty()) {
    sci::obs::write_file_atomic(args.html_out,
                                sci::ci::render_html_dashboard(findings, series));
  }
  if (store.skipped_lines() > 0) {
    std::fprintf(stderr, "warning: %zu corrupt history line%s skipped during load\n",
                 store.skipped_lines(), store.skipped_lines() == 1 ? "" : "s");
  }
  // A baseline window whose rank CI collapsed to [min, max] makes the
  // overlap gate near-blind for that series: the widest expressible
  // interval overlaps almost anything. Warn (exit code unchanged) so a
  // "stable" verdict on a short/noisy window is read with suspicion.
  for (const auto& f : findings) {
    if (f.baseline_ci_degenerate) {
      std::fprintf(stderr,
                   "warning: %s/%s baseline CI degenerated to [min, max] over the "
                   "window; the overlap gate has little power here until more "
                   "history accumulates\n",
                   f.bench.c_str(), f.metric.c_str());
    }
  }
  if (sci::ci::any_regression(findings)) {
    std::fprintf(stderr, "REGRESSION detected -- see dashboard above\n");
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage(argv[0]);

  try {
    if (args.command == "ingest") {
      if (args.inputs.empty()) return usage(argv[0]);
      sci::ci::HistoryStore store(args.history);
      return do_ingest(store, args.inputs);
    }
    if (args.command == "check") {
      if (!args.inputs.empty()) return usage(argv[0]);
      const sci::ci::HistoryStore store(args.history);
      return do_check(store, args);
    }
    if (args.command == "gate") {
      if (args.inputs.empty()) return usage(argv[0]);
      sci::ci::HistoryStore store(args.history);
      const int rc = do_ingest(store, args.inputs);
      if (rc != 0) return rc;
      return do_check(store, args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage(argv[0]);
}
