// scibench_report: analyze a measurement CSV from the command line.
//
//   scibench_report [--markdown] [--strict] [--threads N] data.csv [column]
//
// Reads a CSV (as written by core::Dataset or any plain numeric CSV
// with a header row; '#' comment lines are ignored) through
// exec::load_measurements, summarizes the selected column per the
// paper's rules -- deterministic check, Shapiro-Wilk, Ljung-Box iid
// diagnostic, median + rank CI, tail percentiles -- and renders density
// and Q-Q plots. Campaign exports (exec samples_dataset layout) are
// regrouped automatically: one summarized series per grid cell instead
// of one undifferentiated column. Exit code 0 on success, 1 on usage or
// I/O errors (malformed cells are reported with file/line/column); with
// --strict, a campaign export carrying failed or unexecuted cells exits
// 2 after printing the damage report -- the mode CI jobs use so a
// partially-failed campaign cannot pass as a thinner grid. This is the
// "analyze my existing numbers soundly" entry point for users who
// measured elsewhere.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>

#include "core/dataset.hpp"
#include "core/format.hpp"
#include "core/measurement.hpp"
#include "core/plots.hpp"
#include "core/report.hpp"
#include "exec/ingest.hpp"
#include "obs/counters.hpp"
#include "stats/confidence.hpp"
#include "stats/descriptive.hpp"

namespace {

/// The value of "key=value" in a stopping-policy description like
/// "sequential quantile=0.5 target=0.05 ... max_reps=64 ...", or "".
std::string_view policy_token(std::string_view text, const std::string& key) {
  const std::size_t pos = text.find(key + "=");
  if (pos == std::string_view::npos) return {};
  const std::string_view rest = text.substr(pos + key.size() + 1);
  return rest.substr(0, rest.find(' '));
}

/// Per-config stop lines for a sequential-stopping campaign export:
/// which configs stopped early, at how many reps, and how tight the
/// pooled rank CI actually is. Fixed-arity campaigns print nothing.
void print_measurement_control(const sci::exec::Ingested& ingested,
                               const sci::stats::ExecPolicy& policy) {
  if (ingested.stopping.empty()) return;
  std::printf("measurement control: %s (%zu round%s)\n", ingested.stopping.c_str(),
              ingested.rounds, ingested.rounds == 1 ? "" : "s");
  // A hand-edited value that is junk or out of range reports as the
  // default: probabilities must lie in (0, 1).
  const auto probability = [&](const std::string& key, double fallback) {
    const auto p = sci::core::parse_number(policy_token(ingested.stopping, key), 0.0, 1.0);
    return p && *p > 0.0 && *p < 1.0 ? *p : fallback;
  };
  const double quantile = probability("quantile", 0.5);
  const double confidence = probability("confidence", 0.95);
  const std::size_t max_reps =
      sci::core::parse_number<std::size_t>(policy_token(ingested.stopping, "max_reps"))
          .value_or(0);

  // One sort per config, center + rank CI from the same sorted pool,
  // sharded over --threads workers; bytes are identical at any count.
  const auto summaries =
      sci::exec::summarize_configs(ingested, quantile, confidence, policy);
  for (const auto& cs : summaries) {
    std::string ci_text = "CI n/a (n too small)";
    if (cs.summary.ci_rank_based && cs.summary.value != 0.0) {
      const double center = cs.summary.value;
      const double half =
          std::max(cs.summary.ci.upper - center, center - cs.summary.ci.lower) /
          std::fabs(center);
      char buf[64];
      std::snprintf(buf, sizeof buf, "CI +-%.1f%%", half * 100.0);
      ci_text = buf;
    }
    if (max_reps != 0 && cs.reps < max_reps) {
      std::printf("  config %zu: stopped early at %zu/%zu reps, %s (n=%zu samples)\n",
                  cs.config, cs.reps, max_reps, ci_text.c_str(), cs.summary.n);
    } else {
      std::printf("  config %zu: %zu reps (cap reached), %s (n=%zu samples)\n",
                  cs.config, cs.reps, ci_text.c_str(), cs.summary.n);
    }
  }
  std::printf("\n");
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--markdown] [--strict] [--threads N] <file.csv> [column]\n"
               "  column defaults to the last one; '#' lines are ignored\n"
               "  --markdown: emit a paste-ready GitHub-flavored report\n"
               "  --strict:   exit 2 if the campaign export has failed or\n"
               "              unexecuted (interrupted) cells\n"
               "  --threads:  worker threads for per-config summarization, at\n"
               "              most %zu (output is byte-identical at any count)\n",
               argv0, sci::stats::kMaxThreads);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool markdown = false;
  bool strict = false;
  sci::stats::ExecPolicy policy;
  int arg = 1;
  while (arg < argc && argv[arg][0] == '-') {
    const std::string flag = argv[arg];
    if (flag == "--markdown") {
      markdown = true;
    } else if (flag == "--strict") {
      strict = true;
    } else if (flag == "--threads" && arg + 1 < argc) {
      const auto threads =
          sci::core::parse_number<std::size_t>(argv[++arg], 0, sci::stats::kMaxThreads);
      if (!threads) {
        std::fprintf(stderr, "invalid value: %s\n", argv[arg]);
        return usage(argv[0]);
      }
      policy.threads = *threads;
    } else {
      return usage(argv[0]);
    }
    ++arg;
  }
  if (argc - arg < 1 || argc - arg > 2) return usage(argv[0]);
  const std::string path = argv[arg];

  const sci::exec::Ingested ingested = [&] {
    try {
      return sci::exec::load_measurements(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      std::exit(1);
    }
  }();
  const sci::core::Dataset& ds = ingested.dataset;

  // Partially-failed campaign exports carry their damage report in the
  // header (campaign.failed / campaign.failed_cells); surface it up
  // front so missing cells read as documented failures, not as a
  // thinner grid.
  if (ingested.failed > 0) {
    std::printf("WARNING: %zu cell%s failed during the campaign%s%s\n",
                ingested.failed, ingested.failed > 1 ? "s" : "",
                ingested.failed_cells.empty() ? "" : ":\n  ",
                ingested.failed_cells.c_str());
  }
  if (ingested.interrupted > 0) {
    std::printf("WARNING: campaign was interrupted with %zu cell%s unexecuted; "
                "resume it with the same journal to complete the grid\n",
                ingested.interrupted, ingested.interrupted > 1 ? "s" : "");
  }
  if (ingested.failed > 0 || ingested.interrupted > 0) std::printf("\n");
  // --strict turns the damage report into a gate: the report still
  // prints, but the exit code refuses to bless an incomplete grid.
  const bool damaged = ingested.failed > 0 || ingested.interrupted > 0;
  const int exit_code = strict && damaged ? 2 : 0;

  if (ds.rows() == 0) {
    // A campaign whose cells ALL failed still exports a valid (empty)
    // samples CSV; with the accounting above that is a report, not an
    // error -- aborting here would hide the explanation.
    if (damaged) {
      std::printf("%s: no successful cells to summarize\n", path.c_str());
      return exit_code;
    }
    std::fprintf(stderr, "error: %s holds no data rows\n", path.c_str());
    return 1;
  }

  const bool campaign = ingested.campaign && argc - arg == 1;
  const std::string column =
      (argc - arg == 2) ? argv[arg + 1] : ds.columns().back();
  std::vector<double> values;
  try {
    values = ds.column(column);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\navailable columns:", e.what());
    for (const auto& c : ds.columns()) std::fprintf(stderr, " %s", c.c_str());
    std::fprintf(stderr, "\n");
    return 1;
  }

  if (campaign) {
    std::printf("%s: campaign export, %zu cells, %zu observations\n\n", path.c_str(),
                ingested.cells.size(), values.size());
    print_measurement_control(ingested, policy);
  } else {
    std::printf("%s: column '%s', %zu observations\n\n", path.c_str(), column.c_str(),
                values.size());
  }

  sci::core::Experiment e;
  e.name = path + ":" + column;
  e.description = "external dataset analyzed by scibench_report";
  e.set("source", path);
  sci::core::ReportBuilder report(e);
  if (campaign) {
    // One rule-conforming summary per grid cell, in (config, rep) order.
    for (const auto& cell : ingested.cells) {
      report.add_series({cell.label, "(file units)", cell.values});
    }
  } else {
    report.add_series({column, "(file units)", values});
  }

  // Counter footer (Rule 9): live registry counters, nonzero only when
  // this process itself measured.
  sci::obs::CounterSnapshot counters;
  for (const auto& [name, value] : sci::obs::CounterRegistry::instance().snapshot()) {
    if (value != 0) counters.emplace_back(name, value);
  }
  if (!counters.empty()) report.set_counter_summary(std::move(counters));
  if (markdown) {
    std::fputs(report.render_markdown().c_str(), stdout);
    return exit_code;
  }
  std::fputs(report.render().c_str(), stdout);

  if (values.size() >= 8 && sci::stats::min_value(values) < sci::stats::max_value(values)) {
    sci::core::PlotOptions opts;
    opts.title = column + " density";
    std::fputs(sci::core::render_density(values, opts).c_str(), stdout);
    std::printf("\n");
    opts.title = column + " normal Q-Q";
    opts.height = 10;
    std::fputs(sci::core::render_qq(values, opts).c_str(), stdout);
  }
  return exit_code;
}
