// Where scibench_report's time goes: the tool's text-mode path on one
// CSV, split into the calls it makes, in process.
//
//   bench_report_path <file.csv> [--passes N (1..1000)] [--tool PATH]
//
// Phases, in the tool's order:
//   load       exec::load_measurements (file read, cell parse, regroup)
//   summarize  ReportBuilder::add_series per cell (summarize_series)
//   render     ReportBuilder::render (the per-series text)
//   density    core::render_density over the whole value column
//   qq         core::render_qq over the whole value column
// Each pass runs every phase once; a phase's figure is its best pass
// (interference only ever adds time) next to its median. With --tool,
// every pass also runs the scibench_report binary once on the same
// file (stdout to /dev/null, --threads 1 as perfbench runs it), so the
// phase sum can be read against the tool's wall time: the difference
// is process start, dynamic loading, the provenance footer, writing
// stdout and exit.
//
// The rendered bytes are checked against the tool's own stdout when
// --tool is given; timing is never asserted.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/format.hpp"
#include "core/plots.hpp"
#include "core/report.hpp"
#include "exec/ingest.hpp"
#include "harness.hpp"

extern char** environ;

using namespace sci;

namespace {

constexpr std::size_t kMaxPasses = 1000;

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s <file.csv> [--passes N (1..%zu)] [--tool PATH]\n", argv0,
               kMaxPasses);
  return 1;
}

/// Runs `argv` with stdout and stderr on /dev/null; returns wall seconds.
double run_tool_s(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
  const double t0 = bench::now_s();
  pid_t pid = 0;
  if (posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ) != 0) {
    posix_spawn_file_actions_destroy(&actions);
    return -1.0;
  }
  int status = 0;
  waitpid(pid, &status, 0);
  const double dt = bench::now_s() - t0;
  posix_spawn_file_actions_destroy(&actions);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? dt : -1.0;
}

/// The tool's stdout for `args`, or empty on failure.
std::string tool_stdout(const std::vector<std::string>& args) {
  std::string command;
  for (const auto& a : args) command += "'" + a + "' ";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return {};
  std::string out;
  char buf[65536];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, got);
  return ::pclose(pipe) == 0 ? out : std::string{};
}

struct Phase {
  const char* name;
  std::vector<double> s;
  [[nodiscard]] double best() const { return *std::min_element(s.begin(), s.end()); }
  [[nodiscard]] double median() const {
    std::vector<double> v = s;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string csv, tool;
  std::size_t passes = 15;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--passes" && i + 1 < argc) {
      const auto value = core::parse_number<std::size_t>(argv[++i], 1, kMaxPasses);
      if (!value) return usage(argv[0]);
      passes = *value;
    } else if (a == "--tool" && i + 1 < argc) {
      tool = argv[++i];
    } else if (csv.empty() && a[0] != '-') {
      csv = a;
    } else {
      return usage(argv[0]);
    }
  }
  if (csv.empty()) return usage(argv[0]);

  std::vector<Phase> phases = {
      {"load", {}}, {"summarize", {}}, {"render", {}}, {"density", {}}, {"qq", {}}};
  Phase wall{"tool wall", {}};
  std::string text;
  // One untimed pass first: page cache, lazy binding, allocator warm-up.
  for (std::size_t pass = 0; pass <= passes; ++pass) {
    std::vector<double> dt;
    const auto time = [&](const std::function<void()>& f) {
      const double t0 = bench::now_s();
      f();
      dt.push_back(bench::now_s() - t0);
    };
    std::optional<exec::Ingested> ingested;
    time([&] { ingested = exec::load_measurements(csv); });
    const std::vector<double> values = ingested->dataset.column(ingested->dataset.columns().back());
    core::Experiment e;
    e.name = csv + ":" + ingested->dataset.columns().back();
    e.description = "external dataset analyzed by scibench_report";
    e.set("source", csv);
    core::ReportBuilder report(e);
    time([&] {
      for (const auto& cell : ingested->cells) {
        report.add_series({cell.label, "(file units)", cell.values});
      }
    });
    text.clear();
    time([&] { text += report.render(); });
    core::PlotOptions opts;
    opts.title = ingested->dataset.columns().back() + " density";
    time([&] { text += core::render_density(values, opts); });
    text += "\n";
    opts.title = ingested->dataset.columns().back() + " normal Q-Q";
    opts.height = 10;
    time([&] { text += core::render_qq(values, opts); });
    if (!tool.empty()) dt.push_back(run_tool_s({tool, "--threads", "1", csv}));
    if (pass == 0) continue;
    for (std::size_t i = 0; i < phases.size(); ++i) phases[i].s.push_back(dt[i]);
    if (!tool.empty()) wall.s.push_back(dt.back());
  }

  std::printf("report path on %s, %zu passes (best / median, ms)\n", csv.c_str(), passes);
  double best_sum = 0.0, median_sum = 0.0;
  for (const auto& p : phases) {
    std::printf("  %-10s %8.2f %8.2f\n", p.name, p.best() * 1e3, p.median() * 1e3);
    best_sum += p.best();
    median_sum += p.median();
  }
  std::printf("  %-10s %8.2f %8.2f\n", "sum", best_sum * 1e3, median_sum * 1e3);
  if (tool.empty()) return 0;
  if (*std::min_element(wall.s.begin(), wall.s.end()) < 0.0) {
    std::printf("FAILED: %s did not exit 0\n", tool.c_str());
    return 1;
  }
  std::printf("  %-10s %8.2f %8.2f\n", wall.name, wall.best() * 1e3, wall.median() * 1e3);
  std::printf("  %-10s %8.2f %8.2f  (process start, footer, stdout, exit)\n", "leftover",
              (wall.best() - best_sum) * 1e3, (wall.median() - median_sum) * 1e3);
  // The campaign header and measurement-control lines precede the report
  // in the tool's stdout; the in-process text must be its tail.
  const std::string out = tool_stdout({tool, "--threads", "1", csv});
  if (out.size() < text.size() || out.compare(out.size() - text.size(), text.size(), text) != 0) {
    std::printf("FAILED: in-process text differs from the tool's stdout\n");
    return 1;
  }
  return 0;
}
