#include "harness.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>

namespace sci::bench {
namespace {

bool g_smoke = false;
std::string g_json_dir;  ///< empty: no --json
std::optional<obs::BenchReporter> g_reporter;
int g_failures = 0;

}  // namespace

void init(std::string name, int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) g_smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) g_json_dir = argv[++i];
  }
  g_reporter.emplace(std::move(name));
}

bool smoke() { return g_smoke; }

const char* mode() { return g_smoke ? "smoke" : "full"; }

obs::BenchReporter& reporter() { return g_reporter.value(); }

void check(bool ok, std::string_view what) {
  if (ok) return;
  std::printf("FAILED: %.*s\n", static_cast<int>(what.size()), what.data());
  ++g_failures;
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

obs::BenchMetric summarize(std::string name, std::string unit,
                           std::span<const double> samples, obs::Improve improve) {
  return reporter().add_metric(std::move(name), std::move(unit), samples, improve);
}

int finish(const char* pass_line) {
  if (!g_json_dir.empty()) {
    const std::string path = reporter().write_json(g_json_dir);
    check(!path.empty(), "could not write BENCH json into " + g_json_dir);
    if (!path.empty()) std::printf("\nwrote %s\n", path.c_str());
  }
  if (g_failures != 0) {
    std::printf("\n%d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\n%s\n", pass_line);
  return 0;
}

}  // namespace sci::bench
