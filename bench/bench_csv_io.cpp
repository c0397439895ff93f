// Absolute CSV export and load throughput of core::Dataset on the shape
// of a sample-heavy campaign export: 200 cells x 256 samples, columns
// config, rep, f_system, f_message_bytes, sample, value (~1.6 MB), the
// samples CSV that perfbench's analyze_gate workload writes and reads.
//
// One timed pass is one save_csv of the whole dataset to a fresh file
// (the previous one is deleted first, so the filesystem never rewrites
// a file in place) or one load_csv of it. Passes alternate export and
// load. Every figure is a median with a 95% nonparametric rank CI, in
// MB/s and rows/s. There is no second writer to duel against: the
// BENCH_csv_io.json history carries the trajectory.
//
// Correctness is asserted in every mode, timing never:
//   * every exported cell is byte-identical to printf("%.17g");
//   * the loaded dataset has the written columns and bit-identical rows.
//
// `--smoke` runs few passes for CI; `--json DIR` writes
// DIR/BENCH_csv_io.json for scibench_ci.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/dataset.hpp"
#include "obs/bench_report.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/confidence.hpp"
#include "stats/descriptive.hpp"

using namespace sci;

namespace {

constexpr std::size_t kCells = 200;    ///< 2 systems x 4 sizes x 25 reps
constexpr std::size_t kSamples = 256;  ///< per cell

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAILED: %s\n", what.c_str());
    ++g_failures;
  }
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The long-form campaign layout with pingpong-like latencies in us.
core::Dataset campaign_shaped() {
  core::Experiment e;
  e.name = "csv_io";
  e.set("campaign.seed", "11");
  e.set("campaign.replications", "25");
  e.add_factor("system", {"dora", "daint"});
  e.add_factor("message_bytes", {"8", "64", "512", "4096"});
  e.synchronization_method = "none (pingpong)";
  core::Dataset ds(e, {"config", "rep", "f_system", "f_message_bytes", "sample", "value"});
  ds.reserve(kCells * kSamples);
  rng::Xoshiro256 gen(0xc5f10u);
  for (std::size_t cell = 0; cell < kCells; ++cell) {
    const double config = static_cast<double>(cell / 25);
    const double rep = static_cast<double>(cell % 25);
    const double base = 1.5 + 0.25 * config;
    for (std::size_t s = 0; s < kSamples; ++s) {
      ds.add_row({config, rep, std::floor(config / 4), std::fmod(config, 4.0),
                  static_cast<double>(s), base * rng::lognormal(gen, 0.0, 0.1)});
    }
  }
  return ds;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// The file must be the header followed by printf("%.17g") cells.
void check_bytes(const core::Dataset& ds, const std::string& text) {
  core::Dataset header_only(ds.experiment(), ds.columns());
  std::ostringstream os;
  header_only.write_csv(os);
  std::string want = os.str();
  char buf[64];
  for (std::size_t r = 0; r < ds.rows(); ++r) {
    const auto row = ds.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::snprintf(buf, sizeof buf, "%.17g", row[c]);
      want += buf;
      want += c + 1 < row.size() ? ',' : '\n';
    }
  }
  check(text == want, "exported bytes equal printf(\"%.17g\") cell by cell");
}

void check_loaded(const core::Dataset& want, const core::Dataset& got) {
  check(got.columns() == want.columns(), "loaded columns equal the written ones");
  bool same = got.rows() == want.rows();
  for (std::size_t r = 0; same && r < want.rows(); ++r) {
    const auto a = want.row(r);
    const auto b = got.row(r);
    same = std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
  }
  check(same, "loaded rows are bit-identical to the written ones");
}

struct Summary {
  double median = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};

Summary summarize(const std::vector<double>& samples) {
  const auto sorted = stats::sorted_copy(samples);
  Summary s{stats::quantile_sorted(sorted, 0.5), sorted.front(), sorted.back()};
  if (sorted.size() > 5) {
    const auto ci = stats::quantile_confidence_interval_sorted(sorted, 0.5, 0.95);
    s.lo = ci.lower;
    s.hi = ci.upper;
  }
  return s;
}

/// Per-pass throughputs from per-pass seconds.
std::vector<double> rates(const std::vector<double>& seconds, double amount) {
  std::vector<double> out;
  out.reserve(seconds.size());
  for (double s : seconds) out.push_back(amount / s);
  return out;
}

void report(obs::BenchReporter& reporter, const std::string& name, const std::string& unit,
            const std::vector<double>& samples) {
  const Summary s = summarize(samples);
  std::printf("  %-16s %12.1f [%12.1f, %12.1f] %s\n", name.c_str(), s.median, s.lo, s.hi,
              unit.c_str());
  reporter.add_metric(name, unit, samples, obs::Improve::kHigher);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_dir = argv[++i];
  }
  const std::size_t passes = smoke ? 9 : 31;  // > 5: a rank CI, not min/max

  const core::Dataset ds = campaign_shaped();
  std::error_code ec;
  const std::filesystem::path dir = std::filesystem::temp_directory_path(ec) /
                                    ("bench_csv_io." + std::to_string(::getpid()));
  std::filesystem::create_directories(dir, ec);
  const std::string path = (dir / "samples.csv").string();

  ds.save_csv(path);
  const std::string text = read_file(path);
  check_bytes(ds, text);
  check_loaded(ds, core::Dataset::load_csv(path));
  const double mb = static_cast<double>(text.size()) / 1e6;
  const double rows = static_cast<double>(ds.rows());
  std::printf("bench_csv_io (%s): %zu rows x %zu columns, %.2f MB, %zu passes each\n",
              smoke ? "smoke" : "full", ds.rows(), ds.columns().size(), mb, passes);

  std::vector<double> export_s;
  std::vector<double> load_s;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    std::filesystem::remove(path, ec);
    double t0 = now_s();
    ds.save_csv(path);
    export_s.push_back(now_s() - t0);
    t0 = now_s();
    const core::Dataset loaded = core::Dataset::load_csv(path);
    load_s.push_back(now_s() - t0);
    check(loaded.rows() == ds.rows(), "every pass loads every row");
  }
  std::filesystem::remove_all(dir, ec);

  obs::BenchReporter reporter("csv_io");
  reporter.set_context("mode", smoke ? "smoke" : "full");
  reporter.set_context("rows", std::to_string(ds.rows()));
  reporter.set_context("csv_bytes", std::to_string(text.size()));
  report(reporter, "export.mb_per_s", "MB/s", rates(export_s, mb));
  report(reporter, "export.rows_per_s", "rows/s", rates(export_s, rows));
  report(reporter, "load.mb_per_s", "MB/s", rates(load_s, mb));
  report(reporter, "load.rows_per_s", "rows/s", rates(load_s, rows));

  if (!json_dir.empty()) {
    const std::string out = reporter.write_json(json_dir);
    check(!out.empty(), "write BENCH json into " + json_dir);
    if (!out.empty()) std::printf("\nwrote %s\n", out.c_str());
  }
  if (g_failures == 0) {
    std::printf("\nall checks passed\n");
    return 0;
  }
  std::printf("\n%d check(s) FAILED\n", g_failures);
  return 1;
}
