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
//   * every exported cell is byte-identical to printf("%.17g"), both in
//     the campaign-shaped file and in an export of the %.*g kernel's
//     edge corpus (csv_corpus::format_edge_values: ties, powers of ten,
//     2^53 +- k, subnormals, NaN payloads ...), written twice each so
//     the writer's per-column repeat memo serves every second row;
//   * the loaded dataset has the written columns and bit-identical rows.
//
// `--smoke` runs few passes for CI; `--json DIR` writes
// DIR/BENCH_csv_io.json for scibench_ci.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/dataset.hpp"
#include "csv_corpus.hpp"
#include "harness.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"

using namespace sci;

namespace {

constexpr std::size_t kCells = 200;    ///< 2 systems x 4 sizes x 25 reps
constexpr std::size_t kSamples = 256;  ///< per cell

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

/// The kernel's edge corpus as a one-column export in which every
/// value fills two rows in a row: the second is the repeat memo's copy.
core::Dataset edge_shaped() {
  const std::vector<double> values = csv_corpus::format_edge_values(17, 0xed6eu);
  core::Experiment e;
  e.name = "csv_io_edges";
  core::Dataset ds(e, {"value"});
  ds.reserve(2 * values.size());
  for (double v : values) {
    ds.add_row({v});
    ds.add_row({v});
  }
  return ds;
}

std::string csv_of(const core::Dataset& ds) {
  std::ostringstream os;
  ds.write_csv(os);
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// The file must be the header followed by printf("%.17g") cells.
void check_bytes(const core::Dataset& ds, const std::string& text, const std::string& what) {
  std::string want = csv_of(core::Dataset(ds.experiment(), ds.columns()));
  // printf is a pure function of the bits, so a cell equal to the
  // previous cell checked reuses its text: repeats cost no second printf.
  std::uint64_t last_bits = 0;
  char buf[64] = "0";
  for (std::size_t r = 0; r < ds.rows(); ++r) {
    const auto row = ds.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (const auto bits = std::bit_cast<std::uint64_t>(row[c]); bits != last_bits) {
        std::snprintf(buf, sizeof buf, "%.17g", row[c]);
        last_bits = bits;
      }
      want += buf;
      want += c + 1 < row.size() ? ',' : '\n';
    }
  }
  bench::check(text == want, what + " bytes equal printf(\"%.17g\") cell by cell");
}

void check_loaded(const core::Dataset& want, const core::Dataset& got) {
  bench::check(got.columns() == want.columns(), "loaded columns equal the written ones");
  bool same = got.rows() == want.rows();
  for (std::size_t r = 0; same && r < want.rows(); ++r) {
    const auto a = want.row(r);
    const auto b = got.row(r);
    same = std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
  }
  bench::check(same, "loaded rows are bit-identical to the written ones");
}

/// Per-pass throughputs from per-pass seconds.
std::vector<double> rates(const std::vector<double>& seconds, double amount) {
  std::vector<double> out;
  out.reserve(seconds.size());
  for (double s : seconds) out.push_back(amount / s);
  return out;
}

void report(const std::string& name, const std::string& unit,
            const std::vector<double>& samples) {
  const auto m = bench::summarize(name, unit, samples, obs::Improve::kHigher);
  std::printf("  %-16s %12.1f [%12.1f, %12.1f] %s\n", name.c_str(), m.median, m.ci_lo,
              m.ci_hi, unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("csv_io", argc, argv);
  const std::size_t passes = bench::smoke() ? 9 : 31;  // > 5: a rank CI, not min/max

  const core::Dataset ds = campaign_shaped();
  std::error_code ec;
  const std::filesystem::path dir = std::filesystem::temp_directory_path(ec) /
                                    ("bench_csv_io." + std::to_string(::getpid()));
  std::filesystem::create_directories(dir, ec);
  const std::string path = (dir / "samples.csv").string();

  ds.save_csv(path);
  const std::string text = read_file(path);
  check_bytes(ds, text, "exported");
  const core::Dataset edges = edge_shaped();
  check_bytes(edges, csv_of(edges), "edge-corpus");
  check_loaded(ds, core::Dataset::load_csv(path));
  const double mb = static_cast<double>(text.size()) / 1e6;
  const double rows = static_cast<double>(ds.rows());
  std::printf("bench_csv_io (%s): %zu rows x %zu columns, %.2f MB, %zu passes each\n",
              bench::mode(), ds.rows(), ds.columns().size(), mb, passes);

  std::vector<double> export_s;
  std::vector<double> load_s;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    std::filesystem::remove(path, ec);
    double t0 = bench::now_s();
    ds.save_csv(path);
    export_s.push_back(bench::now_s() - t0);
    t0 = bench::now_s();
    const core::Dataset loaded = core::Dataset::load_csv(path);
    load_s.push_back(bench::now_s() - t0);
    bench::check(loaded.rows() == ds.rows(), "every pass loads every row");
  }
  std::filesystem::remove_all(dir, ec);

  bench::reporter().set_context("mode", bench::mode());
  bench::reporter().set_context("rows", std::to_string(ds.rows()));
  bench::reporter().set_context("csv_bytes", std::to_string(text.size()));
  report("export.mb_per_s", "MB/s", rates(export_s, mb));
  report("export.rows_per_s", "rows/s", rates(export_s, rows));
  report("load.mb_per_s", "MB/s", rates(load_s, mb));
  report("load.rows_per_s", "rows/s", rates(load_s, rows));
  return bench::finish();
}
