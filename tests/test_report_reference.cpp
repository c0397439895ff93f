// Differential tests of the report path against report_reference.hpp:
// the windowed kernel density, to_chars number formatting, the CSV
// loader's digits-only cell path and the regrouping's repeated-key
// shortcut must each give the same bits as the code they replaced,
// on the inputs most likely to tell them apart.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/format.hpp"
#include "exec/ingest.hpp"
#include "report_reference.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/descriptive.hpp"
#include "stats/histogram.hpp"

namespace sci {
namespace {

std::vector<std::uint64_t> bits_of(const std::vector<double>& xs) {
  std::vector<std::uint64_t> out;
  out.reserve(xs.size());
  for (double x : xs) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

/// Both entry points against the point-major oracle, bit for bit.
void expect_same_density(const std::vector<double>& xs, std::size_t points,
                         double bandwidth) {
  const auto want = reference::kernel_density(xs, points, bandwidth);
  const auto got = stats::kernel_density(xs, points, bandwidth);
  const auto sorted = stats::sorted_copy(xs);
  const auto got_sorted = stats::kernel_density_sorted(xs, sorted, points, bandwidth);
  for (const auto* curve : {&got, &got_sorted}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(curve->bandwidth),
              std::bit_cast<std::uint64_t>(want.bandwidth));
    EXPECT_EQ(bits_of(curve->x), bits_of(want.x));
    EXPECT_EQ(bits_of(curve->density), bits_of(want.density));
  }
}

/// Three modes with uniform-sum noise, from exact arithmetic on draws.
std::vector<double> multimodal(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  constexpr double kModes[] = {1.0, 1.35, 2.2};
  std::vector<double> xs(n);
  for (double& x : xs) {
    const double mode = kModes[rng::uniform_below(gen, 3)];
    double noise = rng::uniform01(gen);
    noise += rng::uniform01(gen);
    x = mode + 0.05 * (noise - 1.0);
  }
  return xs;
}

TEST(ReportReference, KernelDensityMatchesPointMajorLoop) {
  for (const std::size_t n : {2u, 8u, 32u, 1000u, 32000u}) {
    SCOPED_TRACE(n);
    const auto xs = multimodal(n, 7 + n);
    expect_same_density(xs, 72, 0.0);
    expect_same_density(xs, 128, 0.0);
    expect_same_density(xs, 2, 0.0);
  }
}

TEST(ReportReference, KernelDensityThinnedSeries) {
  // Past 100k samples both thin to every third sample before the sums.
  expect_same_density(multimodal(250'001, 3), 72, 0.0);
}

TEST(ReportReference, KernelDensityExplicitBandwidth) {
  const auto xs = multimodal(5000, 11);
  for (const double h : {0.05, 1e-4, 3.0, 1e3}) {
    SCOPED_TRACE(h);
    expect_same_density(xs, 72, h);
  }
}

TEST(ReportReference, KernelDensitySamplesOnWindowEdges) {
  // h = 1 and samples at 0 and 10 put the grid on the integers -3..13.
  // Samples at k + sqrt(40) and its neighbours sit on the cutoff of the
  // grid point k; samples on grid points and half steps put the window
  // estimate exactly on an index.
  std::vector<double> xs = {0.0, 10.0};
  const double r = std::sqrt(40.0);
  for (int k = -3; k <= 3; ++k) {
    for (const double v : {k + r, 10.0 - r - k}) {
      xs.push_back(v);
      xs.push_back(std::nextafter(v, 0.0));
      xs.push_back(std::nextafter(v, 20.0));
    }
    xs.push_back(static_cast<double>(k) + 3.0);
    xs.push_back(static_cast<double>(k) + 3.5);
  }
  expect_same_density(xs, 17, 1.0);
  expect_same_density(xs, 72, 1.0);
  expect_same_density(xs, 72, 0.0);
}

TEST(ReportReference, KernelDensityGridCoarserThanItsSteps) {
  // Far from zero with a tiny spread, neighbouring grid points round to
  // the same double, so a window estimated from the index is off by
  // many points; the widening has to find every term anyway.
  const double base = 1e6;
  const double ulp = std::nextafter(base, 2e6) - base;
  std::vector<double> xs;
  for (int i = 0; i < 20; ++i) xs.push_back(base + i * ulp);
  expect_same_density(xs, 128, 1e-12);
  expect_same_density(xs, 128, 1e-300);
  expect_same_density(xs, 72, 0.0);
  expect_same_density({base, base, base}, 72, 0.0);
}

TEST(ReportReference, FormatMatchesOstream) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      inf,
      -inf,
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      1.5e-320,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      1e308,
      -1e308,
      99999.5,
      9999.5,
      99995.0,
      9999.95,
      0.000123455,
      1.23455,
      1e-5,
      1e-4,
      123456.0,
      1e15,
      0.1,
      2.0 / 3.0,
  };
  rng::Xoshiro256 gen(0xf0a7);
  for (int i = 0; i < 2000; ++i) values.push_back(std::bit_cast<double>(gen()));
  for (int i = 0; i < 2000; ++i) {
    values.push_back(std::ldexp(rng::uniform01(gen), static_cast<int>(gen() % 80) - 40));
  }
  for (const double v : values) {
    for (const int digits : {4, 5}) {
      EXPECT_EQ(core::format_general(v, digits), reference::format_number(v, digits))
          << std::hexfloat << v << " at " << digits << " digits";
    }
  }
}

TEST(ReportReference, CellParseMatchesFromChars) {
  const std::string path = ::testing::TempDir() + "scibench_cell_parse.csv";
  const std::vector<std::string> cells = {
      "0", "007", "00000000000000", "123456789012345", "999999999999999",
      "1234567890123456", "9999999999999999", "9007199254740993", "000000000000000123",
      "+5", " 12", "12 ", "12\r", "\t7", "-0", "-12", "1.5", "1e3", "inf", "nan",
      "12a", "1 2", "", "-", "0x10", "٣"};
  for (const std::string& cell : cells) {
    SCOPED_TRACE("cell '" + cell + "'");
    std::ofstream(path, std::ios::binary) << "a,v\n1," << cell << "\n";
    bool want_throw = false;
    double want = 0.0;
    try {
      want = reference::parse_cell(cell);
    } catch (const std::invalid_argument&) {
      want_throw = true;
    }
    if (want_throw) {
      EXPECT_THROW((void)core::Dataset::load_csv(path), std::runtime_error);
      continue;
    }
    const auto column = core::Dataset::load_csv(path).column("v");
    ASSERT_EQ(column.size(), 1u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(column[0]), std::bit_cast<std::uint64_t>(want));
  }
  EXPECT_TRUE(std::signbit(reference::parse_cell("-0")));
  std::filesystem::remove(path);
}

TEST(ReportReference, RegroupMatchesMapOnly) {
  // Keys that repeat, return after a gap, arrive out of order and
  // interleave; a factor column rides along for the labels.
  const std::vector<std::pair<int, int>> keys = {
      {0, 0}, {0, 0}, {1, 0}, {0, 0}, {0, 1}, {2, 0}, {2, 0}, {1, 0},
      {0, 1}, {2, 1}, {2, 0}, {2, 1}, {2, 0}, {1, 1}, {1, 1}, {0, 0}};
  core::Experiment e;
  e.name = "regroup";
  core::Dataset ds(e, {"config", "rep", "f_system", "sample", "value"});
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ds.add_row({static_cast<double>(keys[i].first), static_cast<double>(keys[i].second),
                static_cast<double>(keys[i].first % 2), static_cast<double>(i),
                1.0 + 0.125 * static_cast<double>(i)});
  }
  const std::string path = ::testing::TempDir() + "scibench_regroup.csv";
  ds.save_csv(path);
  const auto got = exec::load_measurements(path).cells;
  const auto want = reference::regroup(core::Dataset::load_csv(path));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].config, want[i].config);
    EXPECT_EQ(got[i].rep, want[i].rep);
    EXPECT_EQ(got[i].label, want[i].label);
    EXPECT_EQ(bits_of(got[i].values), bits_of(want[i].values));
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace sci
