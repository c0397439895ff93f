#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "core/plots.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"

namespace sci::core {
namespace {

std::vector<double> lognormal_sample(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(rng::lognormal(gen, 0.0, 0.5));
  return v;
}

TEST(Plots, DensityContainsMarkersAndAxis) {
  const auto v = lognormal_sample(2000, 1);
  const PlotOptions opts{.title = "latency density", .x_label = "us"};
  const auto text = render_density(v, opts);
  EXPECT_NE(text.find("latency density"), std::string::npos);
  EXPECT_NE(text.find("M=median"), std::string::npos);
  EXPECT_NE(text.find("A=mean"), std::string::npos);
  EXPECT_NE(text.find("[us]"), std::string::npos);
  EXPECT_NE(text.find('*'), std::string::npos);
}

TEST(Plots, BoxShowsEverySeries) {
  std::vector<NamedSeries> series = {{"dora", lognormal_sample(500, 2)},
                                     {"pilatus", lognormal_sample(500, 3)}};
  const auto text = render_box(series, {});
  EXPECT_NE(text.find("dora"), std::string::npos);
  EXPECT_NE(text.find("pilatus"), std::string::npos);
  EXPECT_NE(text.find('M'), std::string::npos);
  EXPECT_NE(text.find('['), std::string::npos);
  EXPECT_NE(text.find("whiskers"), std::string::npos);
}

TEST(Plots, ViolinShowsDensityRamp) {
  std::vector<NamedSeries> series = {{"a", lognormal_sample(2000, 4)}};
  const auto text = render_violin(series, {});
  EXPECT_NE(text.find('#'), std::string::npos);
  EXPECT_NE(text.find("quartiles"), std::string::npos);
}

TEST(Plots, QqReportsCorrelation) {
  const auto text = render_qq(lognormal_sample(1000, 5), {});
  EXPECT_NE(text.find("r(QQ)="), std::string::npos);
  EXPECT_NE(text.find('o'), std::string::npos);
}

TEST(Plots, XyMultipleSeriesWithLegend) {
  XYSeries measured{"measured", 'o', {1, 2, 4, 8}, {10, 6, 4, 3}};
  XYSeries ideal{"ideal", '.', {1, 2, 4, 8}, {10, 5, 2.5, 1.25}};
  PlotOptions opts;
  opts.x_label = "processes";
  const auto text = render_xy(std::vector<XYSeries>{measured, ideal}, opts);
  EXPECT_NE(text.find("o=measured"), std::string::npos);
  EXPECT_NE(text.find(".=ideal"), std::string::npos);
  EXPECT_NE(text.find("[processes]"), std::string::npos);
}

TEST(Plots, XyLogScale) {
  XYSeries s{"t", '*', {1, 10, 100}, {1.0, 100.0, 10000.0}};
  const auto text = render_xy(std::vector<XYSeries>{s}, {}, /*log_y=*/true);
  EXPECT_NE(text.find("log scale"), std::string::npos);
}

TEST(Plots, DegenerateInputsSafe) {
  // Constant series: ranges collapse; renderers must not divide by zero.
  const std::vector<double> constant(100, 5.0);
  EXPECT_NO_THROW(render_density(constant, {}));
  std::vector<NamedSeries> series = {{"const", constant}};
  EXPECT_NO_THROW(render_box(series, {}));
  EXPECT_NO_THROW(render_qq(constant, {}));
}

TEST(Plots, EmptyInputsThrow) {
  EXPECT_THROW(render_density({}, {}), std::invalid_argument);
  EXPECT_THROW(render_box({}, {}), std::invalid_argument);
  EXPECT_THROW(render_xy({}, {}), std::invalid_argument);
  // Non-finite samples are refused before anything sorts them.
  const std::vector<double> with_nan = {1.0, std::nan(""), 3.0, 2.0};
  EXPECT_THROW(render_density(with_nan, {}), std::domain_error);
}

TEST(Plots, WidthRespected) {
  const auto v = lognormal_sample(500, 6);
  PlotOptions opts;
  opts.width = 40;
  const auto text = render_density(v, opts);
  // Interior lines are width + 2 frame chars.
  std::istringstream is(text);
  std::string line;
  std::getline(is, line);  // skip potential title
  while (std::getline(is, line)) {
    if (!line.empty() && line.front() == '|') {
      EXPECT_LE(line.size(), 42u + 40u);  // frame + annotation slack
    }
  }
}

}  // namespace
}  // namespace sci::core
