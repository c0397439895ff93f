#include <gtest/gtest.h>

#include <vector>

#include "sim/machine.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"

namespace sci::simmpi {
namespace {

class ExtCollectives : public ::testing::TestWithParam<int> {};

TEST_P(ExtCollectives, GatherCollectsInRankOrder) {
  const int p = GetParam();
  World world(sim::make_noiseless(64), p, 1000 + p);
  std::vector<double> at_root;
  world.launch([&](Comm& c) -> sim::Task<void> {
    auto got = co_await gather(c, 100.0 + c.rank(), /*root=*/0);
    if (c.rank() == 0) at_root = std::move(got);
  });
  world.run();
  ASSERT_EQ(at_root.size(), static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) EXPECT_EQ(at_root[r], 100.0 + r);
}

TEST_P(ExtCollectives, GatherToNonZeroRoot) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP();
  const int root = p - 1;
  World world(sim::make_noiseless(64), p, 1100 + p);
  std::vector<double> at_root;
  world.launch([&](Comm& c) -> sim::Task<void> {
    auto got = co_await gather(c, static_cast<double>(c.rank() * c.rank()), root);
    if (c.rank() == root) at_root = std::move(got);
  });
  world.run();
  ASSERT_EQ(at_root.size(), static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) EXPECT_EQ(at_root[r], r * r);
}

TEST_P(ExtCollectives, ScatterDistributesByRank) {
  const int p = GetParam();
  World world(sim::make_noiseless(64), p, 1200 + p);
  std::vector<double> received(p, -1.0);
  world.launch([&](Comm& c) -> sim::Task<void> {
    std::vector<double> values;
    if (c.rank() == 0) {
      for (int r = 0; r < c.size(); ++r) values.push_back(7.0 * r);
    }
    received[c.rank()] = co_await scatter(c, std::move(values), 0);
  });
  world.run();
  for (int r = 0; r < p; ++r) EXPECT_EQ(received[r], 7.0 * r);
}

TEST_P(ExtCollectives, ScatterFromNonZeroRoot) {
  const int p = GetParam();
  if (p < 3) GTEST_SKIP();
  const int root = p / 2;
  World world(sim::make_noiseless(64), p, 1300 + p);
  std::vector<double> received(p, -1.0);
  world.launch([&](Comm& c) -> sim::Task<void> {
    std::vector<double> values;
    if (c.rank() == root) {
      for (int r = 0; r < c.size(); ++r) values.push_back(r + 0.5);
    }
    received[c.rank()] = co_await scatter(c, std::move(values), root);
  });
  world.run();
  for (int r = 0; r < p; ++r) EXPECT_EQ(received[r], r + 0.5);
}

TEST_P(ExtCollectives, AllgatherEveryoneSeesEverything) {
  const int p = GetParam();
  World world(sim::make_noiseless(64), p, 1400 + p);
  std::vector<std::vector<double>> results(p);
  world.launch([&](Comm& c) -> sim::Task<void> {
    results[c.rank()] = co_await allgather(c, 3.0 * c.rank() + 1.0);
  });
  world.run();
  for (int r = 0; r < p; ++r) {
    ASSERT_EQ(results[r].size(), static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) EXPECT_EQ(results[r][s], 3.0 * s + 1.0) << r;
  }
}

TEST_P(ExtCollectives, AlltoallPersonalizedExchange) {
  const int p = GetParam();
  World world(sim::make_noiseless(64), p, 1500 + p);
  std::vector<std::vector<double>> results(p);
  world.launch([&](Comm& c) -> sim::Task<void> {
    // Rank r sends r*100 + dst to each destination.
    std::vector<double> to_each;
    for (int dst = 0; dst < c.size(); ++dst) {
      to_each.push_back(c.rank() * 100.0 + dst);
    }
    results[c.rank()] = co_await alltoall(c, std::move(to_each));
  });
  world.run();
  for (int r = 0; r < p; ++r) {
    for (int s = 0; s < p; ++s) {
      EXPECT_EQ(results[r][s], s * 100.0 + r);  // what s sent to r
    }
  }
}

TEST_P(ExtCollectives, ScanComputesPrefixSums) {
  const int p = GetParam();
  World world(sim::make_noiseless(64), p, 1600 + p);
  std::vector<double> results(p, -1.0);
  world.launch([&](Comm& c) -> sim::Task<void> {
    results[c.rank()] = co_await scan(c, static_cast<double>(c.rank() + 1));
  });
  world.run();
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(results[r], (r + 1) * (r + 2) / 2.0);  // 1+2+...+(r+1)
  }
}

TEST_P(ExtCollectives, ScanMaxOp) {
  const int p = GetParam();
  World world(sim::make_noiseless(64), p, 1700 + p);
  std::vector<double> results(p, -1.0);
  world.launch([&](Comm& c) -> sim::Task<void> {
    // Values alternate; prefix max is max over [0, r].
    const double v = (c.rank() % 2 == 0) ? c.rank() : -c.rank();
    results[c.rank()] = co_await scan(c, v, ReduceOp::kMax);
  });
  world.run();
  double expected = 0.0;
  for (int r = 0; r < p; ++r) {
    const double v = (r % 2 == 0) ? r : -r;
    expected = std::max(expected, v);
    EXPECT_EQ(results[r], expected);
  }
}

TEST_P(ExtCollectives, CorrectUnderNoise) {
  const int p = GetParam();
  World world(sim::make_daint(), p, 1800 + p);
  std::vector<std::vector<double>> ag(p);
  std::vector<double> sc(p, -1.0);
  world.launch([&](Comm& c) -> sim::Task<void> {
    ag[c.rank()] = co_await allgather(c, static_cast<double>(c.rank()));
    sc[c.rank()] = co_await scan(c, 1.0);
  });
  world.run();
  for (int r = 0; r < p; ++r) {
    for (int s = 0; s < p; ++s) EXPECT_EQ(ag[r][s], s);
    EXPECT_EQ(sc[r], r + 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(ProcessCounts, ExtCollectives,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16, 31, 32),
                         [](const auto& tpi) {
                           std::string name = "p";
                           return name += std::to_string(tpi.param);
                         });

TEST(ExtCollectives, ScatterValidation) {
  World world(sim::make_noiseless(8), 4, 1);
  world.launch([&](Comm& c) -> sim::Task<void> {
    if (c.rank() == 0) {
      // Wrong size on root must throw inside the coroutine; World::run
      // surfaces it via std::terminate avoidance -- here we just verify
      // non-root path works with empty vectors.
    }
    std::vector<double> values;
    if (c.rank() == 0) values = {1.0, 2.0, 3.0, 4.0};
    (void)co_await scatter(c, std::move(values), 0);
  });
  EXPECT_NO_THROW(world.run());
}

}  // namespace
}  // namespace sci::simmpi
