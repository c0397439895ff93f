#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/machine.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"

namespace sci::simmpi {
namespace {

class CollectiveRanks : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveRanks, ReduceSumsToRoot) {
  const int p = GetParam();
  World world(sim::make_noiseless(64), p, 100 + p);
  std::vector<double> results(p, -1.0);
  world.launch([&](Comm& c) -> sim::Task<void> {
    results[c.rank()] =
        co_await reduce(c, static_cast<double>(c.rank() + 1), /*root=*/0);
  });
  world.run();
  EXPECT_EQ(results[0], p * (p + 1) / 2.0);
}

TEST_P(CollectiveRanks, ReduceToNonZeroRoot) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP();
  const int root = p - 1;
  World world(sim::make_noiseless(64), p, 200 + p);
  std::vector<double> results(p, -1.0);
  world.launch([&](Comm& c) -> sim::Task<void> {
    results[c.rank()] = co_await reduce(c, 2.0, root);
  });
  world.run();
  EXPECT_EQ(results[root], 2.0 * p);
}

TEST_P(CollectiveRanks, ReduceMinMaxOps) {
  const int p = GetParam();
  World world(sim::make_noiseless(64), p, 300 + p);
  std::vector<double> mins(p), maxs(p);
  world.launch([&](Comm& c) -> sim::Task<void> {
    mins[c.rank()] =
        co_await reduce(c, static_cast<double>(c.rank()), 0, ReduceOp::kMin);
    maxs[c.rank()] =
        co_await reduce(c, static_cast<double>(c.rank()), 0, ReduceOp::kMax);
  });
  world.run();
  EXPECT_EQ(mins[0], 0.0);
  EXPECT_EQ(maxs[0], static_cast<double>(p - 1));
}

TEST_P(CollectiveRanks, BcastReachesEveryRank) {
  const int p = GetParam();
  World world(sim::make_noiseless(64), p, 400 + p);
  std::vector<double> results(p, -1.0);
  world.launch([&](Comm& c) -> sim::Task<void> {
    const double mine = (c.rank() == 0) ? 123.0 : -7.0;
    results[c.rank()] = co_await bcast(c, mine, 0);
  });
  world.run();
  for (double v : results) EXPECT_EQ(v, 123.0);
}

TEST_P(CollectiveRanks, BcastFromNonZeroRoot) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP();
  const int root = p / 2;
  World world(sim::make_noiseless(64), p, 500 + p);
  std::vector<double> results(p, -1.0);
  world.launch([&](Comm& c) -> sim::Task<void> {
    const double mine = (c.rank() == root) ? 77.0 : 0.0;
    results[c.rank()] = co_await bcast(c, mine, root);
  });
  world.run();
  for (double v : results) EXPECT_EQ(v, 77.0);
}

TEST_P(CollectiveRanks, AllreduceGivesSumEverywhere) {
  const int p = GetParam();
  World world(sim::make_noiseless(64), p, 600 + p);
  std::vector<double> results(p, -1.0);
  world.launch([&](Comm& c) -> sim::Task<void> {
    results[c.rank()] = co_await allreduce(c, static_cast<double>(c.rank() + 1));
  });
  world.run();
  for (double v : results) EXPECT_EQ(v, p * (p + 1) / 2.0);
}

TEST_P(CollectiveRanks, CollectivesCorrectUnderNoise) {
  // Noise reorders event timing but must never corrupt values.
  const int p = GetParam();
  World world(sim::make_pilatus(), p, 700 + p);
  std::vector<double> results(p, -1.0);
  world.launch([&](Comm& c) -> sim::Task<void> {
    results[c.rank()] = co_await allreduce(c, static_cast<double>(c.rank() + 1));
  });
  world.run();
  for (double v : results) EXPECT_EQ(v, p * (p + 1) / 2.0);
}

TEST_P(CollectiveRanks, BarrierSeparatesPhases) {
  // No rank may leave the barrier before every rank entered it.
  const int p = GetParam();
  if (p < 2) GTEST_SKIP();
  World world(sim::make_noiseless(64), p, 800 + p);
  std::vector<double> enter(p, 0.0), leave(p, 0.0);
  world.launch([&](Comm& c) -> sim::Task<void> {
    // Stagger entries: rank r computes r * 1 ms first.
    co_await c.compute(1e-3 * (c.rank() + 1));
    enter[c.rank()] = c.world().engine().now();
    co_await barrier(c);
    leave[c.rank()] = c.world().engine().now();
  });
  world.run();
  const double last_enter = *std::max_element(enter.begin(), enter.end());
  for (int r = 0; r < p; ++r) EXPECT_GE(leave[r], last_enter);
}

INSTANTIATE_TEST_SUITE_P(ProcessCounts, CollectiveRanks,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 27, 32, 33, 64),
                         [](const auto& tpi) {
                           std::string name = "p";
                           return name += std::to_string(tpi.param);
                         });

TEST(WindowSync, RanksLeaveNearlySimultaneously) {
  // The sync should compress the (up to ~100 us) clock offsets down to
  // the offset-estimation error, which is bounded by RTT variation.
  World world(sim::make_dora(), 8, 1);
  std::vector<double> leave(8, 0.0);
  world.launch([&](Comm& c) -> sim::Task<void> {
    co_await window_sync(c, /*window_s=*/500e-6);
    leave[c.rank()] = c.world().engine().now();
  });
  world.run();
  const auto [lo, hi] = std::minmax_element(leave.begin(), leave.end());
  EXPECT_LT(*hi - *lo, 5e-6);  // few-microsecond skew, not ~100 us offsets
}

TEST(WindowSync, SingleRankIsNoop) {
  World world(sim::make_noiseless(4), 1, 2);
  world.launch([](Comm& c) -> sim::Task<void> { co_await window_sync(c, 1e-4); });
  EXPECT_NO_THROW(world.run());
}

TEST(WindowSync, RepeatedSyncsStaySynchronized) {
  World world(sim::make_dora(), 4, 3);
  std::vector<std::vector<double>> leave(5, std::vector<double>(4, 0.0));
  world.launch([&](Comm& c) -> sim::Task<void> {
    for (int iter = 0; iter < 5; ++iter) {
      co_await window_sync(c, 300e-6);
      leave[iter][c.rank()] = c.world().engine().now();
    }
  });
  world.run();
  for (const auto& row : leave) {
    const auto [lo, hi] = std::minmax_element(row.begin(), row.end());
    EXPECT_LT(*hi - *lo, 5e-6);
  }
}

TEST(ReduceOpApply, Semantics) {
  EXPECT_EQ(apply(ReduceOp::kSum, 2.0, 3.0), 5.0);
  EXPECT_EQ(apply(ReduceOp::kMin, 2.0, 3.0), 2.0);
  EXPECT_EQ(apply(ReduceOp::kMax, 2.0, 3.0), 3.0);
}

}  // namespace
}  // namespace sci::simmpi
