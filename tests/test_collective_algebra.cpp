// Algebraic identities between collectives: different algorithms must
// agree on the values they compute, whatever the simulated timing does.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "sim/machine.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"

namespace sci::simmpi {
namespace {

class CollectiveAlgebra : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveAlgebra, ScatterInvertsGather) {
  const int p = GetParam();
  World world(sim::make_daint(), p, 2000 + p);
  std::vector<double> round_tripped(p, -1.0);
  world.launch([&](Comm& c) -> sim::Task<void> {
    const double mine = 3.0 * c.rank() + 1.0;
    auto collected = co_await gather(c, mine, 0);
    // Root redistributes exactly what it gathered.
    round_tripped[c.rank()] = co_await scatter(c, std::move(collected), 0);
  });
  world.run();
  for (int r = 0; r < p; ++r) EXPECT_EQ(round_tripped[r], 3.0 * r + 1.0);
}

TEST_P(CollectiveAlgebra, AllreduceEqualsReduceThenBcast) {
  const int p = GetParam();
  World world(sim::make_daint(), p, 2100 + p);
  std::vector<double> via_allreduce(p), via_reduce_bcast(p);
  world.launch([&](Comm& c) -> sim::Task<void> {
    const double mine = static_cast<double>((c.rank() + 3) * (c.rank() + 3));
    via_allreduce[c.rank()] = co_await allreduce(c, mine);
    const double reduced = co_await reduce(c, mine, 0);
    via_reduce_bcast[c.rank()] = co_await bcast(c, reduced, 0);
  });
  world.run();
  for (int r = 0; r < p; ++r) EXPECT_EQ(via_allreduce[r], via_reduce_bcast[r]);
}

TEST_P(CollectiveAlgebra, ScanLastRankEqualsFullSum) {
  const int p = GetParam();
  World world(sim::make_daint(), p, 2200 + p);
  std::vector<double> prefix(p), total(p);
  world.launch([&](Comm& c) -> sim::Task<void> {
    const double mine = 1.5 * c.rank() + 0.25;
    prefix[c.rank()] = co_await scan(c, mine);
    total[c.rank()] = co_await allreduce(c, mine);
  });
  world.run();
  EXPECT_NEAR(prefix[p - 1], total[0], 1e-12);
  // And the scan is monotone for positive inputs.
  for (int r = 1; r < p; ++r) EXPECT_GT(prefix[r], prefix[r - 1]);
}

TEST_P(CollectiveAlgebra, AllgatherMatchesGatherAtEveryRoot) {
  const int p = GetParam();
  if (p > 16) GTEST_SKIP() << "p roots x gather is quadratic; capped";
  World world(sim::make_daint(), p, 2300 + p);
  std::vector<std::vector<double>> ag(p);
  std::vector<std::vector<double>> g_at_root(p);
  world.launch([&](Comm& c) -> sim::Task<void> {
    const double mine = 7.0 - c.rank();
    ag[c.rank()] = co_await allgather(c, mine);
    for (int root = 0; root < c.size(); ++root) {
      auto got = co_await gather(c, mine, root);
      if (c.rank() == root) g_at_root[root] = std::move(got);
    }
  });
  world.run();
  for (int root = 0; root < p; ++root) {
    EXPECT_EQ(ag[0], g_at_root[root]) << "root " << root;
  }
}

TEST_P(CollectiveAlgebra, AlltoallIsATranspose) {
  const int p = GetParam();
  World world(sim::make_daint(), p, 2400 + p);
  std::vector<std::vector<double>> received(p);
  world.launch([&](Comm& c) -> sim::Task<void> {
    std::vector<double> row;
    for (int dst = 0; dst < c.size(); ++dst) {
      row.push_back(c.rank() * 1000.0 + dst);  // M[src][dst]
    }
    received[c.rank()] = co_await alltoall(c, std::move(row));
  });
  world.run();
  // received[r][s] must equal M[s][r]: the transpose.
  for (int r = 0; r < p; ++r) {
    for (int s = 0; s < p; ++s) {
      EXPECT_EQ(received[r][s], s * 1000.0 + r);
    }
  }
}

TEST_P(CollectiveAlgebra, ReduceMatchesSerialFold) {
  const int p = GetParam();
  World world(sim::make_daint(), p, 2500 + p);
  std::vector<double> values;
  for (int r = 0; r < p; ++r) values.push_back(0.1 * r * r - 3.0);
  std::vector<double> at_root(p, 0.0);
  world.launch([&](Comm& c) -> sim::Task<void> {
    at_root[c.rank()] = co_await reduce(c, values[c.rank()], 0);
  });
  world.run();
  const double expected = std::accumulate(values.begin(), values.end(), 0.0);
  EXPECT_NEAR(at_root[0], expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(ProcessCounts, CollectiveAlgebra,
                         ::testing::Values(2, 3, 5, 8, 13, 16, 32),
                         [](const auto& tpi) {
                           std::string name = "p";
                           return name += std::to_string(tpi.param);
                         });

}  // namespace
}  // namespace sci::simmpi
