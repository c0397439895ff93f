#include <gtest/gtest.h>

#include "hpl/sim_hpl.hpp"
#include "sim/machine.hpp"
#include "simmpi/comm.hpp"

namespace sci::simmpi {
namespace {

/// A small HPL run: 4 nodes on a 2 x 2 grid.
hpl::SimHplConfig small_hpl(std::size_t n = 4096) {
  hpl::SimHplConfig config;
  config.n = n;
  config.block = 256;
  config.nodes = 4;
  config.grid_p = 2;
  config.grid_q = 2;
  return config;
}

TEST(Energy, IdleOnlyJobMatchesClosedForm) {
  // With no compute draw, every node idles for the makespan.
  auto machine = sim::make_daint();
  machine.power = {.idle_w = 100.0, .compute_w = 0.0};
  const auto run = hpl::simulate_hpl_run(machine, small_hpl(), 5);
  EXPECT_NEAR(run.energy_j, 100.0 * run.completion_s * 4.0, 1e-9 * run.energy_j);
}

TEST(Energy, MoreWorkCostsMoreEnergy) {
  const auto machine = sim::make_daint();
  EXPECT_GT(hpl::simulate_hpl_run(machine, small_hpl(8192), 5).energy_j,
            hpl::simulate_hpl_run(machine, small_hpl(2048), 5).energy_j);
}

TEST(Energy, BusySecondsTracksComputes) {
  World world(sim::make_noiseless(4), 1, 4);
  world.launch([](Comm& c) -> sim::Task<void> {
    co_await c.compute(0.25);
    co_await c.compute(0.5);
  });
  world.run();
  EXPECT_NEAR(world.comm(0).busy_seconds(), 0.75, 1e-12);
}

TEST(Energy, SimulatedHplInPlausibleRange) {
  // 64 nodes at ~350 W for ~300 s: order 6-8 MJ, ~2.5-3.5 Gflop/J --
  // the K20X era's flop/W ballpark.
  const auto run = hpl::simulate_hpl_run(sim::make_daint(), hpl::SimHplConfig{}, 5);
  EXPECT_GT(run.energy_j, 4e6);
  EXPECT_LT(run.energy_j, 1e7);
  EXPECT_GT(run.gflops_per_watt(), 1.5);
  EXPECT_LT(run.gflops_per_watt(), 5.0);
}

TEST(Energy, DeterministicForSeed) {
  const auto machine = sim::make_daint();
  EXPECT_EQ(hpl::simulate_hpl_run(machine, small_hpl(), 5).energy_j,
            hpl::simulate_hpl_run(machine, small_hpl(), 5).energy_j);
}

}  // namespace
}  // namespace sci::simmpi
