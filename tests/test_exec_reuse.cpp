// PR-4 determinism pins: reusable worlds, per-worker backend contexts,
// and pooled coroutine frames must be invisible in the results. Every
// test here compares full double series (or whole CSVs) for exact
// equality -- "close" is a bug.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "exec/runner.hpp"
#include "exec/sim_backend.hpp"
#include "rng/distributions.hpp"
#include "sim/frame_pool.hpp"
#include "sim/machine.hpp"
#include "sim/task.hpp"
#include "simmpi/benchmarks.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"

namespace sci::exec {
namespace {

/// Restores the calling thread's pool flag on scope exit so a failing
/// test cannot poison the suite.
class ScopedPooling {
 public:
  explicit ScopedPooling(bool on) : was_(sim::FramePool::local().enabled()) {
    sim::FramePool::local().set_enabled(on);
  }
  ~ScopedPooling() { sim::FramePool::local().set_enabled(was_); }

 private:
  bool was_;
};

// ------------------------------------------------- World::reset pins

std::vector<double> probe_world(simmpi::World& world) {
  std::vector<double> out;
  world.launch([&out](simmpi::Comm& comm) -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await simmpi::barrier(comm);
      out.push_back(comm.wtime());
      const double noise = rng::uniform01(comm.rng());
      co_await comm.compute(1e-6 * (1.0 + noise));
    }
  });
  world.run();
  return out;
}

TEST(WorldReset, MatchesFreshConstructionSeedForSeed) {
  const sim::Machine machine = sim::make_dora();
  simmpi::World fresh(machine, 6, 42);
  const std::vector<double> reference = probe_world(fresh);
  ASSERT_FALSE(reference.empty());

  simmpi::World reused(machine, 6, 7);  // different seed on purpose
  (void)probe_world(reused);            // dirty every buffer
  reused.reset(42);
  EXPECT_EQ(probe_world(reused), reference);

  // And again: reset is idempotent, not single-shot.
  reused.reset(42);
  EXPECT_EQ(probe_world(reused), reference);
}

TEST(WorldReset, PreservesTheAllocationPolicy) {
  const sim::Machine machine = sim::make_pilatus();
  simmpi::World fresh(machine, 5, 11, sim::AllocationPolicy::kPacked);
  simmpi::World reused(machine, 5, 3, sim::AllocationPolicy::kPacked);
  reused.reset(11);
  EXPECT_EQ(reused.allocation(), fresh.allocation());
}

TEST(WorldReset, ReusableBenchesMatchTheFreeFunctions) {
  const sim::Machine machine = sim::make_dora();

  simmpi::PingPongBench pingpong(machine, 64, 8);
  (void)pingpong.run(32, 1);  // dirty the world
  EXPECT_EQ(pingpong.run(32, 99), simmpi::pingpong_latency(machine, 32, 64, 99, 8));

  simmpi::ReduceBench red(machine, 6);
  (void)red.run(10, 1);
  const simmpi::ReduceBenchResult& reused = red.run(10, 99);
  const simmpi::ReduceBenchResult fresh = simmpi::reduce_bench(machine, 6, 10, 99);
  EXPECT_EQ(reused.times, fresh.times);
  std::vector<double> maxima;
  reused.max_across_ranks_into(maxima);
  EXPECT_EQ(maxima, fresh.max_across_ranks());

  simmpi::PiScalingBench pi(machine, 4, 1e-3, 0.05);
  (void)pi.run(3, 1);
  EXPECT_EQ(pi.run(3, 99), simmpi::pi_scaling_run(machine, 4, 1e-3, 0.05, 3, 99));
}

// ---------------------------------------------- SimBackend + contexts

SimBackendOptions small_options(SimKernel kernel) {
  SimBackendOptions options;
  options.kernel = kernel;
  options.machine = "dora";
  options.samples = 40;
  options.warmup = 4;
  options.iterations = 12;
  options.repetitions = 6;
  options.base_seconds = 1e-3;
  options.ranks = 4;
  return options;
}

TEST(SimBackendReuse, PooledAndUnpooledRunsAreByteIdentical) {
  for (SimKernel kernel :
       {SimKernel::kPingPong, SimKernel::kReduce, SimKernel::kPiScaling}) {
    SimBackend backend(small_options(kernel));
    const Config config;  // no factors: options provide everything
    CellResult pooled, unpooled;
    {
      ScopedPooling on(true);
      pooled = backend.run(config, 1234);
    }
    {
      ScopedPooling off(false);
      unpooled = backend.run(config, 1234);
    }
    EXPECT_EQ(pooled.samples, unpooled.samples) << to_string(kernel);
    EXPECT_FALSE(pooled.samples.empty()) << to_string(kernel);
  }
}

TEST(SimBackendReuse, ContextMatchesStatelessRunAcrossRepeatedCalls) {
  for (SimKernel kernel :
       {SimKernel::kPingPong, SimKernel::kReduce, SimKernel::kPiScaling}) {
    SimBackend backend(small_options(kernel));
    auto context = backend.make_context();
    ASSERT_NE(context, nullptr);
    const Config config;
    // Repeat seeds: call 2 of each exercises the warmed, reset world.
    for (std::uint64_t seed : {7ull, 7ull, 99ull, 7ull}) {
      const CellResult stateless = backend.run(config, seed);
      const CellResult reused = context->run(config, seed);
      EXPECT_EQ(reused.samples, stateless.samples)
          << to_string(kernel) << " seed " << seed;
      EXPECT_EQ(reused.warmup_discarded, stateless.warmup_discarded);
      EXPECT_EQ(reused.unit, stateless.unit);
      EXPECT_EQ(reused.stop_reason, stateless.stop_reason);
    }
  }
}

TEST(SimBackendReuse, ContextHandlesMixedShapes) {
  SimBackendOptions options = small_options(SimKernel::kReduce);
  SimBackend backend(options);
  auto context = backend.make_context();

  CampaignSpec spec;
  spec.name = "shapes";
  spec.factors.push_back({"system", {"dora", "noiseless"}});
  spec.factors.push_back({"processes", {"2", "5"}});
  Campaign campaign(spec);
  // Interleave shapes so the context must switch worlds between calls.
  for (std::size_t pass = 0; pass < 2; ++pass) {
    for (std::size_t c = 0; c < campaign.config_count(); ++c) {
      const Config config = campaign.config(c);
      const std::uint64_t seed = campaign.seed_for(config, pass);
      EXPECT_EQ(context->run(config, seed).samples, backend.run(config, seed).samples)
          << config.to_string();
    }
  }
}

TEST(SimBackendReuse, WarmupDiscardedIsConsistentPerKernel) {
  const Config config;
  {
    SimBackend backend(small_options(SimKernel::kPingPong));
    EXPECT_EQ(backend.run(config, 1).warmup_discarded, 4u);
  }
  // Reduce and pi-scaling report every timed iteration: zero discarded.
  {
    SimBackend backend(small_options(SimKernel::kReduce));
    EXPECT_EQ(backend.run(config, 1).warmup_discarded, 0u);
  }
  {
    SimBackend backend(small_options(SimKernel::kPiScaling));
    EXPECT_EQ(backend.run(config, 1).warmup_discarded, 0u);
  }
}

// ------------------------------------------------ campaign-level pins

std::string samples_csv(const CampaignResult& result) {
  std::ostringstream os;
  result.samples_dataset().write_csv(os);
  return os.str();
}

Campaign pingpong_campaign() {
  CampaignSpec spec;
  spec.name = "reuse-pins";
  spec.factors.push_back({"system", {"dora", "pilatus"}});
  spec.factors.push_back({"message_bytes", {"8", "4096"}});
  spec.replications = 3;
  spec.seed = 2026;
  return Campaign(spec);
}

/// Forwards to a backend but keeps Backend::make_context()'s nullptr
/// default, so the runner calls the stateless run() for every cell.
class ContextlessBackend : public Backend {
 public:
  explicit ContextlessBackend(Backend& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  std::string describe() const override { return inner_.describe(); }
  CellResult run(const Config& config, std::uint64_t seed) override {
    return inner_.run(config, seed);
  }

 private:
  Backend& inner_;
};

TEST(CampaignReuse, CsvBytesEqualAcrossWorkerCountsAndContextModes) {
  SimBackend backend(small_options(SimKernel::kPingPong));

  ContextlessBackend stateless(backend);
  CampaignRunnerOptions baseline_options;
  baseline_options.workers = 1;
  CampaignRunner baseline(stateless, pingpong_campaign(), baseline_options);
  const std::string reference = samples_csv(baseline.run());
  ASSERT_FALSE(reference.empty());

  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    CampaignRunnerOptions options;
    options.workers = workers;
    CampaignRunner runner(backend, pingpong_campaign(), options);
    EXPECT_EQ(samples_csv(runner.run()), reference) << workers << " workers";
  }
}

TEST(CampaignReuse, AllocationAuditSettlesToZeroInSteadyState) {
#if !SCIBENCH_POOLING
  GTEST_SKIP() << "built with SCIBENCH_POOLING=OFF";
#endif
  ScopedPooling on(true);
  SimBackend backend(small_options(SimKernel::kPingPong));

  CampaignSpec spec;
  spec.name = "audit";
  spec.replications = 5;  // single config, five replications
  Campaign campaign(spec);

  CampaignRunnerOptions options;
  options.workers = 1;  // in-thread: replications run in rep order
  CampaignRunner runner(backend, campaign, options);
  const CampaignResult result = runner.run();
  ASSERT_EQ(result.cells.size(), 5u);

  // First replication may warm the pool and the world; from the second
  // replication onward the audit must read zero.
  for (std::size_t rep = 1; rep < result.cells.size(); ++rep) {
    EXPECT_EQ(result.cells[rep].result.coro_frame_heap_allocs, 0u) << "rep " << rep;
    EXPECT_EQ(result.cells[rep].result.callback_heap_spills, 0u) << "rep " << rep;
  }
}

}  // namespace
}  // namespace sci::exec
