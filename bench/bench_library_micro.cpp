// google-benchmark microbenchmarks of the library itself: statistics
// kernels, the discrete-event engine, simulated collectives, and the
// real LU kernel. These characterize the measurement infrastructure's
// own costs -- the library must be cheap enough not to perturb what it
// measures (Section 4.2.1).
#include <benchmark/benchmark.h>

#include <vector>

#include "hpl/lu.hpp"
#include "obs/trace.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "sim/machine.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"
#include "stats/confidence.hpp"
#include "stats/descriptive.hpp"
#include "stats/normality.hpp"

namespace {

std::vector<double> lognormal_series(std::size_t n) {
  sci::rng::Xoshiro256 gen(42);
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(sci::rng::lognormal(gen, 0.0, 1.0));
  return v;
}

void BM_OnlineMoments(benchmark::State& state) {
  const auto data = lognormal_series(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    sci::stats::OnlineMoments om;
    for (double x : data) om.add(x);
    benchmark::DoNotOptimize(om.variance());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OnlineMoments)->Range(1 << 10, 1 << 18);

void BM_MedianCi(benchmark::State& state) {
  const auto data = lognormal_series(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sci::stats::median_confidence_interval(data, 0.95));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MedianCi)->Range(1 << 10, 1 << 18);

void BM_ShapiroWilk(benchmark::State& state) {
  const auto data = lognormal_series(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sci::stats::shapiro_wilk(data));
  }
}
BENCHMARK(BM_ShapiroWilk)->Arg(100)->Arg(1000)->Arg(5000);

void BM_EnginePingPong(benchmark::State& state) {
  // Events per second of the discrete-event substrate.
  const auto machine = sci::sim::make_noiseless(4);
  for (auto _ : state) {
    sci::simmpi::World world(machine, 2, 1);
    constexpr int kIters = 1000;
    world.launch_on(0, [](sci::simmpi::Comm& c) -> sci::sim::Task<void> {
      for (int i = 0; i < kIters; ++i) {
        co_await c.send(1, 0, 64);
        (void)co_await c.recv(1, 1);
      }
    });
    world.launch_on(1, [](sci::simmpi::Comm& c) -> sci::sim::Task<void> {
      for (int i = 0; i < kIters; ++i) {
        (void)co_await c.recv(0, 0);
        co_await c.send(0, 1, 64);
      }
    });
    benchmark::DoNotOptimize(world.run());
  }
  state.SetItemsProcessed(state.iterations() * 2000);  // messages
}
BENCHMARK(BM_EnginePingPong);

void BM_SimulatedAllreduce(benchmark::State& state) {
  const auto machine = sci::sim::make_daint();
  const int ranks = static_cast<int>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    sci::simmpi::World world(machine, ranks, ++seed);
    world.launch([](sci::simmpi::Comm& c) -> sci::sim::Task<void> {
      (void)co_await sci::simmpi::allreduce(c, 1.0);
    });
    benchmark::DoNotOptimize(world.run());
  }
}
BENCHMARK(BM_SimulatedAllreduce)->Arg(8)->Arg(64);

void BM_LuFactorize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sci::hpl::Matrix a(n, n);
    std::vector<double> b;
    sci::hpl::fill_linear_system(a, b, 7);
    state.ResumeTiming();
    benchmark::DoNotOptimize(sci::hpl::lu_factorize(a, 64));
  }
  state.counters["flop/s"] = benchmark::Counter(
      sci::hpl::lu_flop_count(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LuFactorize)->Arg(128)->Arg(256);

void BM_Xoshiro(benchmark::State& state) {
  sci::rng::Xoshiro256 gen(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Xoshiro);

void BM_EmptyLoop(benchmark::State& state) {
  // Same-binary baseline for BM_TraceUnattachedBranch: the loop with
  // only the memory clobber, i.e. an instrumentation site that costs
  // nothing at all.
  for (auto _ : state) {
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EmptyLoop);

void BM_TraceUnattachedBranch(benchmark::State& state) {
  // The unattached cost of an instrumentation site: one thread-local
  // load and a not-taken branch. Its difference to BM_EmptyLoop is the
  // whole cost a site adds when no sink is attached.
  sci::obs::detach();
  for (auto _ : state) {
    SCI_TRACE_COMPLETE(0, "site", "bench", 0.0, 1.0, {{"k", 1}});
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceUnattachedBranch);

void BM_TraceAttachedAppend(benchmark::State& state) {
  // The attached cost: an in-memory vector append per event.
  sci::obs::TraceSink sink;
  sci::obs::ScopedAttach attach(sink);
  for (auto _ : state) {
    SCI_TRACE_COMPLETE(0, "site", "bench", 0.0, 1.0, {{"k", 1}});
    if (sink.size() > (1u << 20)) sink.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceAttachedAppend);

void BM_SimulatedAllreduceTraced(benchmark::State& state) {
  // Same workload as BM_SimulatedAllreduce with a sink attached: the
  // delta is the full tracing overhead of a simulated collective.
  const auto machine = sci::sim::make_daint();
  const int ranks = static_cast<int>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    sci::obs::TraceSink sink;
    sci::obs::ScopedAttach attach(sink);
    sci::simmpi::World world(machine, ranks, ++seed);
    world.launch([](sci::simmpi::Comm& c) -> sci::sim::Task<void> {
      (void)co_await sci::simmpi::allreduce(c, 1.0);
    });
    benchmark::DoNotOptimize(world.run());
    benchmark::DoNotOptimize(sink.size());
  }
}
BENCHMARK(BM_SimulatedAllreduceTraced)->Arg(8)->Arg(64);

}  // namespace
