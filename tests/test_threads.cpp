#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <iterator>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "stats/descriptive.hpp"
#include "threads/barrier.hpp"
#include "threads/measure.hpp"
#include "threads/team.hpp"

namespace sci::threads {
namespace {

TEST(SpinBarrier, SinglePartyNeverBlocks) {
  SpinBarrier barrier(1);
  for (int i = 0; i < 100; ++i) barrier.arrive_and_wait();
  EXPECT_EQ(barrier.parties(), 1u);
}

TEST(SpinBarrier, NoThreadPassesEarly) {
  // Each round, every thread increments a counter before the barrier;
  // after the barrier the counter must equal parties * round.
  constexpr std::size_t kParties = 4;
  constexpr int kRounds = 200;
  SpinBarrier barrier(kParties);
  std::atomic<int> counter{0};
  std::atomic<int> violations{0};

  ThreadTeam team(kParties);
  team.run([&](std::size_t) {
    for (int round = 1; round <= kRounds; ++round) {
      counter.fetch_add(1);
      barrier.arrive_and_wait();
      if (counter.load() < round * static_cast<int>(kParties)) violations.fetch_add(1);
      barrier.arrive_and_wait();  // keep rounds separated
    }
  });
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(counter.load(), kRounds * static_cast<int>(kParties));
}

TEST(ThreadTeam, RunsRegionOnEveryWorker) {
  ThreadTeam team(3);
  std::vector<std::atomic<int>> hits(3);
  team.run([&](std::size_t id) { hits[id].fetch_add(1); });
  team.run([&](std::size_t id) { hits[id].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 2);
}

TEST(ThreadTeam, PropagatesExceptions) {
  ThreadTeam team(2);
  EXPECT_THROW(
      team.run([](std::size_t id) {
        if (id == 1) throw std::runtime_error("worker failure");
      }),
      std::runtime_error);
  // The team survives and runs the next region.
  std::atomic<int> ok{0};
  team.run([&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 2);
}

TEST(ThreadTeam, ConcurrentCallerWaitsForActiveRegion) {
  // Region A is held open by a latch while thread B calls run() on the
  // same team. B must wait for A to join and then run its own region,
  // not fail because a region is active.
  ThreadTeam team(2);
  std::latch a_entered(3);  // both workers of A, plus thread B
  std::promise<void> b_returned;
  const std::shared_future<void> b_done = b_returned.get_future().share();
  std::atomic<int> a_exits{0};
  std::atomic<int> b_hits{0};
  std::atomic<bool> b_overlapped{false};
  std::string b_error;

  std::thread a([&] {
    team.run([&](std::size_t) {
      a_entered.arrive_and_wait();
      // Held until B's run() returns -- which it must not do while A is
      // active -- or long enough for B to be waiting on A.
      const std::shared_future<void> done = b_done;  // one copy per thread
      (void)done.wait_for(std::chrono::milliseconds(100));
      a_exits.fetch_add(1);
    });
  });
  std::thread b([&] {
    a_entered.arrive_and_wait();
    try {
      team.run([&](std::size_t) {
        if (a_exits.load() != 2) b_overlapped = true;
        b_hits.fetch_add(1);
      });
    } catch (const std::exception& e) {
      b_error = e.what();
    }
    b_returned.set_value();
  });
  a.join();
  b.join();
  EXPECT_EQ(b_error, "");
  EXPECT_EQ(b_hits.load(), 2);
  EXPECT_FALSE(b_overlapped.load());
}

TEST(ThreadTeam, NestedCallFromOwnWorkerThrows) {
  // Waiting there would deadlock: the caller is part of the region.
  ThreadTeam team(2);
  EXPECT_THROW(team.run([&](std::size_t) { team.run([](std::size_t) {}); }),
               std::logic_error);
  std::atomic<int> ok{0};
  team.run([&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 2);
}

TEST(ThreadTeam, RegionZeroRunsOnTheCaller) {
  ThreadTeam team(3);
  EXPECT_EQ(team.size(), 3u);
  std::vector<std::thread::id> ran_on(3);
  for (int round = 0; round < 2; ++round) {
    team.run([&](std::size_t id) { ran_on[id] = std::this_thread::get_id(); });
    EXPECT_EQ(ran_on[0], std::this_thread::get_id());
    EXPECT_NE(ran_on[1], std::this_thread::get_id());
    EXPECT_NE(ran_on[2], std::this_thread::get_id());
    EXPECT_NE(ran_on[1], ran_on[2]);
  }
}

/// Threads of this process, or 0 where the OS does not list them.
std::size_t process_threads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return 0;
  return static_cast<std::size_t>(std::distance(it, std::filesystem::directory_iterator{}));
}

TEST(ThreadTeam, TeamOfOneStartsNoThreadAndTakesNoLock) {
  const std::size_t before = process_threads();
  if (before == 0) GTEST_SKIP() << "no per-process thread listing";
  ThreadTeam team(1);
  EXPECT_EQ(team.size(), 1u);
  EXPECT_EQ(process_threads(), before);
  std::thread::id ran_on;
  team.run([&](std::size_t id) {
    EXPECT_EQ(id, 0u);
    ran_on = std::this_thread::get_id();
    team.run([](std::size_t) {});  // re-entry is just a call
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());

  // Two callers are inside the region at once: each waits (bounded) for
  // the other, which a team that serialized its callers would never let
  // happen.
  std::atomic<int> inside{0};
  std::atomic<int> met{0};
  auto caller = [&] {
    team.run([&](std::size_t) {
      inside.fetch_add(1);
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (inside.load() < 2 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (inside.load() == 2) met.fetch_add(1);
    });
  };
  std::thread other(caller);
  caller();
  other.join();
  EXPECT_EQ(met.load(), 2);
}

TEST(ThreadTeam, NestedCallFromTheCallerThrows) {
  ThreadTeam team(2);
  EXPECT_THROW(team.run([&](std::size_t id) {
                 if (id == 0) team.run([](std::size_t) {});
               }),
               std::logic_error);
  // Each worker of `outer` -- the caller and the spawned one -- takes a
  // turn as worker 0 of `inner`; inside inner's region it is still
  // inside outer's.
  ThreadTeam outer(2);
  ThreadTeam inner(2);
  std::atomic<int> threw{0};
  outer.run([&](std::size_t) {
    inner.run([&](std::size_t inner_id) {
      if (inner_id != 0) return;
      try {
        outer.run([](std::size_t) {});
      } catch (const std::logic_error&) {
        threw.fetch_add(1);
      }
    });
  });
  EXPECT_EQ(threw.load(), 2);
  std::atomic<int> ok{0};
  team.run([&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 2);
}

TEST(ThreadTeam, CallerExceptionWaitsForTheOtherWorkers) {
  ThreadTeam team(3);
  std::atomic<int> returned{0};
  EXPECT_THROW(team.run([&](std::size_t id) {
                 if (id == 0) throw std::runtime_error("caller failure");
                 std::this_thread::sleep_for(std::chrono::milliseconds(50));
                 returned.fetch_add(1);
               }),
               std::runtime_error);
  EXPECT_EQ(returned.load(), 2);
}

TEST(ThreadTeam, Validation) { EXPECT_THROW(ThreadTeam(0), std::invalid_argument); }

TEST(MeasureThreaded, ShapesAndPositiveTimes) {
  std::atomic<std::uint64_t> work{0};
  ThreadedMeasurementOptions opts;
  opts.threads = 2;
  opts.iterations = 20;
  opts.warmup = 2;
  const auto m = measure_threaded(
      [&](std::size_t) {
        for (int i = 0; i < 2000; ++i) work.fetch_add(1, std::memory_order_relaxed);
      },
      opts);
  ASSERT_EQ(m.times_ns.size(), 20u);
  ASSERT_EQ(m.times_ns[0].size(), 2u);
  for (const auto& row : m.times_ns) {
    for (double t : row) EXPECT_GT(t, 0.0);
  }
  EXPECT_EQ(m.thread_series(1).size(), 20u);
  const auto mx = m.max_across_threads();
  for (std::size_t i = 0; i < mx.size(); ++i) {
    EXPECT_GE(mx[i], m.times_ns[i][0]);
    EXPECT_GE(mx[i], m.times_ns[i][1]);
  }
  // Warmup executed: total kernel invocations = threads * (iters+warmup).
  EXPECT_EQ(work.load(), 2000u * 2u * 22u);
}

TEST(MeasureThreaded, StartSkewRecorded) {
  ThreadedMeasurementOptions opts;
  opts.threads = 2;
  opts.iterations = 10;
  opts.window_s = 2e-3;  // generous window for an oversubscribed box
  const auto m = measure_threaded([](std::size_t) {}, opts);
  ASSERT_EQ(m.start_skew_ns.size(), 10u);
  for (double skew : m.start_skew_ns) EXPECT_GE(skew, 0.0);
  // With a shared clock the window scheme should usually start threads
  // within the window itself.
  EXPECT_LT(stats::median(m.start_skew_ns), 2e6 * 5);
}

TEST(MeasureThreaded, Validation) {
  EXPECT_THROW(measure_threaded(nullptr), std::invalid_argument);
  ThreadedMeasurementOptions opts;
  opts.threads = 0;
  EXPECT_THROW(measure_threaded([](std::size_t) {}, opts), std::invalid_argument);
}

}  // namespace
}  // namespace sci::threads
