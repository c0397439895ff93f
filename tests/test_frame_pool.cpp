// FramePool unit tests plus the arena stress test: the PR-4 contract is
// that a warmed-up replication loop never enters the memory allocator,
// and these tests make that a failing assertion instead of a hope.
//
// This file gets its own test binary: it links the counting global
// operator new (counting_new.hpp), which must not leak into other
// suites. gtest itself allocates freely, so tests only compare deltas
// taken immediately around the code under audit.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "counting_new.hpp"
#include "sim/frame_pool.hpp"
#include "sim/machine.hpp"
#include "sim/task.hpp"
#include "simmpi/benchmarks.hpp"
#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"

namespace {

using sci::sim::FramePool;

TEST(FramePool, SecondAllocationOfASizeClassComesFromTheFreeList) {
  FramePool& pool = FramePool::local();
  pool.set_enabled(true);

  void* a = pool.allocate(200);
  const std::uint64_t heap_after_first = pool.heap_allocs();
  pool.deallocate(a);
  ASSERT_GE(pool.cached_blocks(), 1u);

  const std::uint64_t hits_before = pool.pool_hits();
  void* b = pool.allocate(200);  // same 64-byte class
  EXPECT_EQ(pool.heap_allocs(), heap_after_first);
  EXPECT_EQ(pool.pool_hits(), hits_before + 1);
  EXPECT_EQ(b, a);  // LIFO free list hands the block straight back
  pool.deallocate(b);
}

TEST(FramePool, DistinctSizeClassesDoNotShareBlocks) {
  FramePool& pool = FramePool::local();
  pool.set_enabled(true);

  void* small = pool.allocate(40);
  pool.deallocate(small);
  const std::uint64_t heap_before = pool.heap_allocs();
  void* large = pool.allocate(1000);  // different bucket: must refill
  EXPECT_EQ(pool.heap_allocs(), heap_before + 1);
  EXPECT_NE(large, small);
  pool.deallocate(large);
}

TEST(FramePool, OversizedFramesBypassTheBucketsAndAreTallied) {
  FramePool& pool = FramePool::local();
  pool.set_enabled(true);

  const std::size_t cached_before = pool.cached_blocks();
  const std::uint64_t heap_before = pool.heap_allocs();
  void* big = pool.allocate(FramePool::kMaxPooledBytes + 1);
  EXPECT_EQ(pool.heap_allocs(), heap_before + 1);
  pool.deallocate(big);
  // Straight back to the heap: nothing cached.
  EXPECT_EQ(pool.cached_blocks(), cached_before);

  const std::uint64_t heap_after = pool.heap_allocs();
  void* again = pool.allocate(FramePool::kMaxPooledBytes + 1);
  EXPECT_EQ(pool.heap_allocs(), heap_after + 1);  // no reuse for oversize
  pool.deallocate(again);
}

TEST(FramePool, DisabledPoolRoutesEverythingThroughTheHeap) {
  FramePool& pool = FramePool::local();
  pool.set_enabled(true);
  // Warm the bucket, then disable: the cached block must NOT be used.
  pool.deallocate(pool.allocate(100));

  pool.set_enabled(false);
  const std::size_t cached_before = pool.cached_blocks();
  const std::uint64_t heap_before = pool.heap_allocs();
  void* p = pool.allocate(100);
  EXPECT_EQ(pool.heap_allocs(), heap_before + 1);
  pool.deallocate(p);
  EXPECT_EQ(pool.cached_blocks(), cached_before);  // not cached either

  pool.set_enabled(true);
  pool.trim();
}

TEST(FramePool, BlocksSurviveAnEnableFlipBetweenAllocateAndFree) {
  FramePool& pool = FramePool::local();

  // Allocated while disabled, freed while enabled: the header says
  // "heap", so the free must bypass the free list.
  pool.set_enabled(false);
  void* heap_block = pool.allocate(100);
  pool.set_enabled(true);
  const std::size_t cached = pool.cached_blocks();
  pool.deallocate(heap_block);
  EXPECT_EQ(pool.cached_blocks(), cached);

  // Allocated while enabled, freed while disabled: the header says
  // "pooled", so the block is cached for later reuse.
  void* pooled_block = pool.allocate(100);
  pool.set_enabled(false);
  pool.deallocate(pooled_block);
  EXPECT_EQ(pool.cached_blocks(), cached + 1);
  pool.set_enabled(true);
  pool.trim();
}

TEST(FramePool, TrimReturnsEveryCachedBlock) {
  FramePool& pool = FramePool::local();
  pool.set_enabled(true);
  std::vector<void*> blocks;
  for (int i = 0; i < 8; ++i) blocks.push_back(pool.allocate(64 * (i + 1)));
  for (void* p : blocks) pool.deallocate(p);
  ASSERT_GE(pool.cached_blocks(), 8u);
  pool.trim();
  EXPECT_EQ(pool.cached_blocks(), 0u);
}

TEST(FramePool, CoroutineFramesRouteThroughThePool) {
#if !SCIBENCH_POOLING
  GTEST_SKIP() << "built with SCIBENCH_POOLING=OFF";
#endif
  FramePool& pool = FramePool::local();
  pool.set_enabled(true);

  auto make_task = []() -> sci::sim::Task<void> { co_return; };
  {
    auto warm = make_task();  // first frame of this size: one refill
    warm.start();
  }
  const std::uint64_t heap_before = pool.heap_allocs();
  const std::uint64_t hits_before = pool.pool_hits();
  {
    auto task = make_task();
    task.start();
    EXPECT_TRUE(task.done());
  }
  EXPECT_EQ(pool.heap_allocs(), heap_before);
  EXPECT_GT(pool.pool_hits(), hits_before);
}

// -- arena stress: churn worlds of alternating rank counts ------------
//
// The tentpole acceptance criterion: from the second replication of a
// shape onward, a payload-free replication (reset + launch + run) makes
// ZERO calls into the memory allocator. Alternating between two rank
// counts makes the pool juggle two working sets at once.

sci::sim::Task<void> barrier_program(sci::simmpi::Comm& comm) {
  for (int i = 0; i < 4; ++i) co_await sci::simmpi::barrier(comm);
}

std::uint64_t replication_allocs(sci::simmpi::World& world, std::uint64_t seed) {
  const std::uint64_t before = sci::testing::allocation_count();
  world.reset(seed);
  world.launch(barrier_program);
  world.run();
  return sci::testing::allocation_count() - before;
}

TEST(FramePoolStress, AlternatingWorldShapesRunAllocationFreeAfterWarmup) {
#if !SCIBENCH_POOLING
  GTEST_SKIP() << "built with SCIBENCH_POOLING=OFF";
#endif
  sci::sim::FramePool::local().set_enabled(true);
  const sci::sim::Machine machine = sci::sim::make_noiseless(16);
  sci::simmpi::World small(machine, 4, 1);
  sci::simmpi::World large(machine, 9, 1);  // odd count: uneven trees

  // Warmup: let every buffer and free list reach its high-water mark.
  for (std::uint64_t rep = 0; rep < 3; ++rep) {
    (void)replication_allocs(small, 100 + rep);
    (void)replication_allocs(large, 200 + rep);
  }

  // Steady state: the allocator is never entered again.
  for (std::uint64_t rep = 0; rep < 8; ++rep) {
    EXPECT_EQ(replication_allocs(small, 300 + rep), 0u)
        << "small world, rep " << rep;
    EXPECT_EQ(replication_allocs(large, 400 + rep), 0u)
        << "large world, rep " << rep;
  }
}

TEST(FramePoolStress, PingPongBenchIsAllocationFreeAfterWarmup) {
#if !SCIBENCH_POOLING
  GTEST_SKIP() << "built with SCIBENCH_POOLING=OFF";
#endif
  sci::sim::FramePool::local().set_enabled(true);
  sci::simmpi::PingPongBench bench(sci::sim::make_noiseless(4), 64, 4);
  for (std::uint64_t rep = 0; rep < 2; ++rep) (void)bench.run(64, rep);  // warmup

  for (std::uint64_t rep = 2; rep < 6; ++rep) {
    const std::uint64_t before = sci::testing::allocation_count();
    const std::vector<double>& samples = bench.run(64, rep);
    const std::uint64_t allocs = sci::testing::allocation_count() - before;
    EXPECT_EQ(allocs, 0u) << "rep " << rep;
    EXPECT_EQ(samples.size(), 64u);
  }
}

}  // namespace
