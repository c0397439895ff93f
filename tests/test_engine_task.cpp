#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace sci::sim {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(engine.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 3.0);
}

TEST(Engine, EqualTimesFireInInsertionOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) engine.schedule_at(1.0, [&, i] { order.push_back(i); });
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&] {
    ++fired;
    engine.schedule_after(1.0, [&] { ++fired; });
  });
  EXPECT_EQ(engine.run(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now(), 2.0);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine engine;
  engine.schedule_at(5.0, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(1.0, [] {}), std::logic_error);
}

TEST(Engine, StopHaltsProcessing) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&] {
    ++fired;
    engine.stop();
  });
  engine.schedule_at(2.0, [&] { ++fired; });
  engine.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.pending(), 1u);
}

TEST(Engine, StoppedEngineRunsAgain) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&] {
    ++fired;
    engine.stop();
  });
  engine.schedule_at(2.0, [&] { ++fired; });
  engine.run();
  ASSERT_EQ(fired, 1);
  // stop() only ends the run it interrupts: the next run() proceeds.
  EXPECT_EQ(engine.run(), 1u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now(), 2.0);
}

TEST(Engine, TracksQueueHighWaterAndDispatchCount) {
  Engine engine;
  for (int i = 0; i < 4; ++i) engine.schedule_at(1.0 + i, [] {});
  EXPECT_EQ(engine.queue_high_water(), 4u);
  engine.run();
  EXPECT_EQ(engine.events_dispatched(), 4u);
  EXPECT_EQ(engine.queue_high_water(), 4u);
}

Task<void> delayed_increment(Engine& engine, int& counter, double delay) {
  co_await Delay{engine, delay};
  ++counter;
}

TEST(Task, DelayAwaitableAdvancesTime) {
  Engine engine;
  int counter = 0;
  auto task = delayed_increment(engine, counter, 2.5);
  task.start();
  EXPECT_EQ(counter, 0);
  engine.run();
  EXPECT_EQ(counter, 1);
  EXPECT_EQ(engine.now(), 2.5);
  EXPECT_TRUE(task.done());
}

Task<int> answer(Engine& engine) {
  co_await Delay{engine, 1.0};
  co_return 42;
}

Task<void> outer(Engine& engine, int& result) {
  result = co_await answer(engine);
  co_await Delay{engine, 1.0};
  result += 1;
}

TEST(Task, NestedTasksReturnValues) {
  Engine engine;
  int result = 0;
  auto task = outer(engine, result);
  task.start();
  engine.run();
  EXPECT_EQ(result, 43);
  EXPECT_EQ(engine.now(), 2.0);
}

Task<void> wait_until(Engine& engine, double when, std::vector<double>& log) {
  co_await Until{engine, when};
  log.push_back(engine.now());
}

TEST(Task, UntilAwaitable) {
  Engine engine;
  std::vector<double> log;
  auto t1 = wait_until(engine, 5.0, log);
  auto t2 = wait_until(engine, 3.0, log);
  t1.start();
  t2.start();
  engine.run();
  EXPECT_EQ(log, (std::vector<double>{3.0, 5.0}));
}

TEST(Task, UntilInPastResumesImmediately) {
  Engine engine;
  engine.schedule_at(10.0, [] {});
  engine.run();
  std::vector<double> log;
  auto t = wait_until(engine, 5.0, log);  // already past
  t.start();
  engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 10.0);
}

Task<int> chain(Engine& engine, int depth) {
  if (depth == 0) {
    co_await Delay{engine, 0.1};
    co_return 0;
  }
  const int below = co_await chain(engine, depth - 1);
  co_return below + 1;
}

TEST(Task, DeepNestingViaSymmetricTransfer) {
  Engine engine;
  int result = -1;
  auto driver = [](Engine& eng, int& out) -> Task<void> {
    out = co_await chain(eng, 50);
  }(engine, result);
  driver.start();
  engine.run();
  EXPECT_EQ(result, 50);
}

TEST(Task, MoveSemantics) {
  Engine engine;
  int counter = 0;
  auto task = delayed_increment(engine, counter, 1.0);
  Task<void> moved = std::move(task);
  moved.start();
  engine.run();
  EXPECT_EQ(counter, 1);
}

}  // namespace
}  // namespace sci::sim
