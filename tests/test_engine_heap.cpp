// Hot-path contracts of the rewritten engine: the 4-ary arena heap must
// preserve the old priority_queue's exact dispatch order (time, then
// insertion sequence -- the byte-determinism anchor), and the
// InlineCallback + event arena must keep the steady-state loop free of
// per-event allocations, checked through the obs counter rather than
// assumed.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "sim/callback.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "simmpi/comm.hpp"

namespace sci::sim {
namespace {

// ---------------------------------------------------------------------------
// InlineCallback unit tests
// ---------------------------------------------------------------------------

TEST(InlineCallback, SimulatorCaptureShapesStayInline) {
  // The shapes the simulator schedules (see simmpi/comm.cpp): coroutine
  // resumes, request completions (a shared_ptr to the request state),
  // and the message delivery World::post_send schedules -- a World
  // pointer and the Message itself, the largest of them.
  struct FakeHandle {
    void* p;
  };
  FakeHandle h{nullptr};
  auto resume = [h] { (void)h; };
  static_assert(InlineCallback::stores_inline<decltype(resume)>());

  auto state = std::make_shared<int>(0);
  auto complete = [state = std::move(state)] { (void)state; };
  static_assert(InlineCallback::stores_inline<decltype(complete)>());

  simmpi::World* w = nullptr;
  auto deliver = [w, m = simmpi::Message{}]() mutable { (void)w, (void)m; };
  static_assert(InlineCallback::stores_inline<decltype(deliver)>());
  static_assert(sizeof(deliver) >= sizeof(resume) && sizeof(deliver) >= sizeof(complete));
  static_assert(sizeof(deliver) == sizeof(simmpi::World*) + sizeof(simmpi::Message));
}

TEST(InlineCallback, InvokesAndMoves) {
  int calls = 0;
  InlineCallback cb([&calls] { ++calls; });
  ASSERT_TRUE(static_cast<bool>(cb));
  cb();
  EXPECT_EQ(calls, 1);

  InlineCallback moved(std::move(cb));
  EXPECT_FALSE(static_cast<bool>(cb));  // NOLINT(bugprone-use-after-move): tested on purpose
  moved();
  EXPECT_EQ(calls, 2);

  InlineCallback assigned;
  assigned = std::move(moved);
  assigned();
  EXPECT_EQ(calls, 3);
}

TEST(InlineCallback, AcceptsMoveOnlyCallables) {
  // std::function would reject this outright (it requires copyability).
  auto flag = std::make_unique<bool>(false);
  InlineCallback cb([f = std::move(flag)] { *f = true; });
  cb();
}

TEST(InlineCallback, DestroysCaptureExactlyOnce) {
  auto counter = std::make_shared<int>(0);
  {
    InlineCallback cb([counter] {});
    EXPECT_EQ(counter.use_count(), 2);
    InlineCallback moved(std::move(cb));
    EXPECT_EQ(counter.use_count(), 2);  // relocation, not copy
    moved.reset();
    EXPECT_EQ(counter.use_count(), 1);
  }
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(InlineCallback, OversizeCaptureFallsBackToHeapAndIsCounted) {
  struct Big {
    double payload[32];  // 256 bytes, well past kInlineBytes
  };
  static_assert(!InlineCallback::stores_inline<decltype([b = Big{}] { (void)b; })>());
  obs::Counter& heap_allocs = obs::counter(obs::keys::kEngineCallbackHeapAllocs);
  const std::uint64_t before = heap_allocs.value();
  Big big{};
  big.payload[7] = 42.0;
  double seen = 0.0;
  InlineCallback cb([big, &seen] { seen = big.payload[7]; });
  EXPECT_EQ(heap_allocs.value(), before + 1);
  InlineCallback moved(std::move(cb));  // moving the heap slot must not re-allocate
  moved();
  EXPECT_EQ(seen, 42.0);
  EXPECT_EQ(heap_allocs.value(), before + 1);
}

// ---------------------------------------------------------------------------
// Dispatch-order property + differential tests
// ---------------------------------------------------------------------------

/// Reference model: the pre-arena implementation, verbatim semantics --
/// std::priority_queue over (time, seq) with a strict tiebreaker.
class ReferenceEngine {
 public:
  void schedule_at(double time, std::function<void()> fn) {
    queue_.push(Event{time, next_seq_++, std::move(fn)});
  }
  void run() {
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = ev.time;
      ev.fn();
    }
  }
  [[nodiscard]] double now() const noexcept { return now_; }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

/// A randomized schedule plan: top-level events plus events spawned
/// from inside callbacks, replayable on any executor.
struct SchedulePlan {
  struct Spawn {
    double delay;  // relative to the parent's fire time
    int id;
  };
  struct Item {
    double time;
    int id;
    std::vector<Spawn> children;
  };
  std::vector<Item> items;
};

SchedulePlan random_plan(std::uint64_t seed, std::size_t n_events) {
  // Coarse time grid => massive tie pressure; ~1/4 of events spawn
  // children, some at zero delay (fires at the parent's own timestamp).
  rng::Xoshiro256 gen(seed);
  SchedulePlan plan;
  int next_id = 0;
  for (std::size_t i = 0; i < n_events; ++i) {
    SchedulePlan::Item item;
    item.time = static_cast<double>(rng::uniform_below(gen, 8));
    item.id = next_id++;
    const auto n_children = static_cast<std::size_t>(rng::uniform_below(gen, 4));
    if (n_children > 2) {
      for (std::size_t c = 0; c + 2 < n_children; ++c) {
        SchedulePlan::Spawn s;
        s.delay = static_cast<double>(rng::uniform_below(gen, 3));
        s.id = next_id++;
        item.children.push_back(s);
      }
    }
    plan.items.push_back(std::move(item));
  }
  return plan;
}

template <typename EngineT>
std::vector<int> dispatch_sequence(const SchedulePlan& plan, EngineT& engine) {
  std::vector<int> order;
  for (const auto& item : plan.items) {
    engine.schedule_at(item.time, [&engine, &order, &item] {
      order.push_back(item.id);
      for (const auto& child : item.children) {
        engine.schedule_at(engine.now() + child.delay, [&order, &child] {
          order.push_back(child.id);
        });
      }
    });
  }
  engine.run();
  return order;
}

TEST(EngineHeap, EqualTimeEventsFireInInsertionOrder) {
  // All events at one timestamp, including ones scheduled from inside a
  // callback at the same (current) time: strict FIFO within the tie.
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    engine.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  engine.schedule_at(1.0, [&engine, &order] {
    order.push_back(50);
    for (int i = 51; i < 60; ++i) {
      engine.schedule_at(1.0, [&order, i] { order.push_back(i); });
    }
  });
  engine.run();
  ASSERT_EQ(order.size(), 60u);
  for (int i = 0; i < 60; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EngineHeap, PropertyRandomSchedulesAreTimeOrderedAndFifoWithinTies) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto plan = random_plan(seed, 200);
    Engine engine;
    std::vector<int> order;
    std::vector<double> fire_times;
    // arrival[id] = how many schedule_at calls preceded this event's own
    // (i.e. its insertion sequence), recorded for top-level events at
    // setup and for spawned events inside their parent's callback.
    std::vector<int> arrival(2048, -1);
    int arrivals = 0;

    for (const auto& item : plan.items) {
      arrival[static_cast<std::size_t>(item.id)] = arrivals++;
      engine.schedule_at(item.time, [&, &item = item] {
        order.push_back(item.id);
        fire_times.push_back(engine.now());
        for (const auto& child : item.children) {
          arrival[static_cast<std::size_t>(child.id)] = arrivals++;
          engine.schedule_at(engine.now() + child.delay, [&, &child = child] {
            order.push_back(child.id);
            fire_times.push_back(engine.now());
          });
        }
      });
    }
    engine.run();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(arrivals));

    // Times never go backwards; within a tie, insertion order holds.
    for (std::size_t i = 1; i < order.size(); ++i) {
      EXPECT_LE(fire_times[i - 1], fire_times[i]) << "seed " << seed;
      if (fire_times[i - 1] == fire_times[i]) {
        EXPECT_LT(arrival[static_cast<std::size_t>(order[i - 1])],
                  arrival[static_cast<std::size_t>(order[i])])
            << "tie broken out of insertion order at pos " << i << ", seed " << seed;
      }
    }
  }
}

TEST(EngineHeap, DifferentialAgainstOldPriorityQueueSemantics) {
  // Replay identical randomized schedules (with nested scheduling)
  // through the reference model and the arena engine: the dispatch
  // sequences must match event for event.
  for (std::uint64_t seed = 100; seed < 130; ++seed) {
    const auto plan = random_plan(seed, 300);
    ReferenceEngine reference;
    Engine engine;
    const auto expected = dispatch_sequence(plan, reference);
    const auto actual = dispatch_sequence(plan, engine);
    ASSERT_EQ(expected, actual) << "dispatch order diverged for seed " << seed;
    EXPECT_EQ(reference.now(), engine.now());
  }
}

TEST(EngineHeap, ArenaRecyclesSlotsAcrossSelfRescheduling) {
  // A self-rescheduling chain keeps at most 2 events pending; the arena
  // must stay at its high-water mark instead of growing per event.
  Engine engine;
  int remaining = 10000;
  std::function<void()> hop;  // test-side closure; the engine stores InlineCallbacks
  hop = [&] {
    if (--remaining > 0) engine.schedule_after(1e-6, [&] { hop(); });
  };
  engine.schedule_after(0.0, [&] { hop(); });
  const std::size_t processed = engine.run();
  EXPECT_EQ(processed, 10000u);
  EXPECT_LE(engine.arena_slots(), 4u);
  EXPECT_EQ(engine.events_dispatched(), 10000u);
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state (via the obs counter, not trust)
// ---------------------------------------------------------------------------

TEST(EngineHeap, SteadyStateEngineLoopNeverSpillsToHeap) {
  obs::Counter& heap_allocs = obs::counter(obs::keys::kEngineCallbackHeapAllocs);
  const std::uint64_t before = heap_allocs.value();
  Engine engine;
  struct Payload {
    double a[6];  // ~ the Message-sized captures the simulator uses
  };
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    Payload p{};
    p.a[0] = static_cast<double>(i);
    engine.schedule_at(static_cast<double>(i % 7), [p, &fired] {
      fired += static_cast<int>(p.a[0] >= 0.0);
    });
  }
  engine.run();
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(heap_allocs.value(), before) << "an engine callback spilled to the heap";
}

TEST(EngineHeap, SimulatedPingPongRunsWithZeroCallbackHeapAllocs) {
  obs::Counter& heap_allocs = obs::counter(obs::keys::kEngineCallbackHeapAllocs);
  const std::uint64_t before = heap_allocs.value();

  simmpi::World world(make_noiseless(4), 2, 42);
  constexpr int kRounds = 200;
  world.launch_on(0, [](simmpi::Comm& c) -> Task<void> {
    for (int i = 0; i < kRounds; ++i) {
      co_await c.send(1, 0, 8);
      (void)co_await c.recv(1, 1);
    }
  });
  world.launch_on(1, [](simmpi::Comm& c) -> Task<void> {
    for (int i = 0; i < kRounds; ++i) {
      (void)co_await c.recv(0, 0);
      co_await c.send(0, 1, 8);
    }
  });
  world.run();
  EXPECT_EQ(world.messages_delivered(), 2u * kRounds);
  EXPECT_EQ(heap_allocs.value(), before)
      << "the simmpi p2p path scheduled an oversize callback";
}

}  // namespace
}  // namespace sci::sim
