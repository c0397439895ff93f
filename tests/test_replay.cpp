#include <gtest/gtest.h>

#include <string>

#include "sim/machine.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/replay.hpp"

namespace sci::simmpi {
namespace {

TEST(ScheduleParser, ParsesBasicProgram) {
  const std::string text = R"(
# a two-rank ping-pong
rank 0
calc 1e-3
send 1 64 7
recv 1 8
rank 1
recv 0 7
send 0 64 8
)";
  const auto schedule = parse_schedule(text, 2);
  EXPECT_EQ(schedule.ranks, 2);
  ASSERT_EQ(schedule.per_rank[0].size(), 3u);
  ASSERT_EQ(schedule.per_rank[1].size(), 2u);
  EXPECT_EQ(schedule.per_rank[0][0].kind, OpKind::kCalc);
  EXPECT_DOUBLE_EQ(schedule.per_rank[0][0].seconds, 1e-3);
  EXPECT_EQ(schedule.per_rank[0][1].kind, OpKind::kSend);
  EXPECT_EQ(schedule.per_rank[0][1].peer, 1);
  EXPECT_EQ(schedule.per_rank[0][1].bytes, 64u);
  EXPECT_EQ(schedule.per_rank[0][1].tag, 7);
  EXPECT_EQ(schedule.total_ops(), 5u);
}

TEST(ScheduleParser, AllDirectiveAndWildcards) {
  const std::string text = R"(
all
barrier
allreduce
reduce 2
rank 0
recv any 5
)";
  const auto schedule = parse_schedule(text, 4);
  for (int r = 0; r < 4; ++r) {
    EXPECT_GE(schedule.per_rank[r].size(), 3u);
    EXPECT_EQ(schedule.per_rank[r][0].kind, OpKind::kBarrier);
    EXPECT_EQ(schedule.per_rank[r][2].peer, 2);  // reduce root
  }
  EXPECT_EQ(schedule.per_rank[0].back().peer, kAnySource);
}

TEST(ScheduleParser, LineNumberedErrors) {
  auto expect_error = [](const std::string& text, const char* fragment) {
    try {
      (void)parse_schedule(text, 2);
      FAIL() << "expected parse error for: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos) << e.what();
    }
  };
  expect_error("calc 1.0\n", "before any");
  expect_error("rank 5\n", "out of range");
  expect_error("rank 0\nsend 1 64\n", "send needs");
  expect_error("rank 0\ncalc -1\n", "non-negative");
  expect_error("rank 0\nfrobnicate\n", "unknown op");
  expect_error("rank 0\ncalc 1.0 extra\n", "trailing");
  expect_error("rank 0\nrecv banana 3\n", "rank or 'any'");
  expect_error("rank 0\nrecv 0x 7\n", "rank or 'any'");
  expect_error("rank 0\nsend 1 -5 7\n", "whole count");
  EXPECT_THROW((void)parse_schedule("", 0), std::invalid_argument);
}

TEST(Replay, PingPongCompletesWithExpectedTraffic) {
  const auto schedule = parse_schedule(R"(
rank 0
send 1 64 1
recv 1 2
rank 1
recv 0 1
send 0 64 2
)", 2);
  const auto result = replay(schedule, sim::make_noiseless(4), 1);
  EXPECT_EQ(result.messages, 2u);
  EXPECT_GT(result.completion_s(), 0.0);
  EXPECT_LT(result.completion_s(), 1e-4);
}

TEST(Replay, DeterministicForFixedSeed) {
  const auto schedule = make_stencil_skeleton(8, 5, 1e-4, 1024);
  const auto a = replay(schedule, sim::make_daint(), 7);
  const auto b = replay(schedule, sim::make_daint(), 7);
  EXPECT_EQ(a.rank_finish_s, b.rank_finish_s);
  const auto c = replay(schedule, sim::make_daint(), 8);
  EXPECT_NE(a.rank_finish_s, c.rank_finish_s);
}

TEST(Replay, CalcTimeDominatesOnNoiselessMachine) {
  const auto schedule = parse_schedule("all\ncalc 0.5\n", 4);
  const auto result = replay(schedule, sim::make_noiseless(4), 1);
  EXPECT_NEAR(result.completion_s(), 0.5, 1e-9);
}

TEST(Replay, StencilSkeletonShape) {
  const auto schedule = make_stencil_skeleton(4, 3, 1e-3, 512);
  EXPECT_EQ(schedule.ranks, 4);
  // Per step: calc + 2 sends + 2 recvs + allreduce = 6 ops.
  for (const auto& ops : schedule.per_rank) EXPECT_EQ(ops.size(), 18u);
  const auto result = replay(schedule, sim::make_noiseless(8), 2);
  // 3 steps of 1 ms compute + small comm: just over 3 ms.
  EXPECT_GT(result.completion_s(), 3e-3);
  EXPECT_LT(result.completion_s(), 3.5e-3);
  EXPECT_THROW(make_stencil_skeleton(1, 3, 1e-3, 1), std::invalid_argument);
}

TEST(Replay, NoiseAmplifiesWithScale) {
  // The SC'10 result the paper cites: the same per-step noise hurts more
  // at larger scale because every allreduce absorbs the slowest rank.
  const double work = 1e-3;
  const int steps = 20;
  auto slowdown = [&](int ranks) {
    const auto schedule = make_stencil_skeleton(ranks, steps, work, 512);
    const double noiseless = replay(schedule, sim::make_noiseless(64), 3).completion_s();
    const double noisy = replay(schedule, sim::make_daint(), 3).completion_s();
    return noisy / noiseless;
  };
  const double at4 = slowdown(4);
  const double at32 = slowdown(32);
  EXPECT_GT(at32, at4);
  EXPECT_GT(at4, 1.0);
}

TEST(CommStats, CountsTraffic) {
  const auto schedule = parse_schedule(R"(
rank 0
send 1 100 1
send 1 50 2
recv 1 3
rank 1
recv 0 1
recv 0 2
send 0 25 3
)", 2);
  World world(sim::make_noiseless(4), 2, 4);
  world.launch([&](Comm& c) -> sim::Task<void> {
    for (const Op& op : schedule.per_rank[static_cast<std::size_t>(c.rank())]) {
      if (op.kind == OpKind::kSend) co_await c.send(op.peer, op.tag, op.bytes);
      if (op.kind == OpKind::kRecv) (void)co_await c.recv(op.peer, op.tag);
    }
  });
  world.run();
  EXPECT_EQ(world.comm(0).stats().sends, 2u);
  EXPECT_EQ(world.comm(0).stats().bytes_sent, 150u);
  EXPECT_EQ(world.comm(0).stats().receives, 1u);
  EXPECT_EQ(world.comm(0).stats().bytes_received, 25u);
  EXPECT_EQ(world.comm(1).stats().sends, 1u);
  EXPECT_EQ(world.comm(1).stats().bytes_received, 150u);
}

}  // namespace
}  // namespace sci::simmpi
