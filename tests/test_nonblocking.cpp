#include <gtest/gtest.h>

#include <vector>

#include "sim/machine.hpp"
#include "simmpi/comm.hpp"

namespace sci::simmpi {
namespace {

TEST(Nonblocking, IsendIrecvRoundTrip) {
  World world(sim::make_noiseless(4), 2, 1);
  std::vector<double> got;
  world.launch_on(0, [](Comm& c) -> sim::Task<void> {
    std::vector<double> payload(1, 42.0);
    Request req = c.isend(1, 5, 8, std::move(payload));
    (void)co_await req.wait();
    EXPECT_TRUE(req.test());
  });
  world.launch_on(1, [&](Comm& c) -> sim::Task<void> {
    Request req = c.irecv(0, 5);
    Message m = co_await req.wait();
    got = m.payload;
    EXPECT_EQ(m.src, 0);
  });
  world.run();
  EXPECT_EQ(got, std::vector<double>(1, 42.0));
}

TEST(Nonblocking, OverlapsCommunicationWithCompute) {
  // With nonblocking ops, a 1 ms compute and a 1 ms-ish transfer overlap;
  // blocking them back-to-back would serialize.
  const auto machine = sim::make_noiseless(4);
  double overlap_finish = 0.0;
  {
    World world(machine, 2, 2);
    world.launch_on(0, [&](Comm& c) -> sim::Task<void> {
      Request req = c.isend(1, 1, 1 << 22);  // 4 MiB: rendezvous + wire time
      co_await c.compute(1e-3);
      (void)co_await req.wait();
    });
    world.launch_on(1, [&](Comm& c) -> sim::Task<void> {
      Request req = c.irecv(0, 1);
      co_await c.compute(1e-3);
      (void)co_await req.wait();
      overlap_finish = c.world().engine().now();
    });
    world.run();
  }
  double serial_finish = 0.0;
  {
    World world(machine, 2, 2);
    world.launch_on(0, [&](Comm& c) -> sim::Task<void> {
      co_await c.compute(1e-3);
      co_await c.send(1, 1, 1 << 22);
    });
    world.launch_on(1, [&](Comm& c) -> sim::Task<void> {
      co_await c.compute(1e-3);
      (void)co_await c.recv(0, 1);
      serial_finish = c.world().engine().now();
    });
    world.run();
  }
  EXPECT_LT(overlap_finish, serial_finish);
}

TEST(Nonblocking, IrecvBeforeSendAndAfter) {
  // Posted-before and unexpected-queue paths both complete.
  World world(sim::make_noiseless(4), 2, 3);
  int completed = 0;
  world.launch_on(0, [&](Comm& c) -> sim::Task<void> {
    (void)co_await c.isend(1, 1, 8).wait();
    co_await c.compute(1e-3);
    (void)co_await c.isend(1, 2, 8).wait();
  });
  world.launch_on(1, [&](Comm& c) -> sim::Task<void> {
    Request early = c.irecv(0, 1);  // posted before arrival
    (void)co_await early.wait();
    ++completed;
    co_await c.compute(5e-3);       // tag-2 message arrives meanwhile
    Request late = c.irecv(0, 2);   // matches from the unexpected queue
    (void)co_await late.wait();
    ++completed;
  });
  world.run();
  EXPECT_EQ(completed, 2);
}

TEST(Nonblocking, EarlierPostedIrecvMatchesBeforeALaterRecv) {
  // MPI matches posted receives in posting order: the irecv posted
  // first takes the first message, although the blocking recv posted
  // after it matches that message too.
  World world(sim::make_noiseless(4), 2, 7);
  double irecv_got = 0.0;
  double recv_got = 0.0;
  world.launch_on(0, [&](Comm& c) -> sim::Task<void> {
    Request req = c.irecv(kAnySource, 7);
    const Message m = co_await c.recv(1, 7);
    recv_got = m.payload.at(0);
    const Message n = co_await req.wait();
    irecv_got = n.payload.at(0);
  });
  world.launch_on(1, [](Comm& c) -> sim::Task<void> {
    co_await c.send(0, 7, 8, std::vector<double>(1, 1.0));
    co_await c.send(0, 7, 8, std::vector<double>(1, 2.0));
  });
  world.run();
  EXPECT_EQ(irecv_got, 1.0);
  EXPECT_EQ(recv_got, 2.0);
}

TEST(Nonblocking, UnmatchedIrecvOfAFinishedRankIsNoDeadlock) {
  // Only a rank blocked in recv deadlocks; an irecv nobody answers is
  // left pending by a program that finished without waiting on it.
  World world(sim::make_noiseless(4), 2, 8);
  Request pending;
  world.launch_on(0, [&](Comm& c) -> sim::Task<void> {
    pending = c.irecv(1, 99);  // nobody sends tag 99
    co_await c.compute(1e-6);
  });
  world.launch_on(1, [](Comm& c) -> sim::Task<void> { co_await c.compute(1e-6); });
  EXPECT_NO_THROW(world.run());
  EXPECT_FALSE(pending.test());
}

TEST(Nonblocking, WaitAllCompletesEverything) {
  World world(sim::make_daint(), 4, 4);
  bool done = false;
  world.launch_on(0, [&](Comm& c) -> sim::Task<void> {
    std::vector<Request> reqs;
    for (int r = 1; r < c.size(); ++r) reqs.push_back(c.irecv(r, 9));
    co_await wait_all(reqs);
    for (auto& r : reqs) EXPECT_TRUE(r.test());
    done = true;
  });
  for (int r = 1; r < 4; ++r) {
    world.launch_on(r, [](Comm& c) -> sim::Task<void> {
      co_await c.compute(1e-5 * (c.rank() + 1));
      (void)co_await c.isend(0, 9, 8).wait();
    });
  }
  world.run();
  EXPECT_TRUE(done);
}

TEST(Nonblocking, TestReflectsCompletion) {
  World world(sim::make_noiseless(4), 2, 5);
  world.launch_on(0, [](Comm& c) -> sim::Task<void> {
    Request req = c.irecv(1, 1);
    EXPECT_FALSE(req.test());  // nothing sent yet
    co_await c.compute(1e-2);  // sender fires at ~1 ms
    EXPECT_TRUE(req.test());   // already delivered; no wait needed
    Message m = co_await req.wait();
    EXPECT_EQ(m.payload.at(0), 7.0);
  });
  world.launch_on(1, [](Comm& c) -> sim::Task<void> {
    co_await c.compute(1e-3);
    (void)co_await c.isend(0, 1, 8, std::vector<double>(1, 7.0)).wait();
  });
  world.run();
}

TEST(Nonblocking, Validation) {
  World world(sim::make_noiseless(4), 2, 6);
  EXPECT_THROW((void)world.comm(0).isend(7, 0, 8), std::out_of_range);
  EXPECT_THROW((void)world.comm(0).irecv(-5, 0), std::out_of_range);
  Request empty;
  EXPECT_FALSE(empty.test());
}

TEST(Torus, HopDistances) {
  const sim::Torus3D torus(4, 4, 4);
  EXPECT_EQ(torus.node_count(), 64u);
  EXPECT_EQ(torus.hops(0, 0), 0u);
  EXPECT_EQ(torus.hops(0, 1), 1u);   // +x
  EXPECT_EQ(torus.hops(0, 3), 1u);   // wrap-around -x
  EXPECT_EQ(torus.hops(0, 2), 2u);   // +x twice
  EXPECT_EQ(torus.hops(0, 4), 1u);   // +y
  EXPECT_EQ(torus.hops(0, 16), 1u);  // +z
  EXPECT_EQ(torus.hops(0, 21), 3u);  // (1,1,1)
  // Maximum distance in a 4-ring is 2 per dimension.
  EXPECT_EQ(torus.hops(0, 42), 6u);  // (2,2,2)
  EXPECT_THROW((void)torus.hops(0, 64), std::out_of_range);
}

TEST(Torus, Symmetric) {
  const sim::Torus3D torus(3, 5, 2);
  EXPECT_EQ(torus.node_count(), 30u);
  for (std::size_t a = 0; a < 30; ++a) {
    for (std::size_t b = 0; b < 30; ++b) {
      EXPECT_EQ(torus.hops(a, b), torus.hops(b, a));
    }
  }
}

}  // namespace
}  // namespace sci::simmpi
