// Pins of the point-to-point path's observable bytes: a golden trace of
// every send and receive flavour, and the exact engine events and
// messages of a pingpong and a reduce cell. A change to the p2p layer
// that moves a span, a draw or an event per message shows up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "golden_file.hpp"
#include "obs/trace.hpp"
#include "sim/machine.hpp"
#include "simmpi/benchmarks.hpp"
#include "simmpi/comm.hpp"

namespace sci::simmpi {
namespace {

constexpr std::size_t kEager = 64;
constexpr std::size_t kRendezvous = std::size_t{1} << 20;  // above every eager limit

// Two pairs of ranks: 0 -> 1 talk with blocking send/recv and 2 -> 3
// with isend/irecv, so no rank mixes matching recv and irecv. Each round
// moves an eager and a rendezvous message; the receiver posts the first
// before it arrives and the second after (the unexpected queue), then
// answers with an eager ack.
sim::Task<void> p2p_rounds(Comm& c) {
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    const int tag = 10 * round;
    switch (c.rank()) {
      case 0:
        co_await c.send(1, tag, kEager, std::vector<double>(1, round));
        co_await c.send(1, tag + 1, kRendezvous);
        (void)co_await c.recv(1, tag + 2);
        break;
      case 1:
        (void)co_await c.recv(0, tag);
        co_await c.compute(5e-3);
        (void)co_await c.recv(kAnySource, tag + 1);
        co_await c.send(0, tag + 2, kEager);
        break;
      case 2: {
        Request eager = c.isend(3, tag, kEager, std::vector<double>(1, round));
        Request big = c.isend(3, tag + 1, kRendezvous);
        (void)co_await eager.wait();
        (void)co_await big.wait();
        (void)co_await c.irecv(3, tag + 2).wait();
        break;
      }
      case 3: {
        (void)co_await c.irecv(2, tag).wait();
        co_await c.compute(5e-3);
        (void)co_await c.irecv(kAnySource, tag + 1).wait();
        (void)co_await c.isend(2, tag + 2, kEager).wait();
        break;
      }
      default:
        break;
    }
  }
}

void trace_p2p_rounds(const sim::Machine& machine, std::uint64_t seed, obs::TraceSink& sink) {
  World world(machine, 4, seed);
  world.name_trace_tracks(sink);
  const obs::ScopedAttach attach(sink);
  world.launch([](Comm& c) { return p2p_rounds(c); });
  world.run();
}

TEST(P2pPins, GoldenTraceOfEverySendAndReceiveFlavour) {
  sim::Machine faulty = sim::make_daint();
  faulty.faults.drop_prob = 0.25;
  faulty.faults.link_degrade_prob = 0.5;
  faulty.faults.link_degrade_factor = 3.0;

  obs::TraceSink noisy_sink;
  trace_p2p_rounds(sim::make_daint(), 11, noisy_sink);
  obs::TraceSink faulty_sink;
  trace_p2p_rounds(faulty, 12, faulty_sink);
  noisy_sink.merge(faulty_sink, 10000);  // the faulty world on tracks 10000+

  obs::TraceSink::WriteOptions options;
  options.wallclock_metadata = false;
  const std::string json = noisy_sink.to_json(options);
  EXPECT_NE(json.find("\"drop\""), std::string::npos) << "the faulty world dropped nothing";
  golden::expect_golden("p2p_trace.json.golden", json);
}

TEST(P2pPins, PingPongCellEventsAndMessages) {
  struct Pin {
    std::size_t bytes;
    std::uint64_t events;
    std::uint64_t messages;
  };
  for (const Pin pin : {Pin{kEager, 1298, 432}, Pin{kRendezvous, 1298, 432}}) {
    PingPongBench bench(sim::make_daint(), pin.bytes);
    (void)bench.run(200, 7);
    EXPECT_EQ(bench.world().engine().events_dispatched(), pin.events) << pin.bytes << " B";
    EXPECT_EQ(bench.world().messages_delivered(), pin.messages) << pin.bytes << " B";
  }
}

TEST(P2pPins, ReduceCellEventsAndMessages) {
  ReduceBench bench(sim::make_daint(), 32);
  (void)bench.run(20, 7);
  EXPECT_EQ(bench.world().engine().events_dispatched(), 23632u);
  EXPECT_EQ(bench.world().messages_delivered(), 7440u);
}

}  // namespace
}  // namespace sci::simmpi
