// sci::fault: preset catalogue and validation, "machine+fault"
// composition in make_machine, determinism of injected faults (seed
// identity and World::reset replay), and the fault counters.
#include <gtest/gtest.h>

#include <vector>

#include "fault/fault.hpp"
#include "obs/counters.hpp"
#include "sim/machine.hpp"
#include "simmpi/comm.hpp"

namespace sci {
namespace {

// ---------------------------------------------------------- presets

TEST(FaultSpec, DefaultIsBenign) {
  fault::FaultSpec spec;
  EXPECT_FALSE(spec.any());
  EXPECT_NO_THROW(spec.validate());
}

TEST(FaultSpec, PresetCatalogue) {
  for (const auto& name : fault::fault_preset_names()) {
    const fault::FaultSpec spec = fault::fault_preset(name);
    EXPECT_NO_THROW(spec.validate()) << name;
    if (name != "none") {
      EXPECT_TRUE(spec.any()) << name;
    }
  }
  EXPECT_FALSE(fault::fault_preset("none").any());
  EXPECT_GT(fault::fault_preset("lossy").drop_prob, 0.0);
  EXPECT_GT(fault::fault_preset("degraded").link_degrade_prob, 0.0);
  EXPECT_GT(fault::fault_preset("straggler").straggler_prob, 0.0);
  const fault::FaultSpec chaos = fault::fault_preset("chaos");
  EXPECT_GT(chaos.drop_prob, 0.0);
  EXPECT_GT(chaos.link_degrade_prob, 0.0);
  EXPECT_GT(chaos.straggler_prob, 0.0);
}

TEST(FaultSpec, UnknownPresetThrowsListingKnownOnes) {
  try {
    (void)fault::fault_preset("nosuch");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("lossy"), std::string::npos) << e.what();
  }
}

TEST(FaultSpec, ValidateRejectsNonsense) {
  fault::FaultSpec spec;
  spec.drop_prob = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.link_degrade_factor = 0.5;  // a "degradation" that speeds links up
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.straggler_factor = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.retransmit_timeout_s = -1e-6;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

// ------------------------------------------------------ composition

TEST(MachineComposition, PlusSuffixAttachesFaultPreset) {
  const sim::Machine plain = sim::make_machine("dora");
  const sim::Machine lossy = sim::make_machine("dora+lossy");
  EXPECT_EQ(lossy.name, "dora+lossy");
  EXPECT_FALSE(plain.faults.any());
  EXPECT_TRUE(lossy.faults.any());
  EXPECT_EQ(lossy.faults.drop_prob, fault::fault_preset("lossy").drop_prob);
  // The base machine is untouched by the suffix.
  EXPECT_EQ(lossy.loggp.latency_s, plain.loggp.latency_s);
  EXPECT_EQ(lossy.node_peak_flops, plain.node_peak_flops);
}

TEST(MachineComposition, UnknownPartsThrow) {
  EXPECT_THROW((void)sim::make_machine("dora+nosuch"), std::invalid_argument);
  EXPECT_THROW((void)sim::make_machine("nosuch+lossy"), std::invalid_argument);
}

TEST(MachineComposition, PresetCacheKeysOnFullName) {
  const auto plain = sim::machine_preset("dora");
  const auto lossy = sim::machine_preset("dora+lossy");
  EXPECT_NE(plain.get(), lossy.get());
  EXPECT_TRUE(lossy->faults.any());
  EXPECT_EQ(sim::machine_preset("dora+lossy").get(), lossy.get());
}

// ----------------------------------------------------- determinism

/// `rounds` ping-pong exchanges between ranks 0 and 1; returns rank 0's
/// elapsed wall time (faults included).
double pingpong_elapsed(const sim::Machine& machine, std::uint64_t seed,
                        int rounds = 50, std::size_t bytes = 4096) {
  simmpi::World world(machine, 2, seed);
  double elapsed = 0.0;
  world.launch_on(0, [&](simmpi::Comm& c) -> sim::Task<void> {
    const double t0 = c.wtime();
    for (int i = 0; i < rounds; ++i) {
      co_await c.compute(2e-6);  // gives straggler episodes a surface
      co_await c.send(1, 1, bytes);
      (void)co_await c.recv(1, 2);
    }
    elapsed = c.wtime() - t0;
  });
  world.launch_on(1, [&](simmpi::Comm& c) -> sim::Task<void> {
    for (int i = 0; i < rounds; ++i) {
      (void)co_await c.recv(0, 1);
      co_await c.compute(2e-6);
      co_await c.send(0, 2, bytes);
    }
  });
  world.run();
  return elapsed;
}

TEST(FaultDeterminism, SameSeedSameFaults) {
  const sim::Machine chaos = sim::make_machine("dora+chaos");
  for (std::uint64_t seed : {1ULL, 42ULL, 1234ULL}) {
    EXPECT_EQ(pingpong_elapsed(chaos, seed), pingpong_elapsed(chaos, seed))
        << "seed=" << seed;
  }
  // Different seeds draw different fault episodes.
  EXPECT_NE(pingpong_elapsed(chaos, 1), pingpong_elapsed(chaos, 2));
}

TEST(FaultDeterminism, ResetReplaysFaultDraws) {
  const sim::Machine chaos = sim::make_machine("pilatus+chaos");
  simmpi::World world(chaos, 2, 99);
  double first = 0.0, second = 0.0;
  const auto program = [](simmpi::World& w, double& out) {
    w.launch_on(0, [&out](simmpi::Comm& c) -> sim::Task<void> {
      const double t0 = c.wtime();
      for (int i = 0; i < 30; ++i) {
        co_await c.send(1, 1, 8192);
        (void)co_await c.recv(1, 2);
        co_await c.compute(5e-6);
      }
      out = c.wtime() - t0;
    });
    w.launch_on(1, [](simmpi::Comm& c) -> sim::Task<void> {
      for (int i = 0; i < 30; ++i) {
        (void)co_await c.recv(0, 1);
        co_await c.send(0, 2, 8192);
        co_await c.compute(5e-6);
      }
    });
  };
  program(world, first);
  world.run();
  world.reset(99);
  program(world, second);
  world.run();
  EXPECT_EQ(first, second);
}

TEST(FaultDeterminism, BenignMachineDrawsNothingExtra) {
  // A "+none" fault spec must not disturb the machine's RNG stream:
  // faults.any() is false, so reset() draws exactly what "dora" draws.
  const double plain = pingpong_elapsed(sim::make_machine("dora"), 7);
  const double none = pingpong_elapsed(sim::make_machine("dora+none"), 7);
  EXPECT_EQ(plain, none);
}

// --------------------------------------------------------- effects

TEST(FaultEffects, InjectedFaultsCostTimeAndCount) {
  const auto before = obs::CounterRegistry::instance().snapshot();
  const sim::Machine plain = sim::make_machine("dora");
  const sim::Machine chaos = sim::make_machine("dora+chaos");
  double clean_total = 0.0, faulty_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    clean_total += pingpong_elapsed(plain, seed, 100);
    faulty_total += pingpong_elapsed(chaos, seed, 100);
  }
  EXPECT_GT(faulty_total, clean_total);

  // Across eight seeds of "chaos", every fault class fires at least once
  // (drop_prob 0.02 x 200 sends/run; degrade/straggler 0.10-0.15/draw).
  const auto snap = obs::snapshot_delta(before, obs::CounterRegistry::instance().snapshot());
  EXPECT_GT(obs::snapshot_value(snap, obs::keys::kFaultDrops), 0u);
  EXPECT_GT(obs::snapshot_value(snap, obs::keys::kFaultRetransmitNs), 0u);
  EXPECT_GT(obs::snapshot_value(snap, obs::keys::kFaultStragglerNs), 0u);
}

TEST(FaultEffects, CleanMachinePublishesNoFaultCounters) {
  const auto before = obs::CounterRegistry::instance().snapshot();
  (void)pingpong_elapsed(sim::make_machine("dora"), 3, 100);
  const auto snap = obs::snapshot_delta(before, obs::CounterRegistry::instance().snapshot());
  EXPECT_EQ(obs::snapshot_value(snap, obs::keys::kFaultDrops), 0u);
  EXPECT_EQ(obs::snapshot_value(snap, obs::keys::kFaultDegradedTransfers), 0u);
  EXPECT_EQ(obs::snapshot_value(snap, obs::keys::kFaultStragglerNs), 0u);
}

TEST(FaultEffects, DegradedLinksShowUpInCounters) {
  const auto before = obs::CounterRegistry::instance().snapshot();
  // link_degrade_prob 0.15 per directed route, 2 routes per seed: across
  // 32 seeds the chance no route ever degrades is ~(0.85^64) ~ 3e-5.
  const sim::Machine degraded = sim::make_machine("dora+degraded");
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    (void)pingpong_elapsed(degraded, seed, 10);
  }
  const auto snap = obs::snapshot_delta(before, obs::CounterRegistry::instance().snapshot());
  EXPECT_GT(obs::snapshot_value(snap, obs::keys::kFaultDegradedTransfers), 0u);
}

}  // namespace
}  // namespace sci
