// Machine presets: simulated stand-ins for the paper's experimental
// systems (Section 4.1.2 "Our experimental setup"). Noise and LogGP
// parameters are calibrated so that the *distributions* of simulated
// measurements match the scales the paper reports:
//
//   daint   Cray XC30, Aries dragonfly; 8-core SNB + K20X, peak
//           ~1.48 Tflop/s per node (94.5/64); HPL runs 280-340 s.
//   dora    Cray XC40, Aries dragonfly; ping-pong 64 B latency
//           min 1.57 us, median ~1.77 us, max ~7 us, tight right tail.
//   pilatus InfiniBand FDR fat tree; min 1.48 us, median ~1.88 us,
//           heavy tail to ~11.6 us.
//   noiseless  deterministic machine for unit tests and bounds models.
#pragma once

#include <memory>
#include <string>

#include "fault/fault.hpp"
#include "sim/network.hpp"
#include "sim/noise.hpp"
#include "sim/topology.hpp"

namespace sci::sim {

/// Per-node power model: energy is a first-class cost metric in the
/// paper (Section 3.1.1 lists Joules beside seconds and dollars; flop/W
/// is its canonical rate example). Job energy (hpl::SimHplRun) =
///   nodes * (idle_w * makespan + compute_w * compute time).
struct PowerModel {
  double idle_w = 100.0;           ///< node baseline draw
  double compute_w = 150.0;        ///< extra draw while computing
};

struct Machine {
  std::string name;
  std::shared_ptr<const Topology> topology;
  LogGPParams loggp;
  NetworkNoise net_noise;
  ComputeNoise compute_noise;
  double node_peak_flops = 1e12;   ///< peak flop/s per node
  double node_base_efficiency = 0.8;  ///< achievable fraction for dense kernels
  double coll_entry_overhead_s = 2e-6;  ///< software setup cost per collective call
  PowerModel power;
  double clock_drift_ppm_sigma = 5.0; ///< per-node clock drift spread (ppm)
  double clock_offset_sigma_s = 1e-4; ///< initial clock offset spread
  /// Fault injection (off by default). simmpi::World draws every fault
  /// decision from the world RNG, so faulty runs stay byte-reproducible
  /// and World::reset replays them.
  fault::FaultSpec faults;

  [[nodiscard]] Network make_network() const { return {topology, loggp, net_noise}; }
};

[[nodiscard]] Machine make_daint();
[[nodiscard]] Machine make_dora();
[[nodiscard]] Machine make_pilatus();
[[nodiscard]] Machine make_noiseless(std::size_t nodes = 64);

/// Blue Gene/Q-style machine: 3-D torus, modest link speed, and the
/// famously quiet compute kernel (the paper warns that "implicit
/// assumptions (e.g., that IBM Blue Gene systems are noise-free) are
/// not always understood by all readers" -- this preset quantifies the
/// assumption instead: tiny but nonzero noise).
[[nodiscard]] Machine make_bgq();

/// Lookup by name ("daint", "dora", "pilatus", "noiseless", "bgq");
/// throws on unknown names. A "+fault" suffix composes a fault preset
/// onto the machine ("dora+lossy", "pilatus+chaos"; see
/// fault::fault_preset for the catalogue).
[[nodiscard]] Machine make_machine(const std::string& name);

/// Memoized make_machine: one shared immutable Machine per preset name
/// per process, built on first use (thread-safe). Machines are pure
/// data, so sharing one instance across every replication of a
/// campaign is observationally identical to rebuilding it -- minus the
/// topology/string allocations, which on setup-dominated campaigns are
/// a measurable slice of the replication loop.
[[nodiscard]] std::shared_ptr<const Machine> machine_preset(const std::string& name);

}  // namespace sci::sim
