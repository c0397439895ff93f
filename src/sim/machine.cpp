#include "sim/machine.hpp"

#include <map>
#include <mutex>
#include <stdexcept>

namespace sci::sim {

Machine make_daint() {
  Machine m;
  m.name = "daint";
  // Piz Daint: Cray XC30, 28 cabinets; model 16 groups x 16 routers x 4.
  m.topology = std::make_shared<Dragonfly>(16, 16, 4);
  m.loggp = {.latency_s = 0.95e-6,
             .overhead_s = 250e-9,
             .gap_per_msg_s = 100e-9,
             .gap_per_byte_s = 0.1e-9,
             .hop_latency_s = 30e-9};
  m.net_noise = {.rel_jitter = 0.10,
                 .congestion_prob = 0.20,
                 .congestion_mean = 0.5e-6,
                 .rare_prob = 0.002,
                 .rare_scale = 4e-6,
                 .rare_shape = 2.8};
  // Detours: ~1 kHz scheduler ticks of ~2 us, ~5 Hz daemon bursts with a
  // Pareto tail (Hoefler et al. SC'10 measured similar shapes on XC/XE).
  m.compute_noise = {.rel_jitter = 0.015,
                     .detour_rate = 1000.0,
                     .detour_mean = 2e-6,
                     .burst_rate = 5.0,
                     .burst_scale = 4e-5,
                     .burst_shape = 2.2};
  // 8-core SNB (~166 Gflop/s) + K20X (~1.31 Tflop/s) = 94.5/64 Tflop/s.
  m.node_peak_flops = 94.5e12 / 64.0;
  m.node_base_efficiency = 0.96;
  // XC30 node: ~100 W idle, ~350 W under HPL (CPU + K20X).
  m.power = {.idle_w = 100.0, .compute_w = 250.0};
  return m;
}

Machine make_dora() {
  Machine m;
  m.name = "dora";
  // Piz Dora: Cray XC40; smaller Aries dragonfly.
  m.topology = std::make_shared<Dragonfly>(8, 16, 4);
  m.loggp = {.latency_s = 1.02e-6,
             .overhead_s = 250e-9,
             .gap_per_msg_s = 80e-9,
             .gap_per_byte_s = 0.08e-9,
             .hop_latency_s = 30e-9};
  // Tight distribution: min ~1.57 us, median ~1.77 us, max ~7 us at 1M.
  m.net_noise = {.rel_jitter = 0.16,
                 .congestion_prob = 0.45,
                 .congestion_mean = 0.22e-6,
                 .rare_prob = 0.001,
                 .rare_scale = 2.0e-6,
                 .rare_shape = 4.0};
  m.compute_noise = {.rel_jitter = 0.01,
                     .detour_rate = 800.0,
                     .detour_mean = 2e-6,
                     .burst_rate = 4.0,
                     .burst_scale = 3e-5,
                     .burst_shape = 2.4};
  m.node_peak_flops = 2.0 * 12.0 * 2.6e9 * 16.0;  // 2x 12-core Haswell, AVX2 FMA
  m.node_base_efficiency = 0.92;
  return m;
}

Machine make_pilatus() {
  Machine m;
  m.name = "pilatus";
  // Pilatus: InfiniBand FDR fat tree; radix-16 two-level tree.
  m.topology = std::make_shared<FatTree>(16, 2);
  m.loggp = {.latency_s = 0.68e-6,
             .overhead_s = 200e-9,
             .gap_per_msg_s = 120e-9,
             .gap_per_byte_s = 0.15e-9,
             .hop_latency_s = 100e-9};
  // Lower base latency but a heavier tail: min ~1.48 us, max ~11.6 us.
  m.net_noise = {.rel_jitter = 0.20,
                 .congestion_prob = 0.60,
                 .congestion_mean = 0.55e-6,
                 .rare_prob = 0.002,
                 .rare_scale = 2.5e-6,
                 .rare_shape = 4.0};
  m.compute_noise = {.rel_jitter = 0.02,
                     .detour_rate = 2000.0,
                     .detour_mean = 3e-6,
                     .burst_rate = 10.0,
                     .burst_scale = 5e-5,
                     .burst_shape = 2.2};
  m.node_peak_flops = 2.0 * 8.0 * 2.6e9 * 8.0;  // 2x 8-core SNB, AVX
  m.node_base_efficiency = 0.88;
  return m;
}

Machine make_noiseless(std::size_t nodes) {
  Machine m;
  m.name = "noiseless";
  m.topology = std::make_shared<Dragonfly>(1, 1, nodes);
  m.loggp = {.latency_s = 1e-6,
             .overhead_s = 200e-9,
             .gap_per_msg_s = 100e-9,
             .gap_per_byte_s = 0.1e-9,
             .hop_latency_s = 0.0};
  m.net_noise = {};     // zero noise
  m.compute_noise = {}; // zero noise
  m.clock_drift_ppm_sigma = 0.0;
  m.clock_offset_sigma_s = 0.0;
  m.node_base_efficiency = 1.0;
  return m;
}

Machine make_bgq() {
  Machine m;
  m.name = "bgq";
  m.topology = std::make_shared<Torus3D>(8, 8, 8);  // 512 nodes
  m.loggp = {.latency_s = 1.3e-6,
             .overhead_s = 350e-9,
             .gap_per_msg_s = 150e-9,
             .gap_per_byte_s = 0.5e-9,   // 2 GB/s links
             .hop_latency_s = 45e-9};
  // CNK runs almost nothing beside the application.
  m.net_noise = {.rel_jitter = 0.02,
                 .congestion_prob = 0.03,
                 .congestion_mean = 0.1e-6,
                 .rare_prob = 1e-5,
                 .rare_scale = 1e-6,
                 .rare_shape = 4.0};
  m.compute_noise = {.rel_jitter = 0.0005,
                     .detour_rate = 1.0,
                     .detour_mean = 1e-6,
                     .burst_rate = 0.01,
                     .burst_scale = 1e-5,
                     .burst_shape = 3.0};
  m.node_peak_flops = 204.8e9;  // 16 cores x 4-wide FMA @ 1.6 GHz
  m.node_base_efficiency = 0.85;
  m.clock_drift_ppm_sigma = 1.0;
  m.clock_offset_sigma_s = 2e-5;
  m.power = {.idle_w = 40.0, .compute_w = 45.0};
  return m;
}

Machine make_machine(const std::string& name) {
  // "base+fault" composes a fault preset onto a machine preset:
  // make_machine("dora+lossy") is dora with fault::fault_preset("lossy").
  // The composed name is kept so machine_preset memoizes per combination
  // and campaign factors like system={"dora","dora+lossy"} just work.
  if (const auto plus = name.find('+'); plus != std::string::npos) {
    Machine m = make_machine(name.substr(0, plus));
    m.faults = fault::fault_preset(name.substr(plus + 1));
    m.faults.validate();
    m.name = name;
    return m;
  }
  if (name == "daint") return make_daint();
  if (name == "dora") return make_dora();
  if (name == "pilatus") return make_pilatus();
  if (name == "noiseless") return make_noiseless();
  if (name == "bgq") return make_bgq();
  throw std::invalid_argument("make_machine: unknown machine '" + name + "'");
}

std::shared_ptr<const Machine> machine_preset(const std::string& name) {
  static std::mutex mutex;
  static std::map<std::string, std::shared_ptr<const Machine>, std::less<>> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, std::make_shared<const Machine>(make_machine(name))).first;
  }
  return it->second;
}

}  // namespace sci::sim
