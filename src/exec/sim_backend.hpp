// SimBackend: simulated-cluster measurements behind the Backend
// interface. Each run() executes one simmpi benchmark with the cell
// seed on a machine chosen by the cell's configuration, so a cell is a
// pure function of (config, seed) -- the property the CampaignRunner
// byte-determinism contract rests on. make_context() returns a
// per-worker context that reuses worlds across replications; run() is
// a one-shot fresh context, so both share one kernel.
//
// Factor conventions (all optional; options provide the fall-backs):
//   "system" or "machine"  -> sim::make_machine name
//   "message_bytes"        -> ping-pong message size
//   "processes" or "ranks" -> communicator size (reduce / pi scaling)
#pragma once

#include <cstddef>
#include <string>

#include "exec/backend.hpp"

namespace sci::exec {

enum class SimKernel {
  kPingPong,   ///< simmpi::PingPongBench, one sample per iteration
  kReduce,     ///< simmpi::ReduceBench, max-across-ranks per iteration
  kPiScaling,  ///< simmpi::PiScalingBench, one completion time per rep
};

[[nodiscard]] const char* to_string(SimKernel kernel) noexcept;

struct SimBackendOptions {
  SimKernel kernel = SimKernel::kPingPong;

  /// Machine preset when the grid has no "system"/"machine" factor.
  std::string machine = "dora";

  // -- ping-pong --
  std::size_t samples = 1000;   ///< timed iterations per cell
  std::size_t warmup = 16;
  std::size_t message_bytes = 64;  ///< used when no message_bytes factor

  // -- reduce --
  std::size_t iterations = 100;
  double sync_window_s = 200e-6;

  // -- pi scaling --
  double base_seconds = 50e-3;
  double serial_fraction = 0.02;
  std::size_t repetitions = 20;

  int ranks = 2;  ///< communicator size when no processes/ranks factor

  /// Samples are multiplied by this before being returned; pair it with
  /// `unit` (e.g. scale=1e6, unit="us") so reports stay unambiguous.
  double scale = 1.0;
  std::string unit = "s";

  /// Field-wise equality; doubles compare by value, so -0.0 == 0.0.
  [[nodiscard]] bool operator==(const SimBackendOptions&) const = default;
};

class SimBackend : public Backend {
 public:
  explicit SimBackend(SimBackendOptions options);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string describe() const override;
  /// The options as their wire JSON (wire::backend_to_json).
  [[nodiscard]] std::string identity() const override;
  [[nodiscard]] CellResult run(const Config& config, std::uint64_t seed) override;

  /// Per-worker context that keeps one reusable simulation world (plus
  /// sample buffers) per distinct cell shape -- (machine, bytes/ranks)
  /// -- the worker encounters, and World::reset()s it per replication
  /// instead of rebuilding. Byte-identical to run() (pinned by
  /// test_exec_reuse); replications after a shape's first run
  /// allocation-free simulation.
  [[nodiscard]] std::unique_ptr<BackendContext> make_context() override;

  [[nodiscard]] const SimBackendOptions& options() const noexcept { return options_; }

 private:
  class Context;
  SimBackendOptions options_;
};

}  // namespace sci::exec
