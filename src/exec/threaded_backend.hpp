// ThreadedBackend: shared-memory measurements behind the Backend
// interface. Wraps threads::measure_threaded -- a real spin-barrier
// thread team with the paper's delay-window start synchronization --
// and summarizes each iteration across the team per Rule 10.
//
// The campaign factor "threads" (optional) overrides the team size, so
// a thread-scalability study is a one-factor campaign. Like HostBackend
// this measures real time: seeds are ignored. Every cell builds its own
// team, whose caller -- the runner worker that took the cell -- is
// thread 0, so a cell spawns threads - 1 threads; run campaigns with
// workers = 1 unless the host has cores to spare for parallel teams.
#pragma once

#include <functional>
#include <string>

#include "exec/backend.hpp"
#include "threads/measure.hpp"

namespace sci::exec {

struct ThreadedBackendOptions {
  /// kernel(thread_id): the timed body, run once per iteration per thread.
  std::function<void(std::size_t)> kernel;
  threads::ThreadedMeasurementOptions measure;
  /// Per-iteration summary across the team: true = max across threads
  /// (completion of the slowest, the Rule 10 default for parallel
  /// work), false = every thread's sample flattened into the series.
  bool max_across_threads = true;
  std::string unit = "ns";
};

class ThreadedBackend : public Backend {
 public:
  explicit ThreadedBackend(ThreadedBackendOptions options);

  [[nodiscard]] std::string name() const override { return "threads"; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] CellResult run(const Config& config, std::uint64_t seed) override;

 private:
  ThreadedBackendOptions options_;
};

}  // namespace sci::exec
