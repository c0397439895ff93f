#include "exec/sim_backend.hpp"

#include <climits>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>

#include "exec/wire.hpp"
#include "sim/callback.hpp"
#include "sim/frame_pool.hpp"
#include "sim/machine.hpp"
#include "simmpi/benchmarks.hpp"

namespace sci::exec {

namespace {

/// Factor lookup: "system" wins, "machine" is the alias, the backend
/// option is the fall-back.
const std::string& machine_name_for(const Config& config,
                                    const SimBackendOptions& options) {
  const std::string* name = config.find_level("system");
  if (name == nullptr) name = config.find_level("machine");
  return name != nullptr ? *name : options.machine;
}

/// "processes" wins, "ranks" is the alias, the backend option last. A
/// level outside [0, INT_MAX] is refused, not wrapped by the cast.
int ranks_for(const Config& config, const SimBackendOptions& options) {
  const char* factor = config.find_level("processes") != nullptr ? "processes"
                       : config.find_level("ranks") != nullptr   ? "ranks"
                                                                 : nullptr;
  if (factor == nullptr) return options.ranks;
  const long long ranks = config.level_int(factor);
  if (ranks < 0 || ranks > INT_MAX) {
    throw std::invalid_argument("SimBackend: factor '" + std::string(factor) + "' level " +
                                std::to_string(ranks) + " is outside [0, " +
                                std::to_string(INT_MAX) + "]");
  }
  return static_cast<int>(ranks);
}

std::size_t message_bytes_for(const Config& config, const SimBackendOptions& options) {
  if (config.find_level("message_bytes") != nullptr)
    return static_cast<std::size_t>(config.level_int("message_bytes"));
  return options.message_bytes;
}

void apply_scale(CellResult& result, double scale) {
  if (scale != 1.0) {
    for (double& v : result.samples) v *= scale;
  }
}

/// The per-call allocation audit (CellResult::coro_frame_heap_allocs,
/// callback_heap_spills): thread-local tallies read at construction and
/// again in fill(), so concurrent workers never see each other's.
struct AllocationAudit {
  const std::uint64_t frames0 = sim::FramePool::local().heap_allocs();
  const std::uint64_t spills0 = sim::callback_heap_spills_local();

  void fill(CellResult& result) const {
    result.coro_frame_heap_allocs = sim::FramePool::local().heap_allocs() - frames0;
    result.callback_heap_spills = sim::callback_heap_spills_local() - spills0;
  }
};

}  // namespace

const char* to_string(SimKernel kernel) noexcept {
  switch (kernel) {
    case SimKernel::kPingPong: return "pingpong";
    case SimKernel::kReduce: return "reduce";
    case SimKernel::kPiScaling: return "pi_scaling";
  }
  return "unknown";
}

SimBackend::SimBackend(SimBackendOptions options) : options_(std::move(options)) {
  // Written as !(in range) so that NaN, a JSON null, is refused too.
  if (options_.samples == 0) throw std::invalid_argument("SimBackend: samples >= 1");
  for (const double seconds : {options_.sync_window_s, options_.base_seconds}) {
    if (!(seconds >= 0.0 && std::isfinite(seconds))) {
      throw std::invalid_argument(
          "SimBackend: sync_window_s and base_seconds must be finite and >= 0");
    }
  }
  if (!(options_.serial_fraction >= 0.0 && options_.serial_fraction <= 1.0)) {
    throw std::invalid_argument("SimBackend: serial_fraction must be in [0, 1]");
  }
  if (!(options_.scale > 0.0 && std::isfinite(options_.scale))) {
    throw std::invalid_argument("SimBackend: scale must be finite and > 0");
  }
}

std::string SimBackend::name() const {
  return std::string("sim.") + to_string(options_.kernel);
}

std::string SimBackend::describe() const {
  return "simulated cluster (sim::make_machine), kernel " +
         std::string(to_string(options_.kernel));
}

std::string SimBackend::identity() const { return wire::backend_to_json(options_); }

/// Per-worker reusable state: one warm benchmark driver per distinct
/// cell shape. Campaign cells are claimed in (config, rep) order, so a
/// worker typically replays one shape many times before moving on; the
/// map keeps earlier shapes warm for grids that revisit levels.
class SimBackend::Context final : public BackendContext {
 public:
  explicit Context(const SimBackendOptions& options) : options_(options) {}

 private:
  // Defined before run() so its deduced return type is known there.
  template <typename BenchMap, typename Make>
  auto& find_or_create(BenchMap& benches, const Config& config, std::size_t param,
                       Make make) {
    const std::string& machine_name = machine_name_for(config, options_);
    // Reused key buffer: "machine|param". Stays off the heap once its
    // capacity covers the longest shape seen.
    key_.clear();
    key_.append(machine_name);
    key_.push_back('|');
    obs::json::append_integer(key_, param);
    auto it = benches.find(key_);
    if (it == benches.end()) {
      it = benches.emplace(key_, make(*sim::machine_preset(machine_name), param)).first;
    }
    return *it->second;
  }

 public:
  [[nodiscard]] CellResult run(const Config& config, std::uint64_t seed) override {
    const AllocationAudit audit;
    CellResult result;
    result.unit = options_.unit;
    result.stop_reason = "fixed";
    switch (options_.kernel) {
      case SimKernel::kPingPong: {
        auto& bench = find_or_create(pingpong_, config, message_bytes_for(config, options_),
                                     [&](const sim::Machine& m, std::size_t bytes) {
                                       return std::make_unique<simmpi::PingPongBench>(
                                           m, bytes, options_.warmup);
                                     });
        const std::vector<double>& samples = bench.run(options_.samples, seed);
        result.samples.assign(samples.begin(), samples.end());
        result.warmup_discarded = options_.warmup;
        break;
      }
      case SimKernel::kReduce: {
        auto& bench = find_or_create(
            reduce_, config, static_cast<std::size_t>(ranks_for(config, options_)),
            [&](const sim::Machine& m, std::size_t ranks) {
              return std::make_unique<simmpi::ReduceBench>(m, static_cast<int>(ranks),
                                                           options_.sync_window_s);
            });
        bench.run(options_.iterations, seed).max_across_ranks_into(result.samples);
        // The reduce protocol times every iteration (window sync first),
        // so nothing is discarded -- record that explicitly rather than
        // leaving the field to chance.
        result.warmup_discarded = 0;
        break;
      }
      case SimKernel::kPiScaling: {
        auto& bench = find_or_create(
            pi_, config, static_cast<std::size_t>(ranks_for(config, options_)),
            [&](const sim::Machine& m, std::size_t ranks) {
              return std::make_unique<simmpi::PiScalingBench>(
                  m, static_cast<int>(ranks), options_.base_seconds,
                  options_.serial_fraction);
            });
        const std::vector<double>& completion = bench.run(options_.repetitions, seed);
        result.samples.assign(completion.begin(), completion.end());
        result.warmup_discarded = 0;  // every repetition is reported
        break;
      }
    }
    apply_scale(result, options_.scale);
    audit.fill(result);
    return result;
  }

 private:
  const SimBackendOptions& options_;
  std::string key_;
  std::map<std::string, std::unique_ptr<simmpi::PingPongBench>, std::less<>> pingpong_;
  std::map<std::string, std::unique_ptr<simmpi::ReduceBench>, std::less<>> reduce_;
  std::map<std::string, std::unique_ptr<simmpi::PiScalingBench>, std::less<>> pi_;
};

CellResult SimBackend::run(const Config& config, std::uint64_t seed) {
  // One-shot: a fresh context runs the cell cold. Context::run is the
  // only kernel; test_exec_reuse pins that a warm context's bytes match.
  return Context(options_).run(config, seed);
}

std::unique_ptr<BackendContext> SimBackend::make_context() {
  return std::make_unique<Context>(options_);
}

}  // namespace sci::exec
