#include "exec/wire.hpp"

#include <climits>
#include <cstring>
#include <map>
#include <ranges>
#include <stdexcept>
#include <utility>

namespace sci::exec::wire {

namespace json = obs::json;

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

constexpr auto backend_fields = [](auto& io, auto& b) {
  io("kernel", json::Named{b.kernel, {SimKernel::kPingPong, SimKernel::kReduce,
                                      SimKernel::kPiScaling}});
  io("machine", b.machine);
  io("samples", b.samples);
  io("warmup", b.warmup);
  io("message_bytes", b.message_bytes);
  io("iterations", b.iterations);
  io("sync_window_s", b.sync_window_s);
  io("base_seconds", b.base_seconds);
  io("serial_fraction", b.serial_fraction);
  io("repetitions", b.repetitions);
  io("ranks", json::AtMost{b.ranks, INT_MAX});
  io("scale", b.scale);
  io("unit", b.unit);
};

constexpr auto with_backend = [](auto& io, auto& b) {
  io.object("backend", backend_fields, b);
};

/// One entry of Config::levels with its level_indices entry: the
/// writer reads it through a view, the reader appends it to both.
template <class S>
struct Level {
  S factor;
  S level;
  std::size_t level_index = 0;
};

constexpr auto level_fields = [](auto& io, auto& l) {
  io("factor", l.factor);
  io("level", l.level);
  io("level_index", l.level_index);
};

auto levels(const Config& config) {
  return std::views::iota(std::size_t{0}, config.levels.size()) |
         std::views::transform([&config](std::size_t i) {
           return Level<const std::string&>{config.levels[i].first, config.levels[i].second,
                                            config.level_indices[i]};
         });
}

struct LevelSink {
  Config& config;
  using value_type = Level<std::string>;
  void push_back(value_type&& l) {
    config.levels.emplace_back(std::move(l.factor), std::move(l.level));
    config.level_indices.push_back(l.level_index);
  }
};
LevelSink levels(Config& config) { return {config}; }

constexpr auto config_fields = [](auto& io, auto& config) {
  io("index", config.index);
  io.list("levels", levels(config), level_fields);
};

/// Experiment::environment's entries: written from the map in key
/// order, read back into it (a repeated key keeps its last value).
struct EnvironmentSink {
  std::map<std::string, std::string>& environment;
  using value_type = std::pair<std::string, std::string>;
  void push_back(value_type&& e) { environment[std::move(e.first)] = std::move(e.second); }
};
const auto& entries(const std::map<std::string, std::string>& env) { return env; }
EnvironmentSink entries(std::map<std::string, std::string>& env) { return {env}; }

constexpr auto environment_fields = [](auto& io, auto& entry) {
  io("key", entry.first);
  io("value", entry.second);
};

constexpr auto experiment_fields = [](auto& io, auto& base) {
  io("name", base.name);
  io("description", base.description);
  io.list("environment", entries(base.environment), environment_fields);
  constexpr auto kLastScaling = static_cast<std::size_t>(core::ScalingMode::kWeak);
  io("scaling", json::AtMost{base.scaling, kLastScaling});
  io("weak_scaling_function", base.weak_scaling_function);
  io("subset_reason", base.subset_reason);
  io("uses_subset", base.uses_subset);
  io("parallel_measurement", base.parallel_measurement);
  io("synchronization_method", base.synchronization_method);
  io("summary_across_processes", base.summary_across_processes);
};

constexpr auto factor_fields = [](auto& io, auto& factor) {
  io("name", factor.name);
  io.list("levels", factor.levels);
};

constexpr auto stopping_fields = [](auto& io, auto& p) {
  using Mode = StoppingPolicy::Mode;
  io("mode", json::Named{p.mode, {Mode::kSequential, Mode::kFixed}});
  io("min_reps", p.min_reps);
  io("max_reps", p.max_reps);
  io("target_rel_ci_half_width", p.target_rel_ci_half_width);
  io("confidence", p.confidence);
  io("quantile", p.quantile);
  io("ess_floor", p.ess_floor);
  io("round_quantum", p.round_quantum);
  io("max_lag", p.max_lag);
};

constexpr auto envelope_fields = [](auto& io, auto& spec, auto& backend) {
  io.schema({"scibench.campaign", kVersion});
  io("name", spec.name);
  io("description", spec.description);
  io.object("base", experiment_fields, spec.base);
  io.list("factors", spec.factors, factor_fields);
  io("replications", spec.replications);
  io.object("stopping", stopping_fields, spec.stopping);
  io("seed", Hex{spec.seed});
  with_backend(io, backend);
};

/// The submit header opens with the request's name, then the run
/// options, each optional on input.
constexpr std::string_view kSubmitOp = "submit";
constexpr auto submit_op = [](auto& io, auto& op) { io("op", op); };
constexpr auto submit_fields = [](auto& io, auto& sub) {
  io("priority", sub.priority);
  io("journal", sub.journal_path);
  io("samples_csv", sub.samples_csv);
  io("summary_csv", sub.summary_csv);
  io("metrics", sub.metrics_path);
  io("max_attempts", json::AtMost{sub.max_attempts, kMaxAttempts});
  io("heartbeat_s", json::InRange{sub.heartbeat_s, 0.0, kMaxHeartbeatS, "seconds"});
};

constexpr auto job_fields = [](auto& io, auto& seed, auto& config, auto& backend) {
  io.schema({"scibench.job", kVersion});
  io("seed", Hex{seed});
  io.object("config", config_fields, config);
  with_backend(io, backend);
};

}  // namespace

std::string hex_u64(std::uint64_t value) {
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHexDigits[value & 0xf];
    value >>= 4;
  }
  return out;
}

std::uint64_t parse_hex_u64(std::string_view text) {
  if (text.size() != 16) {
    throw std::runtime_error("wire: hex u64 must be 16 digits, got \"" +
                             std::string(text) + "\"");
  }
  std::uint64_t value = 0;
  for (char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      throw std::runtime_error("wire: bad hex digit in \"" + std::string(text) + "\"");
    }
  }
  return value;
}

std::string hex_double(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof value);
  std::memcpy(&bits, &value, sizeof bits);
  return hex_u64(bits);
}

double parse_hex_double(std::string_view text) {
  const std::uint64_t bits = parse_hex_u64(text);
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

std::string campaign_to_json(const CampaignSpec& spec, const SimBackendOptions& backend) {
  if (spec.seed_override) {
    throw std::invalid_argument(
        "wire: CampaignSpec::seed_override is not serializable (an arbitrary "
        "function); submit derived-seed campaigns or run in-process");
  }
  return json::write(json::Layout::kLine, envelope_fields, spec, backend);
}

CampaignEnvelope parse_campaign_json(std::string_view text) {
  CampaignEnvelope envelope;
  json::Reader(json::parse(text), "wire")
      .read(envelope_fields, envelope.spec, envelope.backend);
  return envelope;
}

std::string backend_to_json(const SimBackendOptions& backend) {
  return json::write(json::Layout::kLine, with_backend, backend);
}

std::string submit_header_to_json(const Submission& sub) {
  const auto header_fields = [](auto& io, auto& s) {
    submit_op(io, kSubmitOp);
    submit_fields(io, s);
  };
  return json::write(json::Layout::kLine, header_fields, sub);
}

Submission parse_submission(std::string_view header_line, std::string_view envelope_line) {
  const json::Value header = json::parse(header_line);
  std::string op;
  json::Reader(header, "submit header").read(submit_op, op);
  if (op != kSubmitOp) throw std::runtime_error("unknown op \"" + op + "\"");
  CampaignEnvelope envelope = parse_campaign_json(envelope_line);

  Submission sub;
  sub.spec = std::move(envelope.spec);
  sub.backend = std::move(envelope.backend);
  // Every number is range-checked before it is cast: the casts are
  // undefined for NaN (a JSON null) and out-of-range values.
  json::Reader(header, "submit header", json::Reader::Members::kOptional)
      .read(submit_fields, sub);
  return sub;
}

std::string job_to_json(const SimBackendOptions& backend, const Config& config,
                        std::uint64_t seed) {
  std::string out;
  out.reserve(512);
  json::Writer(out).write(job_fields, seed, config, backend);
  return out;
}

JobSpec parse_job_json(std::string_view text) {
  JobSpec job;
  json::Reader(json::parse(text), "wire")
      .read(job_fields, job.seed, job.config, job.backend);
  return job;
}

std::string cell_result_to_json(const CellResult& result) {
  std::string out;
  out.reserve(64 + result.samples.size() * 20);
  json::Writer(out).write(cell_fields, result);
  return out;
}

CellResult parse_cell_result_json(std::string_view text) {
  CellResult result;
  json::Reader(json::parse(text), "wire").read(cell_fields, result);
  return result;
}

}  // namespace sci::exec::wire
