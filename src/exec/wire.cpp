#include "exec/wire.hpp"

#include <climits>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"

namespace sci::exec::wire {

namespace json = obs::json;

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

SimKernel kernel_from_string(const std::string& text) {
  if (text == "pingpong") return SimKernel::kPingPong;
  if (text == "reduce") return SimKernel::kReduce;
  if (text == "pi_scaling") return SimKernel::kPiScaling;
  throw std::runtime_error("wire: unknown kernel \"" + text + "\"");
}

void check_schema(const json::Value& root, const char* schema) {
  if (root.at("schema").as_string() != schema) {
    throw std::runtime_error("wire: expected schema \"" + std::string(schema) +
                             "\", got \"" + root.at("schema").as_string() + "\"");
  }
  if (root.at("version").as_size() != static_cast<std::size_t>(kVersion)) {
    throw std::runtime_error("wire: unsupported version for schema \"" +
                             std::string(schema) + "\"");
  }
}

void append_backend(std::string& out, const SimBackendOptions& b) {
  out += "\"backend\": {\"kernel\": ";
  json::append_quoted(out, to_string(b.kernel));
  out += ", \"machine\": ";
  json::append_quoted(out, b.machine);
  out += ", \"samples\": " + json::dump_size(b.samples);
  out += ", \"warmup\": " + json::dump_size(b.warmup);
  out += ", \"message_bytes\": " + json::dump_size(b.message_bytes);
  out += ", \"iterations\": " + json::dump_size(b.iterations);
  out += ", \"sync_window_s\": " + json::dump_number(b.sync_window_s);
  out += ", \"base_seconds\": " + json::dump_number(b.base_seconds);
  out += ", \"serial_fraction\": " + json::dump_number(b.serial_fraction);
  out += ", \"repetitions\": " + json::dump_size(b.repetitions);
  out += ", \"ranks\": " + json::dump_size(static_cast<std::size_t>(b.ranks));
  out += ", \"scale\": " + json::dump_number(b.scale);
  out += ", \"unit\": ";
  json::append_quoted(out, b.unit);
  out += "}";
}

SimBackendOptions parse_backend(const json::Value& v) {
  SimBackendOptions b;
  b.kernel = kernel_from_string(v.at("kernel").as_string());
  b.machine = v.at("machine").as_string();
  b.samples = v.at("samples").as_size();
  b.warmup = v.at("warmup").as_size();
  b.message_bytes = v.at("message_bytes").as_size();
  b.iterations = v.at("iterations").as_size();
  b.sync_window_s = v.at("sync_window_s").as_number();
  b.base_seconds = v.at("base_seconds").as_number();
  b.serial_fraction = v.at("serial_fraction").as_number();
  b.repetitions = v.at("repetitions").as_size();
  // Range-checked before the cast, which would wrap 2^32 + 4 to 4.
  const std::size_t ranks = v.at("ranks").as_size();
  if (ranks > static_cast<std::size_t>(INT_MAX)) {
    throw std::invalid_argument("wire: \"ranks\" must be at most " + std::to_string(INT_MAX));
  }
  b.ranks = static_cast<int>(ranks);
  b.scale = v.at("scale").as_number();
  b.unit = v.at("unit").as_string();
  return b;
}

void append_config(std::string& out, const Config& config) {
  out += "\"config\": {\"index\": " + json::dump_size(config.index);
  out += ", \"levels\": [";
  for (std::size_t i = 0; i < config.levels.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"factor\": ";
    json::append_quoted(out, config.levels[i].first);
    out += ", \"level\": ";
    json::append_quoted(out, config.levels[i].second);
    out += ", \"level_index\": " + json::dump_size(config.level_indices[i]);
    out += "}";
  }
  out += "]}";
}

Config parse_config(const json::Value& v) {
  Config config;
  config.index = v.at("index").as_size();
  for (const auto& entry : v.at("levels").as_array()) {
    config.levels.emplace_back(entry.at("factor").as_string(),
                               entry.at("level").as_string());
    config.level_indices.push_back(entry.at("level_index").as_size());
  }
  return config;
}

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
  std::string out;
  out.reserve(1024);
  out += "{\"schema\": \"scibench.campaign\", \"version\": ";
  out += json::dump_size(static_cast<std::size_t>(kVersion));
  out += ", \"name\": ";
  json::append_quoted(out, spec.name);
  out += ", \"description\": ";
  json::append_quoted(out, spec.description);

  const core::Experiment& base = spec.base;
  out += ", \"base\": {\"name\": ";
  json::append_quoted(out, base.name);
  out += ", \"description\": ";
  json::append_quoted(out, base.description);
  out += ", \"environment\": [";
  bool first = true;
  for (const auto& [key, value] : base.environment) {  // std::map: key-sorted
    if (!first) out += ", ";
    first = false;
    out += "{\"key\": ";
    json::append_quoted(out, key);
    out += ", \"value\": ";
    json::append_quoted(out, value);
    out += "}";
  }
  out += "], \"scaling\": " + json::dump_size(static_cast<std::size_t>(base.scaling));
  out += ", \"weak_scaling_function\": ";
  json::append_quoted(out, base.weak_scaling_function);
  out += ", \"subset_reason\": ";
  json::append_quoted(out, base.subset_reason);
  out += ", \"uses_subset\": ";
  out += base.uses_subset ? "true" : "false";
  out += ", \"parallel_measurement\": ";
  out += base.parallel_measurement ? "true" : "false";
  out += ", \"synchronization_method\": ";
  json::append_quoted(out, base.synchronization_method);
  out += ", \"summary_across_processes\": ";
  json::append_quoted(out, base.summary_across_processes);
  out += "}";

  out += ", \"factors\": [";
  for (std::size_t f = 0; f < spec.factors.size(); ++f) {
    if (f > 0) out += ", ";
    out += "{\"name\": ";
    json::append_quoted(out, spec.factors[f].name);
    out += ", \"levels\": [";
    for (std::size_t l = 0; l < spec.factors[f].levels.size(); ++l) {
      if (l > 0) out += ", ";
      json::append_quoted(out, spec.factors[f].levels[l]);
    }
    out += "]}";
  }
  out += "]";

  out += ", \"replications\": " + json::dump_size(spec.replications);
  const StoppingPolicy& p = spec.stopping;
  out += ", \"stopping\": {\"mode\": ";
  json::append_quoted(out, p.sequential() ? "sequential" : "fixed");
  out += ", \"min_reps\": " + json::dump_size(p.min_reps);
  out += ", \"max_reps\": " + json::dump_size(p.max_reps);
  out += ", \"target_rel_ci_half_width\": " + json::dump_number(p.target_rel_ci_half_width);
  out += ", \"confidence\": " + json::dump_number(p.confidence);
  out += ", \"quantile\": " + json::dump_number(p.quantile);
  out += ", \"ess_floor\": " + json::dump_number(p.ess_floor);
  out += ", \"round_quantum\": " + json::dump_size(p.round_quantum);
  out += ", \"max_lag\": " + json::dump_size(p.max_lag);
  out += "}";

  out += ", \"seed\": ";
  json::append_quoted(out, hex_u64(spec.seed));
  out += ", ";
  append_backend(out, backend);
  out += "}";
  return out;
}

CampaignEnvelope parse_campaign_json(std::string_view text) {
  const json::Value root = json::parse(text);
  check_schema(root, "scibench.campaign");

  CampaignEnvelope envelope;
  CampaignSpec& spec = envelope.spec;
  spec.name = root.at("name").as_string();
  spec.description = root.at("description").as_string();

  const json::Value& base = root.at("base");
  spec.base.name = base.at("name").as_string();
  spec.base.description = base.at("description").as_string();
  for (const auto& entry : base.at("environment").as_array()) {
    spec.base.environment[entry.at("key").as_string()] = entry.at("value").as_string();
  }
  const std::size_t scaling = base.at("scaling").as_size();
  if (scaling > static_cast<std::size_t>(core::ScalingMode::kWeak)) {
    throw std::runtime_error("wire: bad scaling mode");
  }
  spec.base.scaling = static_cast<core::ScalingMode>(scaling);
  spec.base.weak_scaling_function = base.at("weak_scaling_function").as_string();
  spec.base.subset_reason = base.at("subset_reason").as_string();
  spec.base.uses_subset = base.at("uses_subset").as_bool();
  spec.base.parallel_measurement = base.at("parallel_measurement").as_bool();
  spec.base.synchronization_method = base.at("synchronization_method").as_string();
  spec.base.summary_across_processes = base.at("summary_across_processes").as_string();

  for (const auto& factor : root.at("factors").as_array()) {
    core::Factor f;
    f.name = factor.at("name").as_string();
    for (const auto& level : factor.at("levels").as_array()) f.levels.push_back(level.as_string());
    spec.factors.push_back(std::move(f));
  }

  spec.replications = root.at("replications").as_size();
  const json::Value& stopping = root.at("stopping");
  StoppingPolicy& p = spec.stopping;
  const std::string mode = stopping.at("mode").as_string();
  if (mode == "sequential") {
    p.mode = StoppingPolicy::Mode::kSequential;
  } else if (mode == "fixed") {
    p.mode = StoppingPolicy::Mode::kFixed;
  } else {
    throw std::runtime_error("wire: unknown stopping mode \"" + mode + "\"");
  }
  p.min_reps = stopping.at("min_reps").as_size();
  p.max_reps = stopping.at("max_reps").as_size();
  p.target_rel_ci_half_width = stopping.at("target_rel_ci_half_width").as_number();
  p.confidence = stopping.at("confidence").as_number();
  p.quantile = stopping.at("quantile").as_number();
  p.ess_floor = stopping.at("ess_floor").as_number();
  p.round_quantum = stopping.at("round_quantum").as_size();
  p.max_lag = stopping.at("max_lag").as_size();

  spec.seed = parse_hex_u64(root.at("seed").as_string());
  envelope.backend = parse_backend(root.at("backend"));
  return envelope;
}

std::string backend_to_json(const SimBackendOptions& backend) {
  std::string out = "{";
  append_backend(out, backend);
  out += "}";
  return out;
}

/// The submit header's path members and the fields they carry.
constexpr std::pair<const char*, std::string Submission::*> kSubmitPaths[] = {
    {"journal", &Submission::journal_path},
    {"samples_csv", &Submission::samples_csv},
    {"summary_csv", &Submission::summary_csv},
    {"metrics", &Submission::metrics_path}};

std::string submit_header_to_json(const Submission& sub) {
  std::string out = "{\"op\": \"submit\", \"priority\": " + std::to_string(sub.priority);
  for (const auto& [key, field] : kSubmitPaths) {
    out += ", " + json::quoted(key) + ": ";
    json::append_quoted(out, sub.*field);
  }
  out += ", \"max_attempts\": " + json::dump_size(sub.max_attempts);
  out += ", \"heartbeat_s\": " + json::dump_number(sub.heartbeat_s);
  out += "}";
  return out;
}

Submission parse_submission(std::string_view header_line, std::string_view envelope_line) {
  const json::Value header = json::parse(header_line);
  if (header.at("op").as_string() != "submit") {
    throw std::runtime_error("unknown op \"" + header.at("op").as_string() + "\"");
  }
  CampaignEnvelope envelope = parse_campaign_json(envelope_line);

  Submission sub;
  sub.spec = std::move(envelope.spec);
  sub.backend = std::move(envelope.backend);
  for (const auto& [key, field] : kSubmitPaths) {
    if (const json::Value* v = header.find(key)) sub.*field = v->as_string();
  }
  // Every number is range-checked before it is cast: the casts are
  // undefined for NaN (a JSON null) and out-of-range values.
  if (const json::Value* v = header.find("priority")) {
    const double p = v->as_number();
    if (!(p >= INT_MIN && p <= INT_MAX) || p != std::trunc(p)) {
      throw std::invalid_argument("submit header: \"priority\" must be an integer in [" +
                                  std::to_string(INT_MIN) + ", " + std::to_string(INT_MAX) +
                                  "]");
    }
    sub.priority = static_cast<int>(p);
  }
  if (const json::Value* v = header.find("max_attempts")) {
    sub.max_attempts = v->as_size();  // 0 runs once, like 1
    if (sub.max_attempts > kMaxAttempts) {
      throw std::invalid_argument("submit header: \"max_attempts\" must be at most " +
                                  std::to_string(kMaxAttempts));
    }
  }
  if (const json::Value* v = header.find("heartbeat_s")) {
    sub.heartbeat_s = v->as_number();
    if (!(sub.heartbeat_s >= 0.0 && sub.heartbeat_s <= kMaxHeartbeatS)) {
      throw std::invalid_argument("submit header: \"heartbeat_s\" must be in [0, " +
                                  json::dump_number(kMaxHeartbeatS) + "] seconds");
    }
  }
  return sub;
}

std::string job_to_json(const SimBackendOptions& backend, const Config& config,
                        std::uint64_t seed) {
  std::string out;
  out.reserve(512);
  out += "{\"schema\": \"scibench.job\", \"version\": ";
  out += json::dump_size(static_cast<std::size_t>(kVersion));
  out += ", \"seed\": ";
  json::append_quoted(out, hex_u64(seed));
  out += ", ";
  append_config(out, config);
  out += ", ";
  append_backend(out, backend);
  out += "}";
  return out;
}

JobSpec parse_job_json(std::string_view text) {
  const json::Value root = json::parse(text);
  check_schema(root, "scibench.job");
  JobSpec job;
  job.seed = parse_hex_u64(root.at("seed").as_string());
  job.config = parse_config(root.at("config"));
  job.backend = parse_backend(root.at("backend"));
  return job;
}

void append_cell_result(std::string& out, const CellResult& result) {
  out += "{\"schema\": \"scibench.cell\", \"version\": ";
  out += json::dump_size(static_cast<std::size_t>(kVersion));
  out += ", \"unit\": ";
  json::append_quoted(out, result.unit);
  out += ", \"stop_reason\": ";
  json::append_quoted(out, result.stop_reason);
  out += ", \"warmup_discarded\": " + json::dump_size(result.warmup_discarded);
  out += ", \"error\": ";
  json::append_quoted(out, result.error);
  out += ", \"samples\": [";
  for (std::size_t i = 0; i < result.samples.size(); ++i) {
    if (i > 0) out += ", ";
    json::append_quoted(out, hex_double(result.samples[i]));
  }
  out += "]}";
}

CellResult cell_result_from_json(const json::Value& root) {
  check_schema(root, "scibench.cell");
  CellResult result;
  result.unit = root.at("unit").as_string();
  result.stop_reason = root.at("stop_reason").as_string();
  result.warmup_discarded = root.at("warmup_discarded").as_size();
  result.error = root.at("error").as_string();
  const auto& samples = root.at("samples").as_array();
  result.samples.reserve(samples.size());
  for (const auto& s : samples) {
    result.samples.push_back(parse_hex_double(s.as_string()));
  }
  return result;
}

std::string cell_result_to_json(const CellResult& result) {
  std::string out;
  out.reserve(64 + result.samples.size() * 20);
  append_cell_result(out, result);
  return out;
}

CellResult parse_cell_result_json(std::string_view text) {
  return cell_result_from_json(json::parse(text));
}

}  // namespace sci::exec::wire
