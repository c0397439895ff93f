#include "exec/campaign.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace sci::exec {

namespace {

/// Shortest %g-style text for policy parameters (stable across
/// platforms for the plain values policies use).
std::string compact_double(double v) {
  char buffer[64];
  const int len = std::snprintf(buffer, sizeof buffer, "%g", v);
  return std::string(buffer, static_cast<std::size_t>(len > 0 ? len : 0));
}

}  // namespace

const char* to_string(StoppingPolicy::Mode mode) noexcept {
  return mode == StoppingPolicy::Mode::kSequential ? "sequential" : "fixed";
}

std::string StoppingPolicy::describe() const {
  std::string out = to_string(mode);
  if (!sequential()) return max_reps == 0 ? out : out + " n=" + std::to_string(max_reps);
  out += " quantile=" + compact_double(quantile);
  out += " target=" + compact_double(target_rel_ci_half_width);
  out += " confidence=" + compact_double(confidence);
  out += " min_reps=" + std::to_string(min_reps);
  out += " max_reps=" + std::to_string(max_reps);
  out += " quantum=" + std::to_string(round_quantum);
  out += " ess_floor=" + compact_double(ess_floor);
  out += " max_lag=" + std::to_string(max_lag);
  return out;
}

const std::string* Config::find_level(const std::string& factor) const noexcept {
  for (const auto& [name, value] : levels) {
    if (name == factor) return &value;
  }
  return nullptr;
}

const std::string& Config::level(const std::string& factor) const {
  if (const std::string* v = find_level(factor)) return *v;
  throw std::out_of_range("Config::level: no factor '" + factor + "' in " + to_string());
}

long long Config::level_int(const std::string& factor) const {
  const std::string& text = level(factor);
  long long value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::invalid_argument("Config::level_int: factor '" + factor + "' level '" +
                                text + "' is not an integer");
  }
  return value;
}

std::string Config::to_string() const {
  std::string out;
  for (const auto& [name, value] : levels) {
    if (!out.empty()) out += ' ';
    out += name;
    out += '=';
    out += value;
  }
  return out.empty() ? std::string("(no factors)") : out;
}

std::uint64_t Config::hash(std::uint64_t salt) const noexcept {
  // splitmix64 absorb: mix each byte-run of every name/value plus
  // separators, so "a"+"bc" and "ab"+"c" hash differently.
  std::uint64_t state = salt ^ 0x9e3779b97f4a7c15ULL;
  const auto absorb = [&state](const std::string& s) {
    state = rng::splitmix64_next(state) ^ s.size();
    for (unsigned char c : s) state = rng::splitmix64_next(state) ^ c;
  };
  for (const auto& [name, value] : levels) {
    absorb(name);
    absorb(value);
  }
  return rng::splitmix64_next(state);
}

Campaign::Campaign(CampaignSpec spec) : spec_(std::move(spec)) {
  if (spec_.name.empty()) throw std::invalid_argument("Campaign: empty name");
  const StoppingPolicy& stop = spec_.stopping;
  if (stop.sequential()) {
    if (stop.min_reps == 0)
      throw std::invalid_argument("Campaign: sequential stopping needs min_reps >= 1");
    if (stop.max_reps < stop.min_reps)
      throw std::invalid_argument("Campaign: sequential stopping needs max_reps >= min_reps");
    if (!(stop.target_rel_ci_half_width > 0.0))
      throw std::invalid_argument("Campaign: sequential stopping needs target > 0");
    if (!(stop.quantile > 0.0 && stop.quantile < 1.0))
      throw std::invalid_argument("Campaign: sequential stopping needs quantile in (0,1)");
    if (!(stop.confidence > 0.0 && stop.confidence < 1.0))
      throw std::invalid_argument("Campaign: sequential stopping needs confidence in (0,1)");
    if (stop.round_quantum == 0)
      throw std::invalid_argument("Campaign: sequential stopping needs round_quantum >= 1");
    if (stop.max_lag == 0)
      throw std::invalid_argument("Campaign: sequential stopping needs max_lag >= 1");
  } else if (stop.max_reps != 0) {
    // fixed(n): the policy is the single source of truth; keep the
    // legacy replications field in sync so seeds, fingerprints, and
    // Rule 9 metadata are identical to a spec that set replications=n.
    spec_.replications = stop.max_reps;
  }
  if (spec_.replications == 0)
    throw std::invalid_argument("Campaign: replications must be >= 1");
  if (!spec_.base.factors.empty()) {
    throw std::invalid_argument(
        "Campaign: declare factors in CampaignSpec::factors, not in the base "
        "Experiment (the grid is the single source of truth)");
  }
  config_count_ = 1;
  for (std::size_t i = 0; i < spec_.factors.size(); ++i) {
    const auto& f = spec_.factors[i];
    if (f.name.empty()) throw std::invalid_argument("Campaign: unnamed factor");
    if (f.levels.empty())
      throw std::invalid_argument("Campaign: factor '" + f.name + "' has no levels");
    for (std::size_t j = 0; j < i; ++j) {
      if (spec_.factors[j].name == f.name)
        throw std::invalid_argument("Campaign: duplicate factor '" + f.name + "'");
    }
    config_count_ *= f.levels.size();
  }
}

Config Campaign::config(std::size_t index) const {
  if (index >= config_count_)
    throw std::out_of_range("Campaign::config: index " + std::to_string(index) +
                            " >= " + std::to_string(config_count_));
  Config c;
  c.index = index;
  c.levels.reserve(spec_.factors.size());
  c.level_indices.resize(spec_.factors.size());
  // Row-major decode, first factor slowest-varying.
  std::size_t remainder = index;
  for (std::size_t f = spec_.factors.size(); f-- > 0;) {
    const auto& factor = spec_.factors[f];
    c.level_indices[f] = remainder % factor.levels.size();
    remainder /= factor.levels.size();
  }
  for (std::size_t f = 0; f < spec_.factors.size(); ++f) {
    c.levels.emplace_back(spec_.factors[f].name,
                          spec_.factors[f].levels[c.level_indices[f]]);
  }
  return c;
}

std::vector<Config> Campaign::configs() const {
  std::vector<Config> out;
  out.reserve(config_count_);
  for (std::size_t i = 0; i < config_count_; ++i) out.push_back(config(i));
  return out;
}

std::uint64_t Campaign::seed_for(const Config& config, std::size_t rep) const {
  if (spec_.seed_override) return spec_.seed_override(config, rep);
  return derive_seed(spec_.seed, config.index, rep);
}

core::Experiment Campaign::experiment(const Backend* backend) const {
  core::Experiment e = spec_.base;
  if (e.name.empty()) e.name = spec_.name;
  if (e.description.empty()) e.description = spec_.description;
  e.factors = spec_.factors;
  if (spec_.stopping.sequential()) {
    // Per-config rep counts are decided at run time; the stopping
    // policy (not a flat count) is the Rule 9 documentation here.
    e.set("campaign.replications", "adaptive");
    e.set("campaign.stopping", spec_.stopping.describe());
  } else {
    e.set("campaign.replications", std::to_string(spec_.replications));
  }
  e.set("campaign.seed", std::to_string(spec_.seed));
  e.set("campaign.seed_derivation",
        spec_.seed_override
            ? "caller-provided override(config, rep)"
            : "splitmix64 chain over (campaign_seed, config_index, rep)");
  if (backend != nullptr) e.set("campaign.backend", backend->describe());
  return e;
}

}  // namespace sci::exec
