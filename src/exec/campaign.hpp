// Campaign: the executable factorial design (Rule 9 made runnable).
//
// A CampaignSpec declares the factors and their levels, the number of
// replications per cell, the campaign seed, and the fixed-environment
// documentation. Campaign compiles the spec into
//   - the enumerated grid of Configs (row-major, first factor slowest),
//   - per-cell seeds via exec::derive_seed (or a caller override for
//     reproducing historical runs), and
//   - a core::Experiment whose factor list IS the executed grid, so the
//     Rule 9 metadata in reports and CSV headers can no longer drift
//     from what actually ran.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "exec/backend.hpp"

namespace sci::exec {

/// Measurement-control policy for a campaign (Rules 9/10 made
/// adaptive). Two modes:
///
///   kFixed       every config runs exactly `replications` cells --
///                today's behavior, byte-for-byte. `fixed(n)` also
///                pins the replication count in one place.
///   kSequential  the runner executes in rounds: each config starts
///                with `min_reps` replications, then after every round
///                the pooled samples of each live config are tested
///                against the rank-CI convergence criterion (relative
///                CI half-width of `quantile` <= target at
///                `confidence`, plus an effective-sample-size floor).
///                Converged configs retire early; their freed budget is
///                reallocated to the widest-CI configs by deterministic
///                rank. `max_reps` caps any single config.
///
/// All sequential decisions are functions of the pooled sample values
/// in (config, rep) order -- never of timing, worker count, or round
/// scheduling -- so sequential campaigns stay byte-deterministic at any
/// worker count and across kill/resume.
struct StoppingPolicy {
  enum class Mode { kFixed, kSequential };

  Mode mode = Mode::kFixed;

  /// Replications every config runs before the first convergence check
  /// (sequential mode; must be >= 1). Unused in fixed mode.
  std::size_t min_reps = 0;

  /// Fixed mode: 0 = defer to CampaignSpec::replications, nonzero
  /// overrides it. Sequential mode: hard cap per config (>= min_reps).
  std::size_t max_reps = 0;

  /// Stop once the rank CI of `quantile` lies within
  /// +-target_rel_ci_half_width of the quantile itself.
  double target_rel_ci_half_width = 0.05;
  double confidence = 0.95;
  double quantile = 0.5;

  /// Pooled effective-sample-size floor (autocorrelation-corrected);
  /// 0 disables the check. Default-constructed policies (and fixed())
  /// leave it at 0; sequential_ci() arms it with kDefaultEssFloor so
  /// an autocorrelated series cannot satisfy the CI criterion on what
  /// is effectively a handful of independent observations. Set it back
  /// to 0 after the factory call to opt out explicitly.
  double ess_floor = 0.0;

  /// Default floor applied by sequential_ci(): a config must carry at
  /// least this many effectively independent samples (n / integrated
  /// autocorrelation time, stats::OnlineSeries::effective_sample_size)
  /// before its rank CI is allowed to stop it. 32 keeps the rank-CI
  /// normal approximation honest while staying far below the pooled
  /// sample counts of even the smallest sequential campaigns shipped
  /// here, so iid-noise studies stop on the same round as before.
  static constexpr double kDefaultEssFloor = 32.0;

  /// Replications granted to each live config per round after the
  /// first; retired configs' quanta are reallocated to the live ones.
  std::size_t round_quantum = 1;

  /// Autocorrelation window for the ESS estimate.
  std::size_t max_lag = 32;

  [[nodiscard]] static StoppingPolicy fixed(std::size_t n = 0) {
    StoppingPolicy p;
    p.mode = Mode::kFixed;
    p.min_reps = n;
    p.max_reps = n;
    return p;
  }

  [[nodiscard]] static StoppingPolicy sequential_ci(double target_rel_ci_half_width,
                                                    std::size_t min_reps = 4,
                                                    std::size_t max_reps = 64) {
    StoppingPolicy p;
    p.mode = Mode::kSequential;
    p.min_reps = min_reps;
    p.max_reps = max_reps;
    p.target_rel_ci_half_width = target_rel_ci_half_width;
    p.ess_floor = kDefaultEssFloor;
    return p;
  }

  [[nodiscard]] bool sequential() const noexcept { return mode == Mode::kSequential; }

  /// One-line description recorded in the compiled Experiment
  /// (sequential mode only) and mixed into the journal fingerprint.
  [[nodiscard]] std::string describe() const;
};

/// "fixed" or "sequential".
[[nodiscard]] const char* to_string(StoppingPolicy::Mode mode) noexcept;

struct CampaignSpec {
  std::string name;
  std::string description;

  /// Fixed-environment documentation (environment map, scaling mode,
  /// synchronization method, subset declaration...). Its factor list
  /// must be empty -- factors below are the single source of truth.
  core::Experiment base;

  /// The varying factors and their levels; the grid is their cross
  /// product. Factor names must be unique and each needs >= 1 level.
  std::vector<core::Factor> factors;

  /// Replications per grid cell (paper Sec. 4.2.2: one measurement is
  /// not a result). Each replication gets its own derived seed. In
  /// sequential stopping mode this is ignored (the policy's min/max
  /// bounds govern); in fixed mode StoppingPolicy::fixed(n) with n != 0
  /// overrides it.
  std::size_t replications = 1;

  /// Measurement-control policy; defaults to fixed replications
  /// (today's behavior, byte-for-byte).
  StoppingPolicy stopping;

  /// Campaign seed; cell seeds derive from it (see exec::derive_seed).
  std::uint64_t seed = 0x5c1b3ac4d2e9f107ULL;

  /// Optional seed override, e.g. to reproduce a historical study that
  /// hand-picked seeds. When set it replaces derive_seed entirely; the
  /// mapping is recorded as opaque in the compiled Experiment.
  std::function<std::uint64_t(const Config&, std::size_t rep)> seed_override;
};

class Campaign {
 public:
  /// Validates and freezes the spec; throws std::invalid_argument on an
  /// empty name, duplicate/empty factors, zero replications, or a base
  /// Experiment that already declares factors.
  explicit Campaign(CampaignSpec spec);

  [[nodiscard]] const CampaignSpec& spec() const noexcept { return spec_; }

  /// Number of grid cells (product of level counts; 1 when no factors).
  [[nodiscard]] std::size_t config_count() const noexcept { return config_count_; }
  /// Fixed mode: config_count() * replications, the exact cell total.
  /// Sequential mode: config_count() * max_reps, an upper bound (the
  /// actual count is decided round by round).
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return config_count_ * (spec_.stopping.sequential() ? spec_.stopping.max_reps
                                                        : spec_.replications);
  }

  /// Decodes grid position `index` (row-major) into a Config.
  [[nodiscard]] Config config(std::size_t index) const;
  [[nodiscard]] std::vector<Config> configs() const;

  /// The seed replication `rep` of `config` runs with.
  [[nodiscard]] std::uint64_t seed_for(const Config& config, std::size_t rep) const;

  /// Compiles the executed design into Rule 9 documentation: base
  /// experiment + the factor grid + campaign.{seed, replications,
  /// seed_derivation, backend} environment entries.
  [[nodiscard]] core::Experiment experiment(const Backend* backend = nullptr) const;

 private:
  CampaignSpec spec_;
  std::size_t config_count_ = 1;
};

}  // namespace sci::exec
