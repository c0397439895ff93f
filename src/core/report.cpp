#include "core/report.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "core/format.hpp"

namespace sci::core {
namespace {

std::string fmt(double v) { return format_general(v, 5); }

}  // namespace

ReportBuilder::ReportBuilder(Experiment experiment) : experiment_(std::move(experiment)) {}

ReportBuilder& ReportBuilder::add_series(const Series& series) {
  series_.push_back({series, summarize_series(series.values)});
  return *this;
}

ReportBuilder& ReportBuilder::add_speedup(const SpeedupReport& speedup) {
  speedups_.push_back(speedup);
  return *this;
}

ReportBuilder& ReportBuilder::declare_units_convention() {
  units_declared_ = true;
  return *this;
}

ReportBuilder& ReportBuilder::add_bound(const std::string& series_name,
                                        const std::string& model, double bound_value) {
  bounds_.push_back({series_name, model, bound_value});
  return *this;
}

ReportBuilder& ReportBuilder::add_plot(std::string plot_text) {
  plots_.push_back(std::move(plot_text));
  return *this;
}

ReportBuilder& ReportBuilder::add_comparison(const std::string& a, const std::string& b,
                                             const std::string& method, double p_value,
                                             double effect_size) {
  comparisons_.push_back({a, b, method, p_value, effect_size});
  return *this;
}

ReportBuilder& ReportBuilder::set_counter_summary(obs::CounterSnapshot counters) {
  counters_ = std::move(counters);
  // Callers assemble the snapshot from several sources (CSV provenance
  // sums, then live registry counters); sort so the rendered footer is
  // deterministic regardless of assembly order.
  std::sort(counters_.begin(), counters_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return *this;
}

std::string ReportBuilder::render() const {
  TextBuilder os;
  os << "==== " << experiment_.name << " ====\n";
  os << experiment_.to_header() << '\n';
  if (units_declared_) {
    os << "units: flop (count), flop/s (rate), B (bytes), b (bits); "
          "binary prefixes use IEC (KiB, MiB)\n\n";
  }
  for (const auto& [series, summary] : series_) {
    os << "series " << series.name << " [" << series.unit << "], n=" << summary.n << '\n';
    if (summary.deterministic) {
      os << "  deterministic: " << fmt(summary.representative) << ' ' << series.unit << '\n';
      continue;
    }
    os << "  median=" << fmt(summary.median);
    if (summary.median_ci) {
      os << "  CI" << static_cast<int>(summary.median_ci->confidence * 100) << "%(median)=["
         << fmt(summary.median_ci->lower) << ", " << fmt(summary.median_ci->upper) << ']';
    }
    os << '\n';
    os << "  mean=" << fmt(summary.mean);
    if (summary.mean_ci) {
      os << "  CI" << static_cast<int>(summary.mean_ci->confidence * 100) << "%(mean)=["
         << fmt(summary.mean_ci->lower) << ", " << fmt(summary.mean_ci->upper) << ']';
    } else {
      os << "  (no parametric CI: normality not plausible)";
    }
    os << '\n';
    os << "  min=" << fmt(summary.min) << "  q1=" << fmt(summary.q1)
       << "  q3=" << fmt(summary.q3) << "  p95=" << fmt(summary.p95)
       << "  p99=" << fmt(summary.p99) << "  max=" << fmt(summary.max) << '\n';
    os << "  CoV=" << fmt(summary.cov);
    if (summary.normality) {
      os << "  Shapiro-Wilk W=" << fmt(summary.normality->statistic)
         << " p=" << fmt(summary.normality->p_value)
         << (summary.normal_plausible ? " (normal plausible)" : " (not normal)");
    }
    os << '\n';
    if (summary.iid_check) {
      os << "  iid: Ljung-Box Q=" << fmt(summary.iid_check->statistic)
         << " p=" << fmt(summary.iid_check->p_value) << ", effective n ~ "
         << fmt(summary.effective_n);
      if (!summary.iid_plausible) {
        os << "  WARNING: samples are autocorrelated; CIs are too narrow";
      }
      os << '\n';
    }
    os << "  representative: " << summary.representative_kind << " = "
       << fmt(summary.representative) << ' ' << series.unit << "\n\n";
  }
  for (const auto& speedup : speedups_) os << speedup.to_string() << '\n';
  for (const auto& bound : bounds_) {
    os << "bound[" << bound.series_name << "] " << bound.model << " <= " << fmt(bound.value)
       << '\n';
  }
  for (const auto& cmp : comparisons_) {
    os << "compare " << cmp.a << " vs " << cmp.b << " (" << cmp.method
       << "): p=" << fmt(cmp.p_value) << ", effect size=" << fmt(cmp.effect) << '\n';
  }
  for (const auto& plot : plots_) os << '\n' << plot;
  if (!counters_.empty()) {
    os << "\nprovenance counters (how these numbers were produced):\n";
    for (const auto& [name, value] : counters_) {
      os << "  " << name << " = " << value << '\n';
    }
  }
  return std::move(os).str();
}

std::string ReportBuilder::render_markdown() const {
  TextBuilder os;
  os << "## " << experiment_.name << "\n\n";
  if (!experiment_.description.empty()) os << experiment_.description << "\n\n";

  if (!experiment_.environment.empty() || !experiment_.factors.empty()) {
    os << "### Setup (Rule 9)\n\n";
    for (const auto& [key, value] : experiment_.environment) {
      os << "- **" << key << "**: " << value << '\n';
    }
    for (const auto& factor : experiment_.factors) {
      os << "- factor **" << factor.name << "**:";
      for (const auto& level : factor.levels) os << " `" << level << "`";
      os << '\n';
    }
    if (!experiment_.synchronization_method.empty()) {
      os << "- sync: " << experiment_.synchronization_method
         << "; cross-process summary: " << experiment_.summary_across_processes << '\n';
    }
    os << '\n';
  }

  if (!series_.empty()) {
    os << "### Measurements\n\n";
    os << "| series | n | median | 95% CI (median) | mean | p99 | CoV | normal? | iid? |\n";
    os << "|---|---|---|---|---|---|---|---|---|\n";
    for (const auto& [series, summary] : series_) {
      os << "| " << series.name << " [" << series.unit << "] | " << summary.n << " | ";
      if (summary.deterministic) {
        os << fmt(summary.representative) << " | deterministic | - | - | 0 | - | - |\n";
        continue;
      }
      os << fmt(summary.median) << " | ";
      if (summary.median_ci) {
        os << '[' << fmt(summary.median_ci->lower) << ", " << fmt(summary.median_ci->upper)
           << "] | ";
      } else {
        os << "n/a | ";
      }
      os << fmt(summary.mean) << " | " << fmt(summary.p99) << " | " << fmt(summary.cov)
         << " | " << (summary.normal_plausible ? "plausible" : "**no**") << " | "
         << (summary.iid_plausible ? "plausible" : "**autocorrelated**") << " |\n";
    }
    os << '\n';
  }

  for (const auto& speedup : speedups_) {
    os << "### Speedup (Rule 1)\n\n```\n" << speedup.to_string() << "```\n\n";
  }
  if (!bounds_.empty()) {
    os << "### Bounds (Rule 11)\n\n";
    for (const auto& bound : bounds_) {
      os << "- `" << bound.series_name << "` <= " << fmt(bound.value) << " (" << bound.model
         << ")\n";
    }
    os << '\n';
  }
  if (!comparisons_.empty()) {
    os << "### Comparisons (Rule 7)\n\n";
    for (const auto& cmp : comparisons_) {
      os << "- " << cmp.a << " vs " << cmp.b << ": " << cmp.method
         << " p = " << fmt(cmp.p_value) << ", effect size " << fmt(cmp.effect) << '\n';
    }
    os << '\n';
  }
  if (!plots_.empty()) {
    os << "### Plots (Rule 12)\n\n";
    for (const auto& plot : plots_) os << "```\n" << plot << "```\n\n";
  }

  os << "### Twelve-rule audit\n\n";
  for (const auto& check : audit()) {
    os << "- [" << (check.satisfied || !check.applicable ? 'x' : ' ') << "] Rule "
       << check.rule << ": " << check.name;
    if (!check.applicable) os << " *(n/a)*";
    if (!check.note.empty()) os << " -- " << check.note;
    os << '\n';
  }
  if (!counters_.empty()) {
    os << "\n### Provenance counters (Rule 9)\n\n";
    os << "| counter | value |\n|---|---|\n";
    for (const auto& [name, value] : counters_) {
      os << "| `" << name << "` | " << value << " |\n";
    }
  }
  return std::move(os).str();
}

std::vector<RuleCheck> ReportBuilder::audit() const {
  std::vector<RuleCheck> checks;

  // Rule 1: speedups carry base case + absolute base performance.
  {
    RuleCheck c{1, "speedup base case documented", true, !speedups_.empty(), ""};
    for (const auto& s : speedups_) {
      if (s.base_absolute <= 0.0 || s.base_unit.empty()) {
        c.satisfied = false;
        c.note = "speedup without absolute base performance";
      }
    }
    if (speedups_.empty()) c.note = "no speedups reported";
    checks.push_back(c);
  }
  // Rule 2: subsets must carry a reason.
  checks.push_back({2, "subset reasons stated",
                    !experiment_.uses_subset || !experiment_.subset_reason.empty(),
                    experiment_.uses_subset,
                    experiment_.uses_subset ? "" : "no subset declared"});
  // Rules 3/4 are enforced by the type system (stats::summarize on
  // Cost/Rate/Ratio); a report cannot hold a wrong-mean summary.
  checks.push_back({3, "correct mean for costs/rates (type-enforced)", true, true,
                    "see stats/summarize.hpp"});
  checks.push_back({4, "ratios not averaged (type-enforced)", true, true,
                    "see stats/summarize.hpp"});
  // Rule 5: nondeterministic series carry CIs.
  {
    RuleCheck c{5, "CIs reported for nondeterministic data", true, false, ""};
    for (const auto& [series, summary] : series_) {
      if (!summary.deterministic) {
        c.applicable = true;
        if (!summary.median_ci && !summary.mean_ci) {
          c.satisfied = false;
          c.note = "series '" + series.name + "' lacks a CI (n too small?)";
        }
      }
    }
    checks.push_back(c);
  }
  // Rule 6: normality diagnosed, not assumed.
  {
    RuleCheck c{6, "normality diagnostically checked", true, false, ""};
    for (const auto& [series, summary] : series_) {
      if (!summary.deterministic) {
        c.applicable = true;
        if (summary.mean_ci && !summary.normality) {
          c.satisfied = false;
          c.note = "parametric CI without normality diagnostic";
        }
      }
    }
    checks.push_back(c);
  }
  // Rule 7: comparisons use statistical tests.
  checks.push_back({7, "comparisons statistically sound", !comparisons_.empty(),
                    series_.size() >= 2,
                    comparisons_.empty() ? "no statistical comparison attached" : ""});
  // Rule 8: percentiles beyond central tendency are reported.
  checks.push_back({8, "tail percentiles reported", !series_.empty(), !series_.empty(),
                    "p95/p99 included in summaries"});
  // Rule 9: setup documented.
  {
    const auto issues = experiment_.audit();
    RuleCheck c{9, "experimental setup documented", issues.empty(), true, ""};
    if (!issues.empty()) c.note = issues.front();
    checks.push_back(c);
  }
  // Rule 10: parallel measurement/sync/summarization methods recorded;
  // only applicable to parallel measurements.
  {
    const bool parallel = experiment_.parallel_measurement ||
                          !experiment_.synchronization_method.empty() ||
                          !experiment_.summary_across_processes.empty();
    checks.push_back({10, "parallel timing methods documented",
                      !experiment_.synchronization_method.empty() &&
                          !experiment_.summary_across_processes.empty(),
                      parallel, parallel ? "" : "serial measurement"});
  }
  // Rule 11: bounds attached.
  checks.push_back({11, "upper performance bounds shown", !bounds_.empty(), true,
                    bounds_.empty() ? "no bound models attached" : ""});
  // Rule 12: plots attached.
  checks.push_back({12, "results plotted", !plots_.empty(), true,
                    plots_.empty() ? "no plots attached" : ""});
  return checks;
}

std::string ReportBuilder::render_audit(const std::vector<RuleCheck>& checks) {
  std::ostringstream os;
  os << "Twelve-rule audit:\n";
  for (const auto& c : checks) {
    os << "  [" << (!c.applicable ? '-' : (c.satisfied ? 'x' : ' ')) << "] Rule "
       << std::setw(2) << c.rule << ": " << c.name;
    if (!c.note.empty()) os << "  (" << c.note << ')';
    os << '\n';
  }
  return os.str();
}

}  // namespace sci::core
