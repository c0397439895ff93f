// The benchmark's workloads: every input is generated from the seed.
//
// Each workload runs the same user pipeline -- a campaign through its
// path until the CSVs are on disk, the identical (fully deduplicated)
// resubmission, the same campaign in-process at one worker as the
// absolute base, scibench_report on the campaign's samples CSV, and
// scibench_ci gate on a seeded history plus one fresh BENCH_*.json -- so
// every run reports every end-to-end metric. The workloads differ in
// what dominates that pipeline; RATIONALE.md says why each was chosen.
#pragma once

#include <cstdint>
#include <string>

#include "exec/campaign.hpp"
#include "exec/sim_backend.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  /// The campaign and its resubmission go through a live scibenchd;
  /// otherwise through an in-process CampaignRunner.
  bool daemon_path = false;
  sci::exec::CampaignSpec spec;
  sci::exec::SimBackendOptions backend;
  /// Seeded scibench_ci history: metrics x points, flat noise, one metric
  /// stepped in its last points and in the fresh report.
  std::size_t history_metrics = 0;
  std::size_t history_points = 0;
  std::size_t injected = 0;
};

/// Throws std::invalid_argument on an unknown workload name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed);

[[nodiscard]] std::string history_metric_name(std::size_t index);

/// Writes the seeded history (JSONL, via ci::HistoryStore) to `path`,
/// replacing any existing file.
void write_history(const Workload& workload, std::uint64_t seed, const std::string& path);

/// Writes the fresh bench report `dir`/BENCH_perfbench.json and returns
/// its path.
std::string write_fresh_report(const Workload& workload, std::uint64_t seed,
                               const std::string& dir);

}  // namespace perfbench
