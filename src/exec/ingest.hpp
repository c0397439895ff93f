// exec::ingest -- bring external measurement CSVs back into the exec
// world. tools/scibench_report feeds on this: it loads any Dataset CSV
// (with the hardened, position-reporting parser in core::Dataset), and
// when the file is a campaign export (samples_dataset layout: config /
// rep / f_* / sample / value columns) it regroups the long-form rows
// into one series per grid cell so the report shows the factorial
// structure instead of one undifferentiated column.
#pragma once

#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "stats/confidence.hpp"

namespace sci::exec {

struct IngestedSeries {
  std::size_t config = 0;
  std::size_t rep = 0;
  /// "config 3 rep 0 (f_system=1 f_message_bytes=2)" -- level indices;
  /// the dataset's experiment header documents the index -> level map.
  std::string label;
  std::vector<double> values;
};

struct Ingested {
  core::Dataset dataset;
  /// True when the CSV follows the campaign samples_dataset layout.
  bool campaign = false;
  /// Per-cell series in (config, rep) order; empty unless `campaign`.
  std::vector<IngestedSeries> cells;
  /// Failed/interrupted-cell accounting recovered from the embedded
  /// experiment header (env.campaign.failed / env.campaign.failed_cells
  /// / env.campaign.interrupted). Zero/empty for clean campaigns, so a
  /// partially-failed export explains its missing cells instead of
  /// looking like a thinner grid.
  std::size_t failed = 0;
  std::size_t interrupted = 0;
  std::string failed_cells;
  /// Sequential-stopping metadata recovered from the header
  /// (env.campaign.stopping / rounds / rep_counts); empty/zero for
  /// fixed-replication campaigns. rep_counts[c] is the number of
  /// replications config c actually ran -- per-config counts vary under
  /// sequential stopping, which is why nothing here may assume
  /// cells.size() is configs * replications.
  std::string stopping;
  std::size_t rounds = 0;
  std::vector<std::size_t> rep_counts;
};

/// Loads `path` via core::Dataset::load_csv and detects/regroups
/// campaign exports. Throws std::runtime_error (with file/line/column
/// positions) on malformed input, including a campaign export whose
/// config or rep cell is not a non-negative integer.
[[nodiscard]] Ingested load_measurements(const std::string& path);

/// One config's pooled measurement summary (all reps concatenated in
/// cell order, the long-form row order of the export).
struct ConfigSummary {
  std::size_t config = 0;
  std::size_t reps = 0;  ///< replication series pooled into this config
  stats::QuantileSummary summary;
};

/// Pools each config's replications and computes the p-quantile + rank
/// CI per config (one sort per config, stats::grouped_quantile_summary
/// underneath, sharded over policy.threads workers). Output is ordered
/// by config id and byte-identical at any thread count.
[[nodiscard]] std::vector<ConfigSummary> summarize_configs(
    const Ingested& ingested, double p, double confidence = 0.95,
    const stats::ExecPolicy& policy = {});

}  // namespace sci::exec
