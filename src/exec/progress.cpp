#include "exec/progress.hpp"

#include <cstdio>

#include "obs/json.hpp"

namespace sci::exec {

namespace json = obs::json;

constexpr auto worker_fields = [](auto& io, auto& w) {
  io("cells", w.cells);
  io("busy_s", w.busy_s);
};

constexpr auto snapshot_fields = [](auto& io, auto& s) {
  io.schema({"scibench.campaign_metrics", ProgressSnapshot::kVersion});
  io("campaign", s.campaign);
  io("backend", s.backend);
  io("total_cells", s.total_cells);
  io("completed", s.completed);
  io("executed", s.executed);
  io("failed", s.failed);
  io("retries", s.retries);
  io("cache_hits", s.cache_hits);
  io("journal_hits", s.journal_hits);
  io("interrupted", s.interrupted);
  io("samples_executed", s.samples_executed);
  io("samples_total", s.samples_total);
  io("elapsed_s", s.elapsed_s);
  io("finished", s.finished);
  io("sequential", s.sequential);
  io("configs_total", s.configs_total);
  io("configs_converged", s.configs_converged);
  io("configs_capped", s.configs_capped);
  io("rounds", s.rounds);
  io.list("rep_counts", s.rep_counts);
  io.list("workers", s.workers, worker_fields);
  io.list("counter_delta", s.counter_delta, obs::counter_fields);  // already name-sorted
};

std::string ProgressSnapshot::to_json() const {
  return json::write(json::Layout::kIndented, snapshot_fields, *this);
}

std::string ProgressSnapshot::to_line() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "campaign %s [%s]: %zu/%zu cells (%zu run, %zu cached, %zu journal, "
                "%zu failed, %zu interrupted), %zu samples, %.1fs",
                campaign.c_str(), backend.c_str(), completed, total_cells, executed,
                cache_hits, journal_hits, failed, interrupted, samples_executed,
                elapsed_s);
  std::string line = buf;
  if (sequential) {
    std::snprintf(buf, sizeof buf, ", round %zu: %zu/%zu configs converged, %zu capped",
                  rounds, configs_converged, configs_total, configs_capped);
    line += buf;
  }
  return line;
}

ProgressSnapshot parse_progress_snapshot(std::string_view json_text) {
  ProgressSnapshot snap;
  json::Reader(json::parse(json_text), "campaign metrics").read(snapshot_fields, snap);
  return snap;
}

void StderrHeartbeat::on_heartbeat(const ProgressSnapshot& snapshot) {
  std::fprintf(stderr, "%s\n", snapshot.to_line().c_str());
}

void StderrHeartbeat::on_complete(const ProgressSnapshot& snapshot) {
  std::fprintf(stderr, "%s -- done\n", snapshot.to_line().c_str());
}

}  // namespace sci::exec
