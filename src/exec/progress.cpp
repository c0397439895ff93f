#include "exec/progress.hpp"

#include <cstdio>

#include "obs/json.hpp"

namespace sci::exec {

namespace json = obs::json;

std::string ProgressSnapshot::to_json() const {
  std::string out;
  out.reserve(768);
  out += "{\n  \"schema\": \"scibench.campaign_metrics\",\n  \"version\": ";
  out += json::dump_size(static_cast<std::size_t>(kVersion));
  out += ",\n  \"campaign\": ";
  json::append_quoted(out, campaign);
  out += ",\n  \"backend\": ";
  json::append_quoted(out, backend);
  const auto field = [&out](const char* name, std::size_t value) {
    out += ",\n  \"";
    out += name;
    out += "\": " + json::dump_size(value);
  };
  field("total_cells", total_cells);
  field("completed", completed);
  field("executed", executed);
  field("failed", failed);
  field("retries", retries);
  field("cache_hits", cache_hits);
  field("journal_hits", journal_hits);
  field("interrupted", interrupted);
  field("samples_executed", samples_executed);
  field("samples_total", samples_total);
  out += ",\n  \"elapsed_s\": " + json::dump_number(elapsed_s);
  out += ",\n  \"finished\": ";
  out += finished ? "true" : "false";
  out += ",\n  \"sequential\": ";
  out += sequential ? "true" : "false";
  field("configs_total", configs_total);
  field("configs_converged", configs_converged);
  field("configs_capped", configs_capped);
  field("rounds", rounds);
  out += ",\n  \"rep_counts\": [";
  for (std::size_t i = 0; i < rep_counts.size(); ++i) {
    if (i > 0) out += ", ";
    out += json::dump_size(rep_counts[i]);
  }
  out += "]";
  out += ",\n  \"workers\": [";
  bool first = true;
  for (const auto& w : workers) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"cells\": " + json::dump_size(w.cells);
    out += ", \"busy_s\": " + json::dump_number(w.busy_s) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"counter_delta\": [";
  first = true;
  for (const auto& [name, value] : counter_delta) {  // already name-sorted
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"name\": ";
    json::append_quoted(out, name);
    out += ", \"value\": " + json::dump_size(static_cast<std::size_t>(value)) + "}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
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
  const json::Value root = json::parse(json_text);
  if (root.at("schema").as_string() != "scibench.campaign_metrics") {
    throw std::runtime_error("campaign metrics: unknown schema \"" +
                             root.at("schema").as_string() + "\"");
  }
  if (root.at("version").as_size() != static_cast<std::size_t>(ProgressSnapshot::kVersion)) {
    throw std::runtime_error("campaign metrics: unsupported version");
  }
  ProgressSnapshot snap;
  snap.campaign = root.at("campaign").as_string();
  snap.backend = root.at("backend").as_string();
  snap.total_cells = root.at("total_cells").as_size();
  snap.completed = root.at("completed").as_size();
  snap.executed = root.at("executed").as_size();
  snap.failed = root.at("failed").as_size();
  snap.retries = root.at("retries").as_size();
  snap.cache_hits = root.at("cache_hits").as_size();
  snap.journal_hits = root.at("journal_hits").as_size();
  snap.interrupted = root.at("interrupted").as_size();
  snap.samples_executed = root.at("samples_executed").as_size();
  snap.samples_total = root.at("samples_total").as_size();
  snap.elapsed_s = root.at("elapsed_s").as_number();
  snap.finished = root.at("finished").as_bool();
  snap.sequential = root.at("sequential").as_bool();
  snap.configs_total = root.at("configs_total").as_size();
  snap.configs_converged = root.at("configs_converged").as_size();
  snap.configs_capped = root.at("configs_capped").as_size();
  snap.rounds = root.at("rounds").as_size();
  for (const auto& r : root.at("rep_counts").as_array()) {
    snap.rep_counts.push_back(r.as_size());
  }
  for (const auto& w : root.at("workers").as_array()) {
    WorkerProgress wp;
    wp.cells = w.at("cells").as_size();
    wp.busy_s = w.at("busy_s").as_number();
    snap.workers.push_back(wp);
  }
  for (const auto& c : root.at("counter_delta").as_array()) {
    snap.counter_delta.emplace_back(c.at("name").as_string(),
                                    static_cast<std::uint64_t>(c.at("value").as_size()));
  }
  return snap;
}

void StderrHeartbeat::on_heartbeat(const ProgressSnapshot& snapshot) {
  std::fprintf(stderr, "%s\n", snapshot.to_line().c_str());
}

void StderrHeartbeat::on_complete(const ProgressSnapshot& snapshot) {
  std::fprintf(stderr, "%s -- done\n", snapshot.to_line().c_str());
}

}  // namespace sci::exec
