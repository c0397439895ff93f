// CampaignJournal: append-only on-disk record of completed campaign
// cells, giving CampaignRunner crash-safe checkpoint/resume.
//
// The journal is a file of canonical JSON lines (obs/json.hpp): one
// header line, then one line per finished cell (successful OR failed --
// both outcomes are final; only interrupted cells are withheld so a
// resume retries them) and one per retired config:
//
//   {"schema": "scibench.journal", "version": 4, "fingerprint": "<16 hex>"}
//   {"cell": c, "rep": r, "seed": "<16 hex>", "attempts": a, "result": <scibench.cell>}
//   {"stop": c, "reps": n, "reason": "..."}
//
// "result" is the object a worker reply carries (wire::cell_fields), so
// a CellResult has one codec on the pipe and on disk. Each line kind is
// one field list (obs/json.hpp) that writes and reads it. Every
// append is fflush()ed before the runner moves on, so after a crash or
// kill the file holds every cell whose record write completed plus at
// most one torn line at the tail. On replay a line that does not parse
// or lacks a field is skipped; later records still replay, and a
// missing final newline is healed before the next append, so the
// resumed run simply re-executes the torn cell.
//
// Byte-exactness: samples are stored as 16-hex-digit IEEE-754 bit
// patterns, not decimal, so a journal round-trip reproduces the exact
// doubles the backend emitted and resumed campaigns export CSVs that
// are byte-identical to an uninterrupted run (pinned by
// tests/test_exec_resilience.cpp).
//
// Identity: the header carries a fingerprint of the campaign's compiled
// Rule 9 header (Campaign::experiment().to_header(): every factor and
// level, the replications or the stopping policy, the seed) and the
// backend's identity() (its name and options). A journal written under
// another level, sample count or CI target therefore refuses to
// resume: opening a journal written by a different campaign or backend
// throws instead of silently serving wrong cells. Within a journal, records are keyed by
// (config_index, rep) and additionally carry the cell seed; a record
// whose seed disagrees with the requested cell (e.g. the campaign
// gained a seed_override) is ignored rather than trusted.
//
// Stop records are appended when a sequential campaign retires a
// config. On resume the runner recomputes each stop decision from the
// replayed samples -- the decisions are deterministic, so the journaled
// record acts as a cross-run consistency check (mismatch throws) rather
// than a directive.
//
// Versions: v1 and v2 journals (the earlier space-separated token
// format) are refused like any foreign file -- std::runtime_error at
// open. A v3 journal is refused with a message naming its version: its
// fingerprint covered neither factor levels nor backend options, so it
// cannot prove it belongs to the campaign. Delete such journals, or
// finish the campaign with the release that wrote them.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>

#include "exec/backend.hpp"
#include "exec/campaign.hpp"

namespace sci::exec {

class CampaignJournal {
 public:
  /// Opens (or creates) the journal at `path`, replaying any existing
  /// records. Throws std::runtime_error when the file exists but is not
  /// a version-4 journal or its fingerprint does not match, or when it
  /// cannot be opened/created.
  CampaignJournal(std::string path, std::uint64_t fingerprint);
  ~CampaignJournal();

  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  /// The recorded result of (config_index, rep), or nullptr when the
  /// cell is not journaled or was journaled under a different seed.
  [[nodiscard]] const CellResult* find(std::size_t config_index, std::size_t rep,
                                       std::uint64_t seed) const;

  /// Appends one finished cell and flushes it to disk before returning.
  /// Thread-safe (the runner's workers append concurrently).
  void append(std::size_t config_index, std::size_t rep, std::uint64_t seed,
              const CellResult& result);

  /// A journaled per-config stop decision (sequential stopping).
  struct StopRecord {
    std::size_t reps = 0;
    std::string reason;
  };

  /// The journaled stop decision for a config, or nullptr.
  [[nodiscard]] const StopRecord* find_stop(std::size_t config_index) const;

  /// Appends one stop decision and flushes it before returning.
  void append_stop(std::size_t config_index, std::size_t reps, const std::string& reason);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Campaign/backend identity hash written into the journal header:
  /// splitmix64 chained over the campaign name, its Rule 9 header
  /// (Campaign::experiment().to_header()) and `backend_identity`
  /// (Backend::identity()). Fixed-mode headers carry the replication
  /// count, not the policy, so their fingerprints do not depend on it.
  [[nodiscard]] static std::uint64_t fingerprint(const Campaign& campaign,
                                                 const std::string& backend_identity);

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  mutable std::mutex mutex_;
  /// (config_index, rep) -> (seed, result).
  std::map<std::pair<std::size_t, std::size_t>, std::pair<std::uint64_t, CellResult>>
      records_;
  /// config_index -> stop decision.
  std::map<std::size_t, StopRecord> stops_;
};

}  // namespace sci::exec
