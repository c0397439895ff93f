// Wire format for the campaign service: line-delimited canonical JSON
// over local transports (Unix-domain sockets, worker pipes).
//
// Each message declares its members once, as a field list
// (obs/json.hpp): json::Writer walks the list to emit the line and
// json::Reader walks the same list to parse it, so an emitter cannot
// drift from its parser and emit -> parse -> re-emit is byte-identical.
// The lists live in wire.cpp; cell_fields, which the campaign journal
// embeds, and the hex codecs are below. Four message families:
//
//   Submit header       A client's first line to scibenchd: the run
//       options of one Submission; the envelope follows. The daemon and
//       `scibench_submit --local` both read the pair (parse_submission).
//
//   Campaign envelope   A complete, serializable campaign submission:
//       CampaignSpec (name, base experiment, factors, replications,
//       stopping policy, seed) plus the SimBackendOptions that
//       reconstruct the backend. This is the daemon's admission unit --
//       a client that can produce this line gets exactly the campaign
//       an in-process CampaignRunner would run, because the parse
//       rebuilds the identical Campaign object (same fingerprint, same
//       derived seeds, same grid).
//
//   Job spec            One cell dispatch to a worker process: backend
//       options + Config + seed. Stateless by design -- any worker can
//       run any job, so a crashed worker's job re-dispatches to a fresh
//       process with the SAME seed and produces the same bytes. The pool
//       batches cells by pipelining these unchanged lines -- several
//       written back-to-back, replies read in order -- so there is no
//       batch message: the saving is in round trips, not in bytes.
//
//   Cell result         The worker's reply: CellResult with every
//       sample carried as the 16-hex-digit IEEE-754 bit pattern --
//       doubles cross the process boundary bit-exactly, which the
//       byte-identity invariant requires. JSON numbers would round-trip
//       via shortest-form decimal too, but hex also survives NaN
//       payloads. The campaign journal (exec/journal.hpp) embeds this
//       same object (cell_fields) in its cell records, so a CellResult
//       has one codec whether it crosses a pipe or goes to disk.
//
// u64 seeds travel as 16-digit hex strings: a JSON number is a double
// and cannot represent every 64-bit seed.
//
// Deliberately NOT serialized: CampaignSpec::seed_override (an
// arbitrary std::function). campaign_to_json throws on it -- historical
// reproductions with hand-picked seeds stay in-process.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "exec/backend.hpp"
#include "exec/campaign.hpp"
#include "exec/sim_backend.hpp"
#include "obs/json.hpp"

namespace sci::exec {

/// One campaign submission: the serializable campaign plus run options
/// the client controls. Output paths are daemon-side filesystem paths
/// (the transport is a local Unix socket; client and daemon share the
/// filesystem by construction).
struct Submission {
  CampaignSpec spec;
  SimBackendOptions backend;
  /// Larger runs first; ties resolve in submission order.
  int priority = 0;
  std::string journal_path;  ///< WAL for crash-safe resume (optional)
  /// Written when non-empty by the job's CampaignRunner at the end of
  /// its run (CampaignRunnerOptions::samples_csv / summary_csv), from
  /// text cached next to each cell, so a deduplicated cell costs the
  /// export a copy.
  std::string samples_csv;
  std::string summary_csv;
  std::string metrics_path;  ///< final ProgressSnapshot (optional)
  /// At most kMaxAttempts.
  std::size_t max_attempts = 1;
  /// Emit "progress" events every this many seconds (0 = off); at most
  /// kMaxHeartbeatS.
  double heartbeat_s = 0.0;
};

/// Largest Submission::heartbeat_s (one day). The runner's monitor waits
/// on a std::chrono duration, whose conversion to clock ticks is
/// undefined for values far beyond it.
inline constexpr double kMaxHeartbeatS = 86400.0;

/// Largest Submission::max_attempts. A cell that always fails runs
/// every attempt, and each attempt of a crashing cell costs a worker
/// respawn, so an unbounded value would hold the queue practically
/// forever.
inline constexpr std::size_t kMaxAttempts = 64;

}  // namespace sci::exec

namespace sci::exec::wire {

inline constexpr int kVersion = 1;

/// 16-digit lowercase hex of a u64 (zero-padded, no prefix).
[[nodiscard]] std::string hex_u64(std::uint64_t value);
/// Inverse of hex_u64; throws std::runtime_error on malformed input.
[[nodiscard]] std::uint64_t parse_hex_u64(std::string_view text);
/// IEEE-754 bit pattern round trip for samples.
[[nodiscard]] std::string hex_double(double value);
[[nodiscard]] double parse_hex_double(std::string_view text);

/// A parsed campaign submission: everything needed to reconstruct the
/// exact in-process campaign.
struct CampaignEnvelope {
  CampaignSpec spec;
  SimBackendOptions backend;
};

/// One line of canonical JSON (schema "scibench.campaign", version 1).
/// Throws std::invalid_argument when spec.seed_override is set.
[[nodiscard]] std::string campaign_to_json(const CampaignSpec& spec,
                                           const SimBackendOptions& backend);
/// Inverse; throws std::runtime_error on schema mismatch.
[[nodiscard]] CampaignEnvelope parse_campaign_json(std::string_view text);

/// {"backend": {...}} as in the envelope: every option, so it
/// identifies them exactly (SimBackend::identity).
[[nodiscard]] std::string backend_to_json(const SimBackendOptions& backend);

/// The submit header of `sub`: every run option (spec and backend
/// travel in the envelope).
[[nodiscard]] std::string submit_header_to_json(const Submission& sub);
/// Reads a submit header and its envelope. Throws std::runtime_error on
/// bad JSON, a foreign "op" or a wrong-typed member, and
/// std::invalid_argument on a number outside Submission's limits.
[[nodiscard]] Submission parse_submission(std::string_view header, std::string_view envelope);

/// One cell dispatch (schema "scibench.job", version 1).
[[nodiscard]] std::string job_to_json(const SimBackendOptions& backend,
                                      const Config& config, std::uint64_t seed);
struct JobSpec {
  SimBackendOptions backend;
  Config config;
  std::uint64_t seed = 0;
};
[[nodiscard]] JobSpec parse_job_json(std::string_view text);

/// One worker reply (schema "scibench.cell", version 1). Samples are
/// hex bit patterns; error text passes through quoted. `attempts` and
/// the runner-filled fields are not carried.
[[nodiscard]] std::string cell_result_to_json(const CellResult& result);
[[nodiscard]] CellResult parse_cell_result_json(std::string_view text);

/// A u64 member carried as hex_u64 text.
template <class T>
struct Hex {
  T& value;

  void write(std::string& out) const { obs::json::append_quoted(out, hex_u64(value)); }
  void read(const obs::json::Value& v, std::string_view, std::string_view) const {
    value = parse_hex_u64(v.as_string());
  }
};

/// Samples carried as an array of hex_double bit patterns.
template <class V>
struct HexSamples {
  V& values;

  void write(std::string& out) const {
    out += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ", ";
      obs::json::append_quoted(out, hex_double(values[i]));
    }
    out += ']';
  }
  void read(const obs::json::Value& v, std::string_view, std::string_view) const {
    const auto& items = v.as_array();
    values.reserve(items.size());
    for (const auto& item : items) values.push_back(parse_hex_double(item.as_string()));
  }
};

/// The cell result's field list, shared by the worker reply and the
/// journal's cell records.
inline constexpr auto cell_fields = [](auto& io, auto& result) {
  io.schema({"scibench.cell", kVersion});
  io("unit", result.unit);
  io("stop_reason", result.stop_reason);
  io("warmup_discarded", result.warmup_discarded);
  io("error", result.error);
  io("samples", HexSamples{result.samples});
};

}  // namespace sci::exec::wire
