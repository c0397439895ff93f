// Reading side of the tracing layer: parse a Chrome trace-event JSON
// (as written by TraceSink) back into events and analyze it -- per-rank
// time breakdowns, the critical path through a collective, and
// late-sender attribution. tools/scibench_trace is a thin CLI over
// these; tests use them to schema-check emitted traces.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace sci::obs {

struct ParsedEvent {
  char phase = 'X';  // 'X' | 'i' | 'C' | 'M'
  int tid = 0;
  std::string name;
  std::string cat;
  double ts_s = 0.0;
  double dur_s = 0.0;
  std::map<std::string, double> args;

  [[nodiscard]] double end_s() const noexcept { return ts_s + dur_s; }
  [[nodiscard]] double arg(const std::string& key, double fallback = 0.0) const {
    const auto it = args.find(key);
    return it == args.end() ? fallback : it->second;
  }
  [[nodiscard]] bool has_arg(const std::string& key) const { return args.count(key) != 0; }
};

struct ParsedTrace {
  std::vector<ParsedEvent> events;          ///< X/i/C events, file order
  std::map<int, std::string> track_names;   ///< from thread_name metadata
  std::string process_name;

  /// Track ids labeled "rank N", ascending by N.
  [[nodiscard]] std::vector<int> rank_tracks() const;
};

/// Parses TraceSink output with obs::json::parse. Throws
/// std::runtime_error on malformed JSON (a json::ParseError carrying the
/// byte offset), on documents over json::kMaxDocumentBytes (64 MiB) or
/// nested deeper than json::kMaxDepth, on events missing required
/// keys, and on a "ph" of other than one character or a "tid" that is
/// not an int -- this is the schema check the tests rely on.
[[nodiscard]] ParsedTrace parse_trace(std::istream& is);
[[nodiscard]] ParsedTrace parse_trace(const std::string& text);
[[nodiscard]] ParsedTrace load_trace(const std::string& path);

/// Where one rank's simulated time went.
struct RankBreakdown {
  int tid = 0;
  std::string track;
  double makespan_s = 0.0;  ///< last span end on this track
  double busy_s = 0.0;      ///< union of span intervals (overlaps merged)
  double idle_s = 0.0;      ///< makespan - busy
  std::vector<std::pair<std::string, double>> by_name;  ///< span name -> summed duration
};

[[nodiscard]] std::vector<RankBreakdown> per_rank_breakdown(const ParsedTrace& trace);

/// One hop of the critical path, earliest first.
struct PathSegment {
  int tid = 0;
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Walks back from the last-finishing point-to-point span: a recv hop
/// jumps to the matching send on the sender's track (exact match via
/// the "mseq" argument the instrumentation attaches to both sides),
/// otherwise to the previous span on the same track. The result is the
/// dependence chain that determined the collective's completion time.
[[nodiscard]] std::vector<PathSegment> critical_path(const ParsedTrace& trace);

/// Per sender: how long receivers sat blocked waiting for its messages
/// (the "wait_s" argument of recv spans), i.e. late-sender attribution.
struct LateSender {
  int src_rank = 0;
  double blocked_s = 0.0;
  std::uint64_t waits = 0;
};

[[nodiscard]] std::vector<LateSender> late_senders(const ParsedTrace& trace);

}  // namespace sci::obs
