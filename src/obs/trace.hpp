// sci::obs tracing: structured telemetry for the simulator and the
// measurement harness (Rule 9: a number without its production story is
// not a result).
//
// The model is the Chrome trace-event format (viewable in Perfetto or
// chrome://tracing): complete spans ("X"), instant events ("i"), and
// counter samples ("C") on integer tracks. Simulator layers emit spans
// in *simulated* seconds on one track per rank, so the binomial-tree
// structure of a collective is literally visible; the measurement
// harness emits spans in host seconds on the harness track.
//
// Cost contract (Section 4.1: the harness must not perturb what it
// measures). Tracing is a runtime property only:
//   - no sink attached: one thread-local load and one branch per
//     instrumentation site, and no argument expression is evaluated
//     (bench_library_micro's BM_TraceUnattachedBranch sits next to the
//     same binary's BM_EmptyLoop);
//   - attached: events append to an in-memory vector, no I/O until
//     write_json()/save().
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace sci::obs {

/// One numeric argument attached to an event ("args" in the trace JSON).
/// Keys must outlive the sink (string literals in practice).
struct TraceArg {
  template <typename T>
  TraceArg(const char* k, T v) : key(k), value(static_cast<double>(v)) {}
  const char* key;
  double value;
};

/// Track-id conventions used by the built-in instrumentation. Rank r of
/// a simulated World emits on track r; the wire (message flight) of a
/// message sent by rank r renders on track kWireTrackBase + r.
inline constexpr int kHarnessTrack = 900;
inline constexpr int kEngineTrack = 990;
inline constexpr int kWireTrackBase = 1000;

/// In-memory event collector; writes Chrome trace-event JSON. Not
/// thread-safe: attach one sink per thread (the simulator is
/// single-threaded, so this is the natural granularity).
class TraceSink {
 public:
  /// Complete span ("X"): [start_s, start_s + dur_s) on track `tid`.
  /// `name`/`cat` must be string literals (stored by pointer).
  void complete(int tid, const char* name, const char* cat, double start_s, double dur_s,
                std::initializer_list<TraceArg> args = {});
  void complete(int tid, const char* name, const char* cat, double start_s, double dur_s,
                std::vector<TraceArg> args);

  /// Instant event ("i", thread scope).
  void instant(int tid, const char* name, const char* cat, double t_s,
               std::initializer_list<TraceArg> args = {});

  /// Counter sample ("C"); renders as a value track in Perfetto.
  void counter(int tid, const char* name, double t_s, double value);

  /// Track label (emitted as thread_name metadata).
  void set_track_name(int tid, std::string name);
  void set_process_name(std::string name) { process_name_ = std::move(name); }

  /// Appends every event and track name of `other`, shifting its track
  /// ids by `tid_offset`. Lets a parallel harness collect per-worker
  /// sinks (TraceSink is single-threaded by design) and merge them into
  /// one trace with disjoint per-worker track blocks after the join.
  void merge(const TraceSink& other, int tid_offset = 0);

  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] const std::map<int, std::string>& track_names() const noexcept {
    return track_names_;
  }
  void clear();

  struct WriteOptions {
    /// Embed the wall-clock capture time in the metadata header. Turn
    /// off for byte-identical output across runs (determinism tests).
    bool wallclock_metadata = true;
  };

  /// JSON object form: {"traceEvents": [...], "metadata": {...}}.
  /// ts/dur are microseconds per the Chrome spec; output is
  /// deterministic except for the optional wall-clock metadata line.
  void write_json(std::ostream& os, const WriteOptions& options) const;
  void write_json(std::ostream& os) const { write_json(os, WriteOptions{}); }
  void save(const std::string& path, const WriteOptions& options) const;
  void save(const std::string& path) const { save(path, WriteOptions{}); }

 private:
  struct Event {
    char phase;  // 'X' | 'i' | 'C'
    int tid;
    const char* name;
    const char* cat;
    double ts_s;
    double dur_s;
    std::vector<TraceArg> args;
  };

  std::vector<Event> events_;
  std::map<int, std::string> track_names_;
  std::string process_name_ = "scibench";
};

namespace detail {
inline thread_local TraceSink* g_sink = nullptr;
}

/// The sink instrumentation writes to, or nullptr when detached. The
/// accessor is the entire disabled-path cost: one thread-local load.
[[nodiscard]] inline TraceSink* sink() noexcept { return detail::g_sink; }
inline void attach(TraceSink* s) noexcept { detail::g_sink = s; }
inline void detach() noexcept { detail::g_sink = nullptr; }

/// RAII attach/detach for a measurement scope.
class ScopedAttach {
 public:
  explicit ScopedAttach(TraceSink& s) noexcept : previous_(sink()) { attach(&s); }
  ~ScopedAttach() { attach(previous_); }
  ScopedAttach(const ScopedAttach&) = delete;
  ScopedAttach& operator=(const ScopedAttach&) = delete;

 private:
  TraceSink* previous_;
};

/// Monotonic host time in seconds since the first call in this process;
/// the time base for harness-side (non-simulated) spans.
[[nodiscard]] double host_now_s() noexcept;

/// Host-time RAII span on kHarnessTrack. Arms at construction: with no
/// sink attached then, it never reads the clock and emits nothing; an
/// armed span emits on destruction if a sink is still attached.
class HostSpan {
 public:
  HostSpan(const char* name, const char* cat) noexcept
      : name_(name), cat_(cat), armed_(sink() != nullptr), t0_(armed_ ? host_now_s() : 0.0) {}
  ~HostSpan() {
    if (!armed_) return;
    if (TraceSink* s = sink()) s->complete(kHarnessTrack, name_, cat_, t0_, host_now_s() - t0_);
  }
  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  bool armed_;
  double t0_;
};

#define SCI_TRACE_ATTACHED() (::sci::obs::sink() != nullptr)
#define SCI_TRACE_COMPLETE(tid, name, cat, start_s, dur_s, ...)                          \
  do {                                                                                   \
    if (::sci::obs::TraceSink* sci_obs_sink_ = ::sci::obs::sink())                       \
      sci_obs_sink_->complete((tid), (name), (cat), (start_s), (dur_s)__VA_OPT__(, )     \
                                  __VA_ARGS__);                                          \
  } while (0)
#define SCI_TRACE_INSTANT(tid, name, cat, t_s, ...)                                      \
  do {                                                                                   \
    if (::sci::obs::TraceSink* sci_obs_sink_ = ::sci::obs::sink())                       \
      sci_obs_sink_->instant((tid), (name), (cat), (t_s)__VA_OPT__(, ) __VA_ARGS__);     \
  } while (0)
#define SCI_TRACE_COUNTER(tid, name, t_s, value)                                         \
  do {                                                                                   \
    if (::sci::obs::TraceSink* sci_obs_sink_ = ::sci::obs::sink())                       \
      sci_obs_sink_->counter((tid), (name), (t_s), (value));                             \
  } while (0)
#define SCI_TRACE_HOST_SPAN(var, name, cat) ::sci::obs::HostSpan var{(name), (cat)}
// Hoisted-sink variants for hot loops: SCI_TRACE_SINK_HOIST reads the
// thread-local sink pointer once into `var`; the SINK_* emitters branch
// on that local instead of reloading per event. A sink attached while
// the loop runs is observed on the next hoist.
#define SCI_TRACE_SINK_HOIST(var) ::sci::obs::TraceSink* const var = ::sci::obs::sink()
#define SCI_TRACE_SINK_COUNTER(var, tid, name, t_s, value)      \
  do {                                                          \
    if ((var) != nullptr) (var)->counter((tid), (name), (t_s), (value)); \
  } while (0)

}  // namespace sci::obs
