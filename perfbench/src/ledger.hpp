// Span ledger for the benchmark's traced run.
//
// Spans are recorded only by the benchmark's own code, around its calls
// into scibench's public entry points; nothing inside src/ or tools/ is
// instrumented. Each span has a name (the layer it times), a start, an
// end, a parent, and a cell id shared by every span of one campaign cell.
// Spans stay in memory and are written out once, at the end of the run,
// in the Chrome trace-event format obs::TraceSink writes (so
// scibench_trace can read the file).
//
// Self time: a span's duration minus the part of that interval its child
// spans cover. Children may overlap -- a campaign's cells run on several
// worker threads -- so an instant covered by k children is split equally
// among them. Every instant of a root span (one without a parent) is
// therefore attributed to exactly one layer or to the root itself, and
// the layer self times plus the roots' own self time (the residual) add
// up to the roots' total duration, the traced wall time.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Ledger {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 for the root
    std::uint64_t cell = 0;    ///< shared by all spans of one cell; 0 = none
    const char* name = "";     ///< layer name; a string literal
    int track = 0;             ///< recording thread
    double t0 = 0.0;
    double t1 = 0.0;
  };

  /// A disabled ledger records nothing; its scopes cost one branch.
  explicit Ledger(bool enabled);

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Seconds since the ledger was created (steady clock).
  [[nodiscard]] double now() const noexcept;

  /// Times one call into a layer. The parent defaults to the innermost
  /// open scope of the calling thread; work handed to another thread
  /// passes its parent explicitly.
  class Scope {
   public:
    Scope(Ledger& ledger, const char* name, std::uint64_t cell = 0);
    Scope(Ledger& ledger, const char* name, std::uint64_t parent, std::uint64_t cell);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

   private:
    Ledger& ledger_;
    Span span_;
    std::uint64_t previous_ = 0;
  };

  /// Self time per layer name, the roots' own self time under the key
  /// "residual".
  [[nodiscard]] std::map<std::string, double> self_times() const;
  /// Summed duration of the root spans.
  [[nodiscard]] double wall() const;

  /// Durations of every span called `name` (seconds, recording order).
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Writes every span as a Chrome trace ("X" events; args carry span,
  /// parent and cell ids). Returns false on I/O failure.
  bool save_trace(const std::string& path) const;

 private:
  void record(const Span& span);

  bool enabled_;
  double origin_;
  std::uint64_t next_id_ = 1;
  mutable std::mutex mutex_;  ///< guards spans_ and next_id_
  std::vector<Span> spans_;
};

}  // namespace perfbench
