#include "obs/trace.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace sci::obs {
namespace {

/// Timestamps print as fixed microseconds with picosecond resolution.
/// printf-family output for a given double is stable within one libc,
/// which is what the byte-identical-trace guarantee needs. A non-finite
/// value prints as null: the file stays JSON, and parse_trace refuses
/// the event as missing its number.
std::string fmt_us(double seconds) {
  const double us = seconds * 1e6;
  if (!std::isfinite(us)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", us);
  return buf;
}

/// Arg values print through obs::json, so a non-finite value becomes
/// null and the file stays JSON that parse_trace can load.
void write_args(std::ostream& os, const std::vector<TraceArg>& args) {
  os << "\"args\":{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i) os << ',';
    os << json::quoted(args[i].key) << ':' << json::dump_number(args[i].value);
  }
  os << '}';
}

}  // namespace

void TraceSink::complete(int tid, const char* name, const char* cat, double start_s,
                         double dur_s, std::initializer_list<TraceArg> args) {
  events_.push_back(Event{'X', tid, name, cat, start_s, dur_s, std::vector<TraceArg>(args)});
}

void TraceSink::complete(int tid, const char* name, const char* cat, double start_s,
                         double dur_s, std::vector<TraceArg> args) {
  events_.push_back(Event{'X', tid, name, cat, start_s, dur_s, std::move(args)});
}

void TraceSink::instant(int tid, const char* name, const char* cat, double t_s,
                        std::initializer_list<TraceArg> args) {
  events_.push_back(Event{'i', tid, name, cat, t_s, 0.0, std::vector<TraceArg>(args)});
}

void TraceSink::counter(int tid, const char* name, double t_s, double value) {
  events_.push_back(Event{'C', tid, name, "counter", t_s, 0.0, {TraceArg{"value", value}}});
}

void TraceSink::set_track_name(int tid, std::string name) {
  track_names_[tid] = std::move(name);
}

void TraceSink::merge(const TraceSink& other, int tid_offset) {
  events_.reserve(events_.size() + other.events_.size());
  for (Event e : other.events_) {
    e.tid += tid_offset;
    events_.push_back(std::move(e));
  }
  for (const auto& [tid, name] : other.track_names_) {
    track_names_[tid + tid_offset] = name;
  }
}

void TraceSink::clear() {
  events_.clear();
  track_names_.clear();
}

void TraceSink::write_json(std::ostream& os, const WriteOptions& options) const {
  os << "{\n\"displayTimeUnit\": \"ms\",\n\"metadata\": {\"tool\": \"scibench\", "
        "\"format_version\": 1";
  if (options.wallclock_metadata) {
    const auto unix_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::system_clock::now().time_since_epoch())
                             .count();
    os << ", \"captured_unix_ms\": " << unix_ms;
  }
  os << "},\n\"traceEvents\": [\n";

  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  sep();
  os << R"({"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":)"
     << json::quoted(process_name_) << "}}";
  for (const auto& [tid, name] : track_names_) {
    sep();
    os << R"({"name":"thread_name","ph":"M","pid":1,"tid":)" << tid
       << R"(,"args":{"name":)" << json::quoted(name) << "}}";
  }

  for (const Event& e : events_) {
    sep();
    os << "{\"name\":" << json::quoted(e.name) << ",\"cat\":" << json::quoted(e.cat)
       << ",\"ph\":\"" << e.phase << "\",\"pid\":1,\"tid\":" << e.tid
       << ",\"ts\":" << fmt_us(e.ts_s);
    if (e.phase == 'X') os << ",\"dur\":" << fmt_us(e.dur_s);
    if (e.phase == 'i') os << ",\"s\":\"t\"";
    if (!e.args.empty() || e.phase == 'C') {
      os << ',';
      write_args(os, e.args);
    }
    os << '}';
  }
  os << "\n]\n}\n";
}

std::string TraceSink::to_json(const WriteOptions& options) const {
  std::ostringstream os;
  write_json(os, options);
  return os.str();
}

void TraceSink::save(const std::string& path, const WriteOptions& options) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("TraceSink::save: cannot open " + path);
  write_json(os, options);
}

double host_now_s() noexcept {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

}  // namespace sci::obs
