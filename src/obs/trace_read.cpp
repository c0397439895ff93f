#include "obs/trace_read.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <climits>
#include <cmath>
#include <istream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "core/format.hpp"
#include "obs/json.hpp"

namespace sci::obs {
namespace {

using json::Value;

double require_number(const Value& event, const std::string& key) {
  const Value* v = event.find(key);
  if (v == nullptr || v->type != Value::Type::kNumber) {
    throw std::runtime_error("trace event missing numeric '" + key + "'");
  }
  return v->number;
}

std::string require_string(const Value& event, const std::string& key) {
  const Value* v = event.find(key);
  if (v == nullptr || v->type != Value::Type::kString) {
    throw std::runtime_error("trace event missing string '" + key + "'");
  }
  return v->string;
}

/// The track id: an integer an int holds (a cast of anything else is
/// undefined behaviour).
int require_tid(const Value& event) {
  const double tid = require_number(event, "tid");
  if (!(tid >= INT_MIN && tid <= INT_MAX) || tid != std::trunc(tid)) {
    throw std::runtime_error("trace event 'tid' is not an int");
  }
  return static_cast<int>(tid);
}

}  // namespace

ParsedTrace parse_trace(const std::string& text) {
  const Value root = json::parse(text);
  if (root.type != Value::Type::kObject) {
    throw std::runtime_error("trace JSON: top level must be an object");
  }
  const Value* events = root.find("traceEvents");
  if (events == nullptr || events->type != Value::Type::kArray) {
    throw std::runtime_error("trace JSON: missing traceEvents array");
  }

  ParsedTrace trace;
  for (const Value& ev : events->array) {
    const std::string ph = require_string(ev, "ph");
    if (ph.size() != 1) throw std::runtime_error("trace event 'ph' is not one character");
    const int tid = require_tid(ev);
    const std::string name = require_string(ev, "name");

    if (ph == "M") {
      const Value* args = ev.find("args");
      if (args != nullptr) {
        if (const Value* label = args->find("name"); label != nullptr) {
          if (name == "thread_name") trace.track_names[tid] = label->string;
          if (name == "process_name") trace.process_name = label->string;
        }
      }
      continue;
    }

    ParsedEvent out;
    out.phase = ph[0];
    out.tid = tid;
    out.name = name;
    if (const Value* cat = ev.find("cat"); cat != nullptr) out.cat = cat->string;
    out.ts_s = require_number(ev, "ts") * 1e-6;
    if (out.phase == 'X') out.dur_s = require_number(ev, "dur") * 1e-6;
    if (const Value* args = ev.find("args"); args != nullptr) {
      for (const auto& [key, value] : args->object) {
        if (value.type == Value::Type::kNumber) out.args[key] = value.number;
      }
    }
    trace.events.push_back(std::move(out));
  }
  return trace;
}

ParsedTrace parse_trace(std::istream& is) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return parse_trace(buffer.str());
}

ParsedTrace load_trace(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("load_trace: cannot open " + path);
  return parse_trace(is);
}

std::vector<int> ParsedTrace::rank_tracks() const {
  std::vector<std::pair<int, int>> ranked;  // (rank, tid)
  for (const auto& [tid, name] : track_names) {
    if (name.rfind("rank ", 0) != 0) continue;
    // A track named "rank x" is not a rank's track.
    const auto rank = core::parse_number(std::string_view(name).substr(5), 0, INT_MAX);
    if (rank) ranked.emplace_back(*rank, tid);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<int> tids;
  tids.reserve(ranked.size());
  for (const auto& [rank, tid] : ranked) tids.push_back(tid);
  return tids;
}

std::vector<RankBreakdown> per_rank_breakdown(const ParsedTrace& trace) {
  std::map<int, std::vector<const ParsedEvent*>> spans_by_tid;
  for (const ParsedEvent& e : trace.events) {
    if (e.phase == 'X') spans_by_tid[e.tid].push_back(&e);
  }

  std::vector<RankBreakdown> out;
  for (auto& [tid, spans] : spans_by_tid) {
    RankBreakdown b;
    b.tid = tid;
    const auto it = trace.track_names.find(tid);
    b.track = it != trace.track_names.end() ? it->second : "tid " + std::to_string(tid);

    std::map<std::string, double> totals;
    std::vector<std::pair<double, double>> intervals;
    for (const ParsedEvent* s : spans) {
      b.makespan_s = std::max(b.makespan_s, s->end_s());
      totals[s->name] += s->dur_s;
      intervals.emplace_back(s->ts_s, s->end_s());
    }
    // Busy = union of (possibly nested) span intervals.
    std::sort(intervals.begin(), intervals.end());
    double cover_end = -1.0;
    for (const auto& [lo, hi] : intervals) {
      if (lo > cover_end) {
        b.busy_s += hi - lo;
        cover_end = hi;
      } else if (hi > cover_end) {
        b.busy_s += hi - cover_end;
        cover_end = hi;
      }
    }
    b.idle_s = std::max(0.0, b.makespan_s - b.busy_s);

    b.by_name.assign(totals.begin(), totals.end());
    std::sort(b.by_name.begin(), b.by_name.end(), [](const auto& a, const auto& c) {
      return a.second != c.second ? a.second > c.second : a.first < c.first;
    });
    out.push_back(std::move(b));
  }
  return out;
}

namespace {

bool is_recv_like(const ParsedEvent& e) { return e.name == "recv" || e.name == "irecv"; }
bool is_send_like(const ParsedEvent& e) { return e.name == "send" || e.name == "isend"; }

}  // namespace

std::vector<PathSegment> critical_path(const ParsedTrace& trace) {
  const std::vector<int> ranks = trace.rank_tracks();
  const std::set<int> rank_set(ranks.begin(), ranks.end());

  // Leaf spans only: point-to-point and compute. Collective wrapper
  // spans ("coll") nest the leaves and would shadow them.
  std::vector<const ParsedEvent*> leaves;
  for (const ParsedEvent& e : trace.events) {
    if (e.phase != 'X' || rank_set.count(e.tid) == 0) continue;
    if (e.cat == "p2p" || e.cat == "compute") leaves.push_back(&e);
  }
  if (leaves.empty()) {
    for (const ParsedEvent& e : trace.events) {
      if (e.phase == 'X' && rank_set.count(e.tid) != 0) leaves.push_back(&e);
    }
  }
  if (leaves.empty()) return {};

  const ParsedEvent* cur = *std::max_element(
      leaves.begin(), leaves.end(), [](const ParsedEvent* a, const ParsedEvent* b) {
        if (a->end_s() != b->end_s()) return a->end_s() < b->end_s();
        return a->ts_s < b->ts_s;  // prefer the later-starting (innermost) span
      });

  constexpr double kEps = 1e-12;
  std::vector<PathSegment> path;
  std::set<const ParsedEvent*> visited;
  while (cur != nullptr && visited.insert(cur).second) {
    path.push_back(PathSegment{cur->tid, cur->name, cur->ts_s, cur->end_s()});

    const ParsedEvent* next = nullptr;
    if (is_recv_like(*cur) && cur->has_arg("mseq")) {
      // The recv was unblocked by a message: hop to the matching send.
      const double mseq = cur->arg("mseq");
      for (const ParsedEvent* s : leaves) {
        if (is_send_like(*s) && s->has_arg("mseq") && s->arg("mseq") == mseq) {
          next = s;
          break;
        }
      }
    }
    if (next == nullptr) {
      // Previous blocking operation on the same track.
      for (const ParsedEvent* s : leaves) {
        if (s->tid != cur->tid || s == cur || s->end_s() > cur->ts_s + kEps) continue;
        if (next == nullptr || s->end_s() > next->end_s() ||
            (s->end_s() == next->end_s() && s->ts_s > next->ts_s)) {
          next = s;
        }
      }
    }
    cur = next;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<LateSender> late_senders(const ParsedTrace& trace) {
  std::map<int, LateSender> by_src;
  for (const ParsedEvent& e : trace.events) {
    if (e.phase != 'X' || !is_recv_like(e) || !e.has_arg("src")) continue;
    const double wait = e.arg("wait_s");
    if (wait <= 0.0) continue;
    const int src = static_cast<int>(e.arg("src"));
    LateSender& entry = by_src[src];
    entry.src_rank = src;
    entry.blocked_s += wait;
    ++entry.waits;
  }
  std::vector<LateSender> out;
  out.reserve(by_src.size());
  for (const auto& [src, entry] : by_src) out.push_back(entry);
  std::sort(out.begin(), out.end(), [](const LateSender& a, const LateSender& b) {
    return a.blocked_s != b.blocked_s ? a.blocked_s > b.blocked_s : a.src_rank < b.src_rank;
  });
  return out;
}

}  // namespace sci::obs
