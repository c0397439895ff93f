#include "ledger.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <unordered_map>

#include "obs/trace.hpp"

namespace perfbench {

namespace {

double steady_s() noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Innermost open scope of this thread (0 = none).
thread_local std::uint64_t t_current = 0;

int thread_track() noexcept {
  static std::atomic<int> next{0};
  thread_local const int track = next.fetch_add(1, std::memory_order_relaxed);
  return track;
}

/// Part of a span's interval it is charged for, at weight w (the share
/// of each instant it gets when k overlapping siblings split it).
struct Segment {
  double a;
  double b;
  double w;
};

}  // namespace

Ledger::Ledger(bool enabled) : enabled_(enabled), origin_(steady_s()) {}

double Ledger::now() const noexcept { return steady_s() - origin_; }

Ledger::Scope::Scope(Ledger& ledger, const char* name, std::uint64_t cell)
    : Scope(ledger, name, t_current, cell) {}

Ledger::Scope::Scope(Ledger& ledger, const char* name, std::uint64_t parent,
                     std::uint64_t cell)
    : ledger_(ledger) {
  if (!ledger_.enabled_) return;
  {
    std::lock_guard<std::mutex> lock(ledger_.mutex_);
    span_.id = ledger_.next_id_++;
  }
  span_.parent = parent;
  span_.cell = cell;
  span_.name = name;
  span_.track = thread_track();
  previous_ = t_current;
  t_current = span_.id;
  span_.t0 = ledger_.now();
}

Ledger::Scope::~Scope() {
  if (!ledger_.enabled_) return;
  span_.t1 = ledger_.now();
  t_current = previous_;
  ledger_.record(span_);
}

void Ledger::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::map<std::string, double> Ledger::self_times() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, double> out;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> kids;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0) kids[spans_[i].parent].push_back(i);
  }
  std::vector<std::pair<std::size_t, std::vector<Segment>>> work;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == 0) work.push_back({i, {{spans_[i].t0, spans_[i].t1, 1.0}}});
  }
  while (!work.empty()) {
    auto [i, segments] = std::move(work.back());
    work.pop_back();
    const Span& s = spans_[i];
    double& self = out[s.parent == 0 ? std::string("residual") : std::string(s.name)];
    const auto kit = kids.find(s.id);
    if (kit == kids.end()) {
      for (const Segment& g : segments) self += (g.b - g.a) * g.w;
      continue;
    }

    // Children clipped to the parent, ordered by start.
    struct Kid {
      std::size_t index;
      double t0;
      double t1;
      std::vector<Segment> segments;
    };
    std::vector<Kid> children;
    std::vector<double> cuts;
    for (const Segment& g : segments) {
      cuts.push_back(g.a);
      cuts.push_back(g.b);
    }
    for (const std::size_t k : kit->second) {
      const double t0 = std::clamp(spans_[k].t0, s.t0, s.t1);
      const double t1 = std::clamp(spans_[k].t1, s.t0, s.t1);
      children.push_back({k, t0, t1, {}});
      cuts.push_back(t0);
      cuts.push_back(t1);
    }
    std::sort(children.begin(), children.end(),
              [](const Kid& a, const Kid& b) { return a.t0 < b.t0; });
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    // Sweep the elementary intervals between consecutive cuts. Cuts hold
    // every boundary, so each interval lies wholly inside or outside each
    // segment and each child.
    std::vector<std::size_t> active;
    std::size_t next_kid = 0;
    std::size_t seg = 0;
    for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
      const double x = cuts[c];
      const double y = cuts[c + 1];
      while (seg < segments.size() && segments[seg].b <= x) ++seg;
      if (seg == segments.size()) break;
      if (segments[seg].a > x) continue;  // gap between this span's segments
      const double w = segments[seg].w;
      while (next_kid < children.size() && children[next_kid].t0 <= x) {
        active.push_back(next_kid++);
      }
      std::erase_if(active, [&](std::size_t k) { return children[k].t1 <= x; });
      if (active.empty()) {
        self += (y - x) * w;
        continue;
      }
      const double share = w / static_cast<double>(active.size());
      for (const std::size_t k : active) {
        std::vector<Segment>& mine = children[k].segments;
        if (!mine.empty() && mine.back().b == x && mine.back().w == share) {
          mine.back().b = y;
        } else {
          mine.push_back({x, y, share});
        }
      }
    }
    for (Kid& kid : children) {
      if (!kid.segments.empty()) work.push_back({kid.index, std::move(kid.segments)});
    }
  }
  return out;
}

double Ledger::wall() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == 0) total += s.t1 - s.t0;
  }
  return total;
}

std::vector<double> Ledger::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.t1 - s.t0);
  }
  return out;
}

bool Ledger::save_trace(const std::string& path) const {
  sci::obs::TraceSink sink;
  sink.set_process_name("perfbench");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& s : spans_) {
      sink.complete(s.track, s.name, "perfbench", s.t0, s.t1 - s.t0,
                    {{"span", s.id}, {"parent", s.parent}, {"cell", s.cell}});
      if (sink.track_names().count(s.track) == 0) {
        sink.set_track_name(s.track, s.track == 0 ? std::string("bench main")
                                                  : "thread " + std::to_string(s.track));
      }
    }
  }
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  sink.write_json(os);
  return static_cast<bool>(os);
}

}  // namespace perfbench
