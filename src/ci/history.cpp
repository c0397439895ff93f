#include "ci/history.hpp"

#include <fstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace sci::ci {

namespace json = sci::obs::json;

std::vector<double> MetricSeries::medians() const {
  std::vector<double> out;
  out.reserve(points.size());
  for (const auto& p : points) out.push_back(p.metric.median);
  return out;
}

constexpr auto point_fields = [](auto& io, auto& point) {
  io("seq", point.seq);
  io("sha", point.git_sha);
  io("bench", point.bench);
  obs::metric_fields(io, point.metric);
};

std::string history_line(const HistoryPoint& point) {
  return json::write(json::Layout::kLine, point_fields, point);
}

HistoryPoint parse_history_line(std::string_view line) {
  HistoryPoint point;
  json::Reader(json::parse(line), "bench history").read(point_fields, point);
  return point;
}

HistoryStore::HistoryStore(std::string path) : path_(std::move(path)) {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return;  // empty store
  std::string line;
  while (std::getline(in, line)) {
    // getline sets eofbit exactly when the final line had no trailing
    // newline -- i.e. a crash tore the last append mid-line. Heal it on
    // the next append so new records never glue onto the scar.
    if (in.eof()) heal_newline_ = true;
    if (line.empty()) continue;
    try {
      HistoryPoint point = parse_history_line(line);
      point.seq = points_.size();  // load order is the truth, not the stored seq
      points_.push_back(std::move(point));
    } catch (const std::exception&) {
      // Same policy as the campaign journal: an unparseable line is a
      // scar (torn append), skipped on replay and left in place --
      // valid records keep appending after it. Counted so tools can
      // warn instead of silently thinning history.
      ++skipped_lines_;
    }
  }
}

bool HistoryStore::contains(const std::string& sha, const std::string& bench,
                            const std::string& metric) const noexcept {
  for (const auto& p : points_) {
    if (p.git_sha == sha && p.bench == bench && p.metric.name == metric) return true;
  }
  return false;
}

std::size_t HistoryStore::ingest(const obs::BenchReport& report) {
  std::vector<HistoryPoint> fresh;
  for (const auto& metric : report.metrics) {
    if (contains(report.git_sha, report.bench, metric.name)) continue;
    HistoryPoint point;
    point.seq = points_.size() + fresh.size();
    point.git_sha = report.git_sha;
    point.bench = report.bench;
    point.metric = metric;
    fresh.push_back(std::move(point));
  }
  if (fresh.empty()) return 0;

  std::ofstream out(path_, std::ios::binary | std::ios::app);
  if (!out) throw std::runtime_error("cannot append to " + path_);
  if (heal_newline_) out.put('\n');
  for (const auto& point : fresh) out << history_line(point) << '\n';
  out.flush();
  if (!out) throw std::runtime_error("write failed on " + path_);
  heal_newline_ = false;

  const std::size_t appended = fresh.size();
  for (auto& point : fresh) points_.push_back(std::move(point));
  return appended;
}

std::vector<MetricSeries> HistoryStore::series() const {
  std::vector<MetricSeries> out;
  for (const auto& point : points_) {
    MetricSeries* target = nullptr;
    for (auto& s : out) {
      if (s.bench == point.bench && s.metric == point.metric.name) {
        target = &s;
        break;
      }
    }
    if (target == nullptr) {
      MetricSeries s;
      s.bench = point.bench;
      s.metric = point.metric.name;
      s.unit = point.metric.unit;
      s.improve = point.metric.improve;
      out.push_back(std::move(s));
      target = &out.back();
    }
    target->points.push_back(point);
  }
  return out;
}

}  // namespace sci::ci
