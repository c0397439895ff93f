#include "workloads.hpp"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "ci/history.hpp"
#include "obs/bench_report.hpp"
#include "rng/xoshiro.hpp"

namespace perfbench {

namespace {

constexpr const char* kBench = "perfbench";
constexpr double kNoise = 0.015;  ///< flat series wander +-1.5%: below min_effect
constexpr double kStep = 1.30;    ///< the injected regression: 30% slower
constexpr std::size_t kSteppedPoints = 2;  ///< stepped history points (+ the fresh one)

double uniform(sci::rng::Xoshiro256& rng) {
  return static_cast<double>(rng() >> 11) * 0x1p-53;
}

/// Median of metric `m` at history point `p` (p == points: the fresh
/// report). Flat noise around 1 + m ms; the injected metric steps up in
/// its last kSteppedPoints history points and in the fresh report.
sci::obs::BenchMetric history_metric(const Workload& w, sci::rng::Xoshiro256& rng,
                                     std::size_t m, std::size_t p) {
  sci::obs::BenchMetric metric;
  metric.name = history_metric_name(m);
  metric.unit = "ms";
  metric.improve = sci::obs::Improve::kLower;
  metric.n = 20;
  double median = (1.0 + static_cast<double>(m)) * (1.0 + kNoise * (2.0 * uniform(rng) - 1.0));
  if (m == w.injected && p + kSteppedPoints >= w.history_points) median *= kStep;
  metric.median = median;
  metric.ci_lo = median * 0.99;
  metric.ci_hi = median * 1.01;
  return metric;
}

sci::obs::BenchReport history_report(const Workload& w, sci::rng::Xoshiro256& rng,
                                     std::size_t p, std::string sha) {
  sci::obs::BenchReport report;
  report.bench = kBench;
  report.git_sha = std::move(sha);
  for (std::size_t m = 0; m < w.history_metrics; ++m) {
    report.metrics.push_back(history_metric(w, rng, m, p));
  }
  return report;
}

}  // namespace

std::string history_metric_name(std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "metric_%02zu", index);
  return buf;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  namespace exec = sci::exec;
  Workload w;
  w.name = name;
  std::uint64_t state = seed;
  w.spec.seed = sci::rng::splitmix64_next(state);
  w.spec.name = "perfbench-" + name;
  w.spec.base.name = "perfbench " + name;
  w.spec.base.description = "seeded benchmark campaign";
  w.backend.scale = 1e6;
  w.backend.unit = "us";
  if (name == "daemon_light") {
    // Many light cells: the per-cell daemon layers dominate.
    w.daemon_path = true;
    w.backend.kernel = exec::SimKernel::kPingPong;
    w.backend.samples = 32;
    w.backend.warmup = 4;
    w.spec.factors.push_back({"system", {"dora", "pilatus"}});
    w.spec.factors.push_back({"message_bytes", {"8", "64", "512", "4096"}});
    w.spec.replications = 125;
    w.history_metrics = 16;
    w.history_points = 32;
  } else if (name == "inproc_reduce") {
    // Few heavy cells: the simulator dominates, the daemon is bypassed.
    w.backend.kernel = exec::SimKernel::kReduce;
    w.backend.iterations = 64;
    w.spec.factors.push_back({"system", {"dora", "daint"}});
    w.spec.factors.push_back({"ranks", {"16", "32"}});
    w.spec.replications = 20;
    w.history_metrics = 16;
    w.history_points = 32;
  } else if (name == "analyze_gate") {
    // A sample-heavy export and a long history: analysis dominates.
    w.backend.kernel = exec::SimKernel::kPingPong;
    w.backend.samples = 256;
    w.backend.warmup = 4;
    w.spec.factors.push_back({"system", {"dora", "pilatus"}});
    w.spec.factors.push_back({"message_bytes", {"8", "64", "512", "4096"}});
    w.spec.replications = 25;
    w.history_metrics = 16;
    w.history_points = 40;
  } else {
    throw std::invalid_argument("unknown workload \"" + name +
                                "\" (daemon_light | inproc_reduce | analyze_gate)");
  }
  sci::rng::Xoshiro256 rng(sci::rng::splitmix64_next(state));
  w.injected = static_cast<std::size_t>(rng() % w.history_metrics);
  return w;
}

void write_history(const Workload& w, std::uint64_t seed, const std::string& path) {
  std::filesystem::remove(path);
  sci::ci::HistoryStore store(path);
  sci::rng::Xoshiro256 rng(seed ^ 0x4157'd3a1'9e0c'b2f5ULL);
  for (std::size_t p = 0; p < w.history_points; ++p) {
    char sha[32];
    std::snprintf(sha, sizeof sha, "h%04zu", p);
    store.ingest(history_report(w, rng, p, sha));
  }
}

std::string write_fresh_report(const Workload& w, std::uint64_t seed, const std::string& dir) {
  sci::rng::Xoshiro256 rng(seed ^ 0x9d2c'5680'1f3b'e7a4ULL);
  const sci::obs::BenchReport report = history_report(w, rng, w.history_points, "fresh");
  const std::string path = dir + "/BENCH_" + kBench + ".json";
  if (!sci::obs::write_file_atomic(path, sci::obs::bench_report_json(report))) {
    throw std::runtime_error("cannot write " + path);
  }
  return path;
}

}  // namespace perfbench
