// perfbench_driver: one run of one workload of scibench's end-to-end
// benchmark (see RATIONALE.md).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --bin-dir DIR --work-dir DIR
//
// Untraced (--trace 0): after one warm-up iteration, repeats the
// workload's pipeline for S seconds and prints, for every end-to-end
// metric, its best sample (see summary() in main). Traced (--trace 1):
// interleaves untraced and traced iterations (the difference is the
// tracing overhead), then measures each layer through its public
// functions, and prints the per-layer metrics plus the split of the
// traced wall time into layer self times and the residual. Either way
// every output is checked, and the last stdout line is the JSON result.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ci/dashboard.hpp"
#include "ci/detect.hpp"
#include "ci/history.hpp"
#include "core/bounds.hpp"
#include "core/dataset.hpp"
#include "core/plots.hpp"
#include "core/report.hpp"
#include "exec/ingest.hpp"
#include "exec/process_pool.hpp"
#include "exec/runner.hpp"
#include "exec/sim_backend.hpp"
#include "exec/wire.hpp"
#include "ledger.hpp"
#include "obs/bench_report.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "procs.hpp"
#include "stats/compare.hpp"
#include "stats/descriptive.hpp"
#include "stats/quantile_regression.hpp"
#include "stats/simd_dispatch.hpp"
#include "workloads.hpp"

namespace exec = sci::exec;
namespace fs = std::filesystem;
namespace json = sci::obs::json;
using perfbench::Ledger;

namespace {

double steady_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median_of(std::vector<double> xs) {
  return xs.empty() ? 0.0 : sci::stats::median(xs);
}

double quantile_of(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  return sci::stats::quantile_sorted(sci::stats::sorted_copy(xs), p);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Cell id shared by every span of one cell (fits a trace-arg double).
std::uint64_t cell_id(std::uint64_t seed) { return (seed >> 12) | 1; }

/// Times every backend call as a "sim" span (child of the runner span
/// that scheduled it) and sums the backend time, which the runner's
/// overhead and busy share are computed from.
class TimedBackend : public exec::Backend {
 public:
  TimedBackend(exec::SimBackend& inner, Ledger& ledger) : inner_(inner), ledger_(ledger) {}

  void set_parent(std::uint64_t parent) { parent_ = parent; }
  [[nodiscard]] double backend_s() const { return static_cast<double>(ns_.load()) * 1e-9; }
  [[nodiscard]] std::vector<double> cell_s() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return cell_s_;
  }

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::string describe() const override { return inner_.describe(); }
  [[nodiscard]] exec::CellResult run(const exec::Config& config, std::uint64_t seed) override {
    return timed(seed, [&] { return inner_.run(config, seed); });
  }
  [[nodiscard]] std::unique_ptr<exec::BackendContext> make_context() override {
    return std::make_unique<Context>(*this, inner_.make_context());
  }

 private:
  class Context : public exec::BackendContext {
   public:
    Context(TimedBackend& owner, std::unique_ptr<exec::BackendContext> inner)
        : owner_(owner), inner_(std::move(inner)) {}
    [[nodiscard]] exec::CellResult run(const exec::Config& config,
                                       std::uint64_t seed) override {
      return owner_.timed(seed, [&] { return inner_->run(config, seed); });
    }

   private:
    TimedBackend& owner_;
    std::unique_ptr<exec::BackendContext> inner_;
  };

  template <typename F>
  exec::CellResult timed(std::uint64_t seed, F&& call) {
    const double t0 = steady_s();
    exec::CellResult result;
    {
      const Ledger::Scope span(ledger_, "sim", parent_.load(), cell_id(seed));
      result = call();
    }
    const double dt = steady_s() - t0;
    ns_.fetch_add(static_cast<std::uint64_t>(dt * 1e9));
    std::lock_guard<std::mutex> lock(mutex_);
    cell_s_.push_back(dt);
    return result;
  }

  exec::SimBackend& inner_;
  Ledger& ledger_;
  std::atomic<std::uint64_t> parent_{0};
  std::atomic<std::uint64_t> ns_{0};
  mutable std::mutex mutex_;  ///< guards cell_s_
  std::vector<double> cell_s_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// One end-to-end sample of the pipeline.
struct Sample {
  double setup_s = 0.0;
  double cells_per_s = 0.0;
  double resubmit_s = 0.0;
  double cells_per_s_1w = 0.0;
  double report_s = 0.0;
  double gate_s = 0.0;
  double stages_s = 0.0;  ///< wall time of the five timed stages
};

/// An in-process campaign at `workers` threads, optionally followed by
/// the identical resubmission (every cell served from the runner cache).
struct InprocOutcome {
  double fresh_s = 0.0;
  double resubmit_s = 0.0;
  double backend_s = 0.0;  ///< summed backend time (traced only)
  std::size_t executed = 0;
  std::size_t cache_hits = 0;
  std::vector<double> cell_s;  ///< per-cell backend time (traced only)
};

class Bench {
 public:
  Bench(perfbench::Workload workload, std::uint64_t seed, std::string bin, std::string work,
        Ledger& ledger)
      : w_(std::move(workload)),
        seed_(seed),
        bin_(std::move(bin)),
        work_(std::move(work)),
        nproc_(std::max(1u, std::thread::hardware_concurrency())),
        workers_(std::max<std::size_t>(1, nproc_ / 2)),
        cells_(exec::Campaign(w_.spec).cell_count()),
        envelope_(exec::wire::campaign_to_json(w_.spec, w_.backend)),
        ledger_(&ledger) {}

  void use_ledger(Ledger& ledger) { ledger_ = &ledger; }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] std::size_t cells() const { return cells_; }

  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }

  /// Deletes the previous iteration's outputs. Rewriting a file in place
  /// makes ext4 flush it to disk on close (replace-via-truncate), which
  /// would put disk writes inside the timed stages; an unlinked file's
  /// dirty pages are simply dropped.
  void clear_outputs() const {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(work_)) {
      if (entry.is_regular_file()) files.push_back(entry.path());
    }
    for (const fs::path& file : files) fs::remove(file);
  }

  /// One pass of the pipeline: set up, then time the five stages.
  Sample iteration(bool traced) {
    Sample s;
    clear_outputs();
    const double t_setup = steady_s();
    const std::string fresh_report = gate_inputs();
    std::unique_ptr<perfbench::Daemon> d;
    if (w_.daemon_path) d = std::make_unique<perfbench::Daemon>(bin_, sock(), workers_);
    s.setup_s = steady_s() - t_setup;

    const double t0 = steady_s();
    {
      std::unique_ptr<Ledger::Scope> root;
      if (traced) root = std::make_unique<Ledger::Scope>(*ledger_, "perfbench", 0, 0);
      if (d) {
        auto [fresh, again] = daemon(*d, "a");
        s.cells_per_s = static_cast<double>(cells_) / fresh.wall_s;
        s.resubmit_s = again.wall_s;
        last_fresh_ = std::move(fresh);
        last_again_ = std::move(again);
      } else {
        const InprocOutcome run = inproc(workers_, "a", true);
        s.cells_per_s = static_cast<double>(cells_) / run.fresh_s;
        s.resubmit_s = run.resubmit_s;
      }
      same_bytes(path("a.samples.csv"), path("a_again.samples.csv"), "resubmission samples");
      same_bytes(path("a.summary.csv"), path("a_again.summary.csv"), "resubmission summary");

      const InprocOutcome base = inproc(1, "ref", false);
      s.cells_per_s_1w = static_cast<double>(cells_) / base.fresh_s;
      base_cell_s_.insert(base_cell_s_.end(), base.cell_s.begin(), base.cell_s.end());
      same_bytes(path("a.samples.csv"), path("ref.samples.csv"),
                 "samples at " + std::to_string(workers_) + " vs 1 worker(s)");
      same_bytes(path("a.summary.csv"), path("ref.summary.csv"),
                 "summary at " + std::to_string(workers_) + " vs 1 worker(s)");

      const std::string csv = path("a.samples.csv");
      s.report_s = tool("tools.report",
                        {bin_ + "/scibench_report", "--threads", "1", csv},
                        path("report.out"), 0);
      check_report(csv, path("report.out"));

      s.gate_s = tool("tools.ci",
                      {bin_ + "/scibench_ci", "gate", "--history", path("history.jsonl"),
                       "--threads", "1", fresh_report},
                      path("gate.out"), 2);
      check_gate(path("gate.out"));
    }
    s.stages_s = steady_s() - t0;
    if (d) check(d->stop() == 3, "scibenchd drained and exited 3");
    std::fprintf(stderr,
                 "perfbench: %s%s setup %.4f s, %.0f cells/s, resubmit %.4f s, "
                 "%.0f cells/s at 1 worker, report %.4f s, gate %.4f s, stages %.3f s, "
                 "iteration %.3f s\n",
                 w_.name.c_str(), traced ? " (traced)" : "", s.setup_s, s.cells_per_s,
                 s.resubmit_s, s.cells_per_s_1w, s.report_s, s.gate_s, s.stages_s,
                 steady_s() - t_setup);
    return s;
  }

  /// Host facts recorded with every result.
  std::string host_line() const {
    std::string out = "{\"host\": {\"nproc\": " + json::dump_size(nproc_);
    out += ", \"workers\": " + json::dump_size(workers_);
    out += ", \"simd_isa\": " + json::quoted(sci::stats::simd::to_string(
                                    sci::stats::simd::active_isa()));
    out += ", \"build_type\": " + json::quoted(PERFBENCH_BUILD_TYPE);
    // sci_sim and sci_obs export these definitions only when switched off.
#if defined(SCIBENCH_POOLING) && !SCIBENCH_POOLING
    out += ", \"scibench_pooling\": \"OFF\"";
#else
    out += ", \"scibench_pooling\": \"ON\"";
#endif
#if defined(SCIBENCH_TRACING) && !SCIBENCH_TRACING
    out += ", \"scibench_tracing\": \"OFF\"";
#else
    out += ", \"scibench_tracing\": \"ON\"";
#endif
    out += ", \"workload\": " + json::quoted(w_.name);
    out += ", \"cells\": " + json::dump_size(cells_);
    out += ", \"history_points\": " + json::dump_size(w_.history_points);
    out += ", \"history_metrics\": " + json::dump_size(w_.history_metrics);
    std::error_code ec;
    const auto bytes = fs::file_size(path("a.samples.csv"), ec);
    out += ", \"csv_bytes\": " + json::dump_size(ec ? 0 : bytes);
    out += "}}";
    return out;
  }

  /// Everything the traced run measures beyond its traced iterations,
  /// all under one root span. `traced_fresh_s` is the traced iterations'
  /// median wall time of the fresh campaign.
  void layers(Metrics& m, double traced_fresh_s) {
    // The in-process workloads start a daemon for the exec.service
    // numbers; daemon_light reuses its traced iterations' submissions.
    std::unique_ptr<perfbench::Daemon> d;
    if (!w_.daemon_path) d = std::make_unique<perfbench::Daemon>(bin_, sock(), workers_);
    {
      const Ledger::Scope root(*ledger_, "perfbench", 0, 0);
      service_layer(m, d.get(), traced_fresh_s);
      runner_and_sim_layers(m);
      wire_and_pool_layers(m);
      report_layers(m);
      gate_layers(m);
      json_layer(m);
    }
    if (d) check(d->stop() == 3, "scibenchd drained and exited 3");
  }

 private:
  /// Cells count as attempted operations; failed cells as failures.
  void account_cells(std::size_t attempted, std::size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  std::string path(const std::string& leaf) const { return work_ + "/" + leaf; }

  void same_bytes(const std::string& a, const std::string& b, const std::string& what) {
    const perfbench::Ledger::Scope span(*ledger_, "bench.check");
    const std::string x = read_file(a);
    check(!x.empty() && x == read_file(b), what + ": " + a + " == " + b);
  }

  /// Fresh campaign through the in-process runner, CSVs written under
  /// `tag`; with `resubmit`, then the identical resubmission (`tag`_again).
  InprocOutcome inproc(std::size_t workers, const std::string& tag, bool resubmit,
                       bool write_csv = true) {
    Ledger& ledger = *ledger_;
    exec::SimBackend sim(w_.backend);
    TimedBackend timed(sim, ledger);
    exec::Backend& backend = ledger.enabled() ? static_cast<exec::Backend&>(timed) : sim;
    exec::CampaignRunnerOptions options;
    options.workers = workers;
    exec::CampaignRunner runner(backend, exec::Campaign(w_.spec), options);

    InprocOutcome out;
    const auto pass = [&](const std::string& t) {
      const double t0 = steady_s();
      exec::CampaignResult result;
      {
        const Ledger::Scope span(ledger, "exec.runner");
        timed.set_parent(span.id());
        result = runner.run();
      }
      if (write_csv) {
        const Ledger::Scope span(ledger, "core.dataset");
        result.samples_dataset().save_csv(path(t + ".samples.csv"));
        result.summary_dataset().save_csv(path(t + ".summary.csv"));
      }
      out.executed += result.executed;
      out.cache_hits += result.cache_hits;
      account_cells(result.cells.size(), result.failed);
      return steady_s() - t0;
    };
    out.fresh_s = pass(tag);
    if (resubmit) out.resubmit_s = pass(tag + "_again");
    out.backend_s = timed.backend_s();
    out.cell_s = timed.cell_s();
    check(out.executed == cells_, "in-process run executed every cell once");
    if (resubmit) check(out.cache_hits == cells_, "resubmission served every cell from cache");
    return out;
  }

  /// Fresh submission and identical resubmission through a live daemon.
  std::pair<perfbench::SubmitOutcome, perfbench::SubmitOutcome> daemon(
      const perfbench::Daemon& d, const std::string& tag) {
    auto fresh = perfbench::submit(d.socket(), envelope_, path(tag + ".samples.csv"),
                                   path(tag + ".summary.csv"), *ledger_);
    auto again = perfbench::submit(d.socket(), envelope_, path(tag + "_again.samples.csv"),
                                   path(tag + "_again.summary.csv"), *ledger_);
    account_cells(fresh.cells + again.cells, fresh.failed + again.failed);
    check(fresh.done && fresh.cells == cells_ && fresh.executed == cells_,
          "daemon ran every cell of the fresh submission");
    check(again.done && again.cells == cells_ && again.deduped == cells_,
          "daemon deduplicated every cell of the resubmission");
    return {std::move(fresh), std::move(again)};
  }

  /// Runs a tool under a span; counts an unexpected exit code as failed.
  double tool(const char* span_name, const std::vector<std::string>& argv,
              const std::string& out, int expected_exit) {
    int code = 0;
    const double dt = span_s(span_name, [&] { code = perfbench::run_tool(argv, out); });
    check(code == expected_exit, argv[0] + " exited " + std::to_string(code) + ", expected " +
                                     std::to_string(expected_exit));
    return dt;
  }

  void check_report(const std::string& csv, const std::string& out) {
    const std::string text = read_file(out);
    const std::string expected =
        csv + ": campaign export, " + std::to_string(cells_) + " cells,";
    check(text.rfind(expected, 0) == 0, "scibench_report saw " + std::to_string(cells_) +
                                            " cells");
  }

  void check_gate(const std::string& out) {
    std::istringstream is(read_file(out));
    std::vector<std::string> flagged;
    std::string line;
    while (std::getline(is, line)) {
      const std::string tag = " | REGRESSION | ";
      const std::size_t at = line.find(tag);
      if (line.rfind("| perfbench | ", 0) != 0 || at == std::string::npos) continue;
      flagged.push_back(line.substr(14, at - 14));
    }
    check(flagged.size() == 1 && flagged[0] == perfbench::history_metric_name(w_.injected),
          "scibench_ci gate flagged exactly " + perfbench::history_metric_name(w_.injected));
  }

  /// Writes the seeded gate inputs; returns the fresh report's path.
  std::string gate_inputs() {
    perfbench::write_history(w_, seed_, path("history.jsonl"));
    return perfbench::write_fresh_report(w_, seed_, work_);
  }

  std::string sock() const { return path("d.sock"); }

  /// Runs `call` under a span of `layer`; returns its wall time (s).
  template <typename F>
  double span_s(const char* layer, F&& call, std::uint64_t cell = 0) {
    const double t0 = steady_s();
    {
      const Ledger::Scope span(*ledger_, layer, cell);
      call();
    }
    return steady_s() - t0;
  }

  void service_layer(Metrics& m, const perfbench::Daemon* d, double traced_fresh_s) {
    double inproc_fresh_s = traced_fresh_s;
    if (d != nullptr) {
      std::tie(last_fresh_, last_again_) = daemon(*d, "svc");
      same_bytes(path("svc.samples.csv"), path("ref.samples.csv"), "daemon vs in-process");
    } else {
      // The in-process baseline at equal parallelism: the Rule 1 base of
      // the daemon's overhead ratio.
      inproc_fresh_s = inproc(workers_, "base", false).fresh_s;
      same_bytes(path("base.samples.csv"), path("ref.samples.csv"), "in-process baseline");
    }
    const perfbench::SubmitOutcome& fresh = last_fresh_;
    const double cells = static_cast<double>(cells_);
    m.push_back({"exec.service.queue_wait_s", fresh.queue_wait_s, "s"});
    m.push_back({"exec.service.events_per_cell", static_cast<double>(fresh.events) / cells,
                 "count"});
    m.push_back({"exec.service.event_bytes_per_cell",
                 static_cast<double>(fresh.event_bytes) / cells, "B"});
    m.push_back({"exec.service.client_read_s", fresh.client_read_s, "s"});
    m.push_back({"exec.service.dedupe_us_per_cell", last_again_.wall_s / cells * 1e6, "us"});
    m.push_back({"exec.service.overhead_ratio", fresh.wall_s / inproc_fresh_s, "ratio"});
  }

  /// The scaling sweep over 1..nproc workers (Rules 1 and 11).
  void runner_and_sim_layers(Metrics& m) {
    const auto counter = [](const char* key) {
      return static_cast<double>(sci::obs::counter(key).value());
    };
    const double events0 = counter(sci::obs::keys::kEngineEvents);
    const double msgs0 = counter(sci::obs::keys::kNetMessages);
    std::vector<double> wall(nproc_ + 1, 0.0);
    std::vector<double> cell_s = base_cell_s_;
    double backend_s = 0.0;
    InprocOutcome widest;
    for (std::size_t p = 1; p <= nproc_; ++p) {
      InprocOutcome run = inproc(p, "scale", false, false);
      wall[p] = run.fresh_s;
      backend_s += run.backend_s;
      cell_s.insert(cell_s.end(), run.cell_s.begin(), run.cell_s.end());
      if (p == nproc_) widest = std::move(run);
    }
    const double events = counter(sci::obs::keys::kEngineEvents) - events0;
    const double swept = static_cast<double>(cells_ * nproc_);
    m.push_back({"sim.cell_us.p50", quantile_of(cell_s, 0.5) * 1e6, "us"});
    m.push_back({"sim.cell_us.p99", quantile_of(cell_s, 0.99) * 1e6, "us"});
    m.push_back({"sim.events_per_cell", events / swept, "count"});
    m.push_back({"simmpi.messages_per_cell",
                 (counter(sci::obs::keys::kNetMessages) - msgs0) / swept, "count"});
    m.push_back({"sim.ns_per_event", backend_s / events * 1e9, "ns"});

    const double cells = static_cast<double>(cells_);
    const double busy_s = widest.fresh_s * static_cast<double>(nproc_);
    m.push_back({"exec.runner.overhead_us_per_cell", (busy_s - widest.backend_s) / cells * 1e6,
                 "us"});
    m.push_back({"exec.runner.busy_frac", widest.backend_s / busy_s, "ratio"});
    m.push_back({"exec.runner.base_cells_per_s", cells / wall[1], "cells/s"});
    m.push_back({"exec.runner.speedup_nw", wall[1] / wall[nproc_], "ratio"});
    // Amdahl fit T(p) = T1 (s + (1 - s) / p), least squares in s.
    double num = 0.0;
    double den = 0.0;
    for (std::size_t p = 2; p <= nproc_; ++p) {
      const double x = 1.0 - 1.0 / static_cast<double>(p);
      num += x * (wall[p] / wall[1] - 1.0 / static_cast<double>(p));
      den += x * x;
    }
    const double serial = den > 0.0 ? std::clamp(num / den, 0.0, 1.0) : 1.0;
    m.push_back({"exec.runner.serial_fraction", serial, "ratio"});
    m.push_back({"exec.runner.speedup_bound_nw",
                 sci::core::ScalingBounds(wall[1], serial)
                     .speedup_amdahl(static_cast<int>(nproc_)),
                 "ratio"});
  }

  /// The workload's first cells, each run in-process, encoded and decoded
  /// on the wire, and run through a pool of worker processes.
  void wire_and_pool_layers(Metrics& m) {
    exec::ProcessPoolOptions options;
    options.worker_path = bin_ + "/scibench_worker";
    options.workers = workers_;
    exec::ProcessPool pool(options);
    exec::SimBackend sim(w_.backend);
    const exec::Campaign campaign(w_.spec);
    std::vector<double> run_s, enc_s, dec_s, call_s;
    double job_bytes = 0.0;
    double result_bytes = 0.0;
    const std::size_t sampled = std::min<std::size_t>(cells_, 128);
    for (std::size_t i = 0; i < sampled; ++i) {
      const exec::Config config = campaign.config(i % campaign.config_count());
      const std::uint64_t seed = campaign.seed_for(config, i / campaign.config_count());
      const std::uint64_t cell = cell_id(seed);
      exec::CellResult result, decoded, pooled;
      std::string job, reply;
      run_s.push_back(span_s("sim", [&] { result = sim.run(config, seed); }, cell));
      enc_s.push_back(span_s("exec.wire", [&] {
        job = exec::wire::job_to_json(w_.backend, config, seed);
        reply = exec::wire::cell_result_to_json(result);
      }, cell));
      dec_s.push_back(span_s("exec.wire", [&] {
        (void)exec::wire::parse_job_json(job);
        decoded = exec::wire::parse_cell_result_json(reply);
      }, cell));
      call_s.push_back(
          span_s("exec.pool", [&] { pooled = pool.run(w_.backend, config, seed); }, cell));
      job_bytes += static_cast<double>(job.size());
      result_bytes += static_cast<double>(reply.size());
      check(decoded.samples == result.samples && pooled.samples == result.samples,
            "cell round-trips the wire and the pool bit-exactly");
    }
    const double n = static_cast<double>(sampled);
    m.push_back({"exec.wire.job_bytes", job_bytes / n, "B"});
    m.push_back({"exec.wire.result_bytes", result_bytes / n, "B"});
    m.push_back({"exec.wire.encode_us", median_of(enc_s) * 1e6, "us"});
    m.push_back({"exec.wire.decode_us", median_of(dec_s) * 1e6, "us"});
    m.push_back({"exec.pool.call_us.p50", quantile_of(call_s, 0.5) * 1e6, "us"});
    m.push_back({"exec.pool.call_us.p99", quantile_of(call_s, 0.99) * 1e6, "us"});
    m.push_back({"exec.pool.ipc_us",
                 (median_of(call_s) - median_of(run_s) - median_of(enc_s) - median_of(dec_s)) *
                     1e6,
                 "us"});
    m.push_back({"exec.pool.workers_spawned", static_cast<double>(pool.workers_spawned()),
                 "count"});
    m.push_back({"exec.pool.workers_crashed", static_cast<double>(pool.workers_crashed()),
                 "count"});
  }

  /// scibench_report's calls on the campaign's samples CSV.
  void report_layers(Metrics& m) {
    const std::string csv = path("a.samples.csv");
    m.push_back({"core.dataset.export_s", median_of(ledger_->durations("core.dataset")), "s"});
    std::error_code ec;
    m.push_back({"core.dataset.csv_bytes", static_cast<double>(fs::file_size(csv, ec)), "B"});
    m.push_back({"core.dataset.load_s",
                 span_s("core.dataset", [&] { (void)sci::core::Dataset::load_csv(csv); }), "s"});
    std::optional<exec::Ingested> ingested;
    m.push_back({"exec.ingest.load_s",
                 span_s("exec.ingest", [&] { ingested = exec::load_measurements(csv); }), "s"});
    check(ingested->cells.size() == cells_, "ingest regrouped every cell");
    sci::stats::ExecPolicy policy;
    policy.threads = workers_;
    m.push_back({"exec.ingest.summarize_s", span_s("exec.ingest", [&] {
                   (void)exec::summarize_configs(*ingested, 0.5, 0.95, policy);
                 }),
                 "s"});
    m.push_back({"core.report.render_s", span_s("core.report", [&] {
                   sci::core::Experiment e;
                   e.name = csv;
                   sci::core::ReportBuilder report(e);
                   for (const auto& c : ingested->cells) {
                     report.add_series({c.label, "(file units)", c.values});
                   }
                   const std::vector<double> values = ingested->dataset.column("value");
                   check(!(report.render() + sci::core::render_density(values, {}) +
                           sci::core::render_qq(values, {}))
                              .empty(),
                         "report renders");
                 }),
                 "s"});
  }

  /// scibench_ci gate's calls, and the stats kernels of the change-point
  /// scan and the trend detector, called as the detector calls them.
  void gate_layers(Metrics& m) {
    const std::string fresh_report = gate_inputs();
    std::optional<sci::ci::HistoryStore> store;
    m.push_back({"ci.history.load_s", span_s("ci", [&] {
                   store.emplace(path("history.jsonl"));
                   store->ingest(sci::obs::load_bench_report(fresh_report));
                 }),
                 "s"});
    const std::vector<sci::ci::MetricSeries> series = store->series();
    sci::ci::DetectionOptions options;
    options.policy.threads = workers_;
    std::vector<sci::ci::Finding> findings;
    m.push_back({"ci.detect.analyze_s",
                 span_s("ci", [&] { findings = sci::ci::analyze_all(series, options); }), "s"});
    check(std::count_if(findings.begin(), findings.end(),
                        [](const sci::ci::Finding& f) {
                          return f.verdict == sci::ci::Verdict::kRegression;
                        }) == 1,
          "detector flags exactly the injected metric");
    m.push_back({"stats.kw_scan_s", span_s("stats", [&] {
                   for (const auto& s : series) {
                     const std::vector<double> y = s.medians();
                     for (std::size_t k = 2; k + 2 <= y.size(); ++k) {
                       const auto split = y.begin() + static_cast<std::ptrdiff_t>(k);
                       const std::vector<std::vector<double>> groups = {{y.begin(), split},
                                                                        {split, y.end()}};
                       (void)sci::stats::kruskal_wallis(groups);
                     }
                   }
                 }),
                 "s"});
    m.push_back({"stats.qr_bootstrap_s", span_s("stats", [&] {
                   for (const auto& s : series) {
                     const std::vector<double> y = s.medians();
                     std::vector<std::vector<double>> design;
                     for (std::size_t i = 0; i < y.size(); ++i) {
                       design.push_back({static_cast<double>(i)});
                     }
                     (void)sci::stats::quantile_regression_bootstrap_ci(
                         y, design, 0.5, 200, 0.95, 0x5c1b3, sci::stats::ExecPolicy{1, 1});
                   }
                 }),
                 "s"});
    m.push_back({"ci.dashboard.render_s", span_s("ci", [&] {
                   check(!sci::ci::render_markdown_dashboard(findings, series).empty(),
                         "dashboard renders");
                 }),
                 "s"});
  }

  /// obs::json over the envelope, the daemon's events and history lines.
  void json_layer(Metrics& m) {
    std::vector<std::string> docs = last_fresh_.event_lines;
    docs.insert(docs.end(), last_again_.event_lines.begin(), last_again_.event_lines.end());
    docs.push_back(envelope_);
    std::istringstream lines(read_file(path("history.jsonl")));
    for (std::string line; std::getline(lines, line);) docs.push_back(line);
    double bytes = 0.0;
    for (const std::string& doc : docs) bytes += static_cast<double>(doc.size());
    const double parse_s = span_s("obs.json", [&] {
      for (const std::string& doc : docs) (void)json::parse(doc);
    });
    m.push_back({"obs.json.parse_mb_per_s", bytes / parse_s / 1e6, "MB/s"});
  }

  perfbench::Workload w_;
  std::uint64_t seed_;
  std::string bin_;
  std::string work_;
  std::size_t nproc_;
  /// Parallelism of the timed campaigns: runner threads and daemon worker
  /// processes. Half the cores, so that one core slowed by the host's
  /// other tenants does not hold up a whole campaign; the traced scaling
  /// sweep still covers 1..nproc. The timed tools run single-threaded,
  /// which measured steadier still (RATIONALE.md).
  std::size_t workers_;
  std::size_t cells_;
  std::string envelope_;
  Ledger* ledger_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  // Kept from traced iterations for the layer measurements.
  perfbench::SubmitOutcome last_fresh_;
  perfbench::SubmitOutcome last_again_;
  std::vector<double> base_cell_s_;  ///< 1-worker cell times
};

/// Layers whose self time the traced run reports (span names).
constexpr const char* kLayers[] = {"sim",        "exec.runner", "exec.wire",   "exec.pool",
                                   "exec.service", "core.dataset", "exec.ingest", "core.report",
                                   "ci",         "stats",       "obs.json",    "tools.report",
                                   "tools.ci",   "bench.check"};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S --trace 0|1 "
               "--bin-dir DIR --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::string(argv[i]).rfind("--", 0) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  for (const char* key : {"workload", "seed", "seconds", "trace", "bin-dir", "work-dir"}) {
    if (args.count(key) == 0) return usage();
  }
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  const bool trace = args["trace"] == "1";
  const std::string work = args["work-dir"];

  try {
    fs::create_directories(work);
    Ledger off(false);
    Ledger on(true);
    Bench bench(perfbench::make_workload(args["workload"], seed), seed, args["bin-dir"], work,
                off);
    (void)bench.iteration(false);  // warm-up: caches, lazy init, page faults

    Metrics metrics;
    const auto put = [&metrics](std::string name, double value, std::string unit) {
      metrics.push_back({std::move(name), value, std::move(unit)});
    };
    if (!trace) {
      std::vector<Sample> samples;
      const double t0 = steady_s();
      while (samples.size() < 10 || steady_s() - t0 < seconds) {
        samples.push_back(bench.iteration(false));
      }
      // The best sample: the shortest time, the highest throughput.
      // Interference on a shared host only ever adds time, for seconds at
      // a time as neighbours come and go. The median moves with the share
      // of a run the neighbours were busy; the best sample tracks the
      // program's own cost as long as one iteration ran undisturbed.
      const auto summary = [&](double Sample::*field, bool higher_is_better) {
        std::vector<double> xs;
        for (const Sample& s : samples) xs.push_back(s.*field);
        return higher_is_better ? *std::max_element(xs.begin(), xs.end())
                                : *std::min_element(xs.begin(), xs.end());
      };
      put("setup_s", summary(&Sample::setup_s, false), "s");
      put("cells_per_s", summary(&Sample::cells_per_s, true), "cells/s");
      put("resubmit_s", summary(&Sample::resubmit_s, false), "s");
      put("cells_per_s_1w", summary(&Sample::cells_per_s_1w, true), "cells/s");
      put("report_s", summary(&Sample::report_s, false), "s");
      put("gate_s", summary(&Sample::gate_s, false), "s");
    } else {
      // Untraced and traced iterations alternate, so drift hits both.
      std::vector<double> plain, traced, traced_fresh;
      for (int k = 0; k < 2; ++k) {
        bench.use_ledger(off);
        plain.push_back(bench.iteration(false).stages_s);
        bench.use_ledger(on);
        const Sample s = bench.iteration(true);
        traced.push_back(s.stages_s);
        traced_fresh.push_back(static_cast<double>(bench.cells()) / s.cells_per_s);
      }
      bench.layers(metrics, median_of(traced_fresh));
      put("trace_overhead_frac", median_of(traced) / median_of(plain) - 1.0, "ratio");
      const std::map<std::string, double> self = on.self_times();
      for (const char* layer : kLayers) {
        const auto it = self.find(layer);
        put(std::string(layer) + ".self_s", it == self.end() ? 0.0 : it->second, "s");
      }
      put("residual_s", self.count("residual") ? self.at("residual") : 0.0, "s");
      put("wall_s", on.wall(), "s");
      put("failed_frac",
          static_cast<double>(bench.failed()) / static_cast<double>(bench.attempted()),
          "ratio");
      const std::string trace_path = work + "/perfbench.trace.json";
      bench.check(on.save_trace(trace_path), "trace written to " + trace_path);
    }

    std::printf("%s\n", bench.host_line().c_str());
    std::string out = "{\"correct\": ";
    out += bench.failed() == 0 ? "true" : "false";
    out += ", \"attempted\": " + json::dump_size(bench.attempted());
    out += ", \"failed\": " + json::dump_size(bench.failed());
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) out += ", ";
      out += json::quoted(metrics[i].name) + ": {\"value\": " +
             json::dump_number(metrics[i].value) + ", \"unit\": " +
             json::quoted(metrics[i].unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
