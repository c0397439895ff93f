// ProgressSink / metrics-snapshot telemetry: the observational contract
// (snapshots agree with the exported CSV ground truth) and the
// determinism contract (attaching a sink changes zero exported bytes).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "exec/ingest.hpp"
#include "exec/progress.hpp"
#include "exec/runner.hpp"
#include "exec/sim_backend.hpp"

namespace sci::exec {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::string csv_of(const CampaignResult& result) {
  std::ostringstream os;
  result.samples_dataset().write_csv(os);
  return os.str();
}

SimBackend small_sim_backend(std::size_t samples = 24) {
  SimBackendOptions opts;
  opts.kernel = SimKernel::kPingPong;
  opts.samples = samples;
  opts.warmup = 2;
  opts.scale = 1e6;
  opts.unit = "us";
  return SimBackend(opts);
}

Campaign small_campaign(std::uint64_t seed = 42) {
  CampaignSpec spec;
  spec.name = "progress_grid";
  spec.base.synchronization_method = "none (pingpong)";
  spec.factors.push_back({"system", {"dora", "pilatus"}});
  spec.factors.push_back({"message_bytes", {"64", "1024", "4096"}});
  spec.replications = 2;
  spec.seed = seed;
  return Campaign(spec);
}

/// Records every callback; thread-safe because heartbeats arrive from
/// the monitor thread.
class CollectingSink : public ProgressSink {
 public:
  void on_heartbeat(const ProgressSnapshot& snapshot) override {
    const std::lock_guard<std::mutex> lock(mu_);
    heartbeats_.push_back(snapshot);
  }
  void on_complete(const ProgressSnapshot& snapshot) override {
    const std::lock_guard<std::mutex> lock(mu_);
    finals_.push_back(snapshot);
  }
  [[nodiscard]] std::vector<ProgressSnapshot> heartbeats() {
    const std::lock_guard<std::mutex> lock(mu_);
    return heartbeats_;
  }
  [[nodiscard]] std::vector<ProgressSnapshot> finals() {
    const std::lock_guard<std::mutex> lock(mu_);
    return finals_;
  }

 private:
  std::mutex mu_;
  std::vector<ProgressSnapshot> heartbeats_;
  std::vector<ProgressSnapshot> finals_;
};

// ------------------------------------------- snapshot vs ground truth

TEST(Progress, FinalSnapshotMatchesIngestedCsvAtEveryWorkerCount) {
  for (const std::size_t workers : {1u, 4u, 8u}) {
    SimBackend backend = small_sim_backend();
    const Campaign campaign = small_campaign();
    CollectingSink sink;
    CampaignRunnerOptions options;
    options.workers = workers;
    options.progress = &sink;
    CampaignRunner runner(backend, campaign, options);
    const CampaignResult result = runner.run();

    ASSERT_EQ(sink.finals().size(), 1u) << workers << " workers";
    const ProgressSnapshot snapshot = sink.finals()[0];
    EXPECT_TRUE(snapshot.finished);
    EXPECT_EQ(snapshot.campaign, "progress_grid");
    EXPECT_EQ(snapshot.total_cells, campaign.cell_count());
    EXPECT_EQ(snapshot.completed, campaign.cell_count());
    EXPECT_EQ(snapshot.executed, result.executed);
    EXPECT_EQ(snapshot.failed, 0u);
    EXPECT_EQ(snapshot.interrupted, 0u);
    ASSERT_EQ(snapshot.workers.size(), workers);

    // Worker attribution must cover exactly the resolved cells.
    std::size_t worker_cells = 0;
    for (const auto& w : snapshot.workers) worker_cells += w.cells;
    EXPECT_EQ(worker_cells, snapshot.completed);

    // Ground truth: the exported CSV. Row count == samples_total, and
    // the regrouped cell count == completed cells.
    const std::string csv_path = temp_path("progress_" + std::to_string(workers) + ".csv");
    result.samples_dataset().save_csv(csv_path);
    const Ingested ingested = load_measurements(csv_path);
    EXPECT_EQ(snapshot.samples_total, ingested.dataset.rows());
    EXPECT_EQ(snapshot.samples_executed, ingested.dataset.rows());
    EXPECT_EQ(snapshot.completed, ingested.cells.size());
    EXPECT_EQ(ingested.failed, 0u);
  }
}

TEST(Progress, CsvBytesIdenticalWithAndWithoutSink) {
  const std::string baseline = [&] {
    SimBackend backend = small_sim_backend();
    CampaignRunnerOptions options;
    options.workers = 4;
    CampaignRunner runner(backend, small_campaign(), options);
    return csv_of(runner.run());
  }();

  SimBackend backend = small_sim_backend();
  CollectingSink sink;
  CampaignRunnerOptions options;
  options.workers = 4;
  options.progress = &sink;
  options.heartbeat_period_s = 0.001;  // hammer the monitor thread too
  options.metrics_path = temp_path("progress_det.json");
  CampaignRunner runner(backend, small_campaign(), options);
  const std::string with_sink = csv_of(runner.run());

  EXPECT_EQ(with_sink, baseline);
}

TEST(Progress, MetricsFileIsParseableAndFinished) {
  const std::string metrics_path = temp_path("progress_metrics.json");
  SimBackend backend = small_sim_backend();
  CampaignRunnerOptions options;
  options.workers = 2;
  options.metrics_path = metrics_path;  // no sink: file alone turns telemetry on
  CampaignRunner runner(backend, small_campaign(), options);
  const CampaignResult result = runner.run();

  std::ifstream in(metrics_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const ProgressSnapshot snapshot = parse_progress_snapshot(buffer.str());
  EXPECT_TRUE(snapshot.finished);
  EXPECT_EQ(snapshot.completed, result.cells.size());
  EXPECT_EQ(snapshot.executed, result.executed);
  EXPECT_EQ(snapshot.backend, backend.name());
  // Round trip: the snapshot file is canonical JSON.
  EXPECT_EQ(snapshot.to_json(), buffer.str());
}

TEST(Progress, HeartbeatsAreMonotoneAndBounded) {
  SimBackend backend = small_sim_backend(400);  // enough work to tick a few times
  CollectingSink sink;
  CampaignRunnerOptions options;
  options.workers = 2;
  options.progress = &sink;
  options.heartbeat_period_s = 0.001;
  CampaignRunner runner(backend, small_campaign(), options);
  const CampaignResult result = runner.run();
  (void)result;

  std::size_t previous = 0;
  for (const auto& beat : sink.heartbeats()) {
    EXPECT_FALSE(beat.finished);
    EXPECT_LE(beat.completed, beat.total_cells);
    EXPECT_GE(beat.completed, previous);
    previous = beat.completed;
    // samples_total is final-only bookkeeping.
    EXPECT_EQ(beat.samples_total, 0u);
  }
  ASSERT_EQ(sink.finals().size(), 1u);
  EXPECT_GE(sink.finals()[0].completed, previous);
}

/// Records every cell of every on_cells callback; thread-safe because
/// workers call it.
class CellSink : public ProgressSink {
 public:
  void on_cells(std::span<const CampaignCell> cells) override {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const CampaignCell& cell : cells) {
      seen_.push_back({cell.config.index, cell.rep, cell.result.from_cache});
    }
  }
  void on_complete(const ProgressSnapshot&) override {}
  /// The (config, rep, from_cache) triples seen so far, sorted.
  [[nodiscard]] std::vector<std::tuple<std::size_t, std::size_t, bool>> take() {
    const std::lock_guard<std::mutex> lock(mu_);
    auto seen = std::move(seen_);
    seen_.clear();
    std::sort(seen.begin(), seen.end());
    return seen;
  }

 private:
  std::mutex mu_;
  std::vector<std::tuple<std::size_t, std::size_t, bool>> seen_;
};

TEST(Progress, CellHookNeverChangesBytes) {
  const Campaign campaign = small_campaign();
  for (const std::size_t workers : {1u, 4u}) {
    CampaignRunnerOptions options;
    options.workers = workers;
    SimBackend plain = small_sim_backend();
    const std::string baseline = csv_of(CampaignRunner(plain, campaign, options).run());

    SimBackend backend = small_sim_backend();
    CellSink sink;
    options.progress = &sink;
    CampaignRunner runner(backend, campaign, options);
    // First run executes every cell, the second serves every cell from
    // the runner's cache; the hook sees each cell once per run.
    for (const bool from_cache : {false, true}) {
      EXPECT_EQ(csv_of(runner.run()), baseline) << workers << " workers";
      std::vector<std::tuple<std::size_t, std::size_t, bool>> want;
      for (std::size_t c = 0; c < campaign.config_count(); ++c) {
        for (std::size_t rep = 0; rep < 2; ++rep) want.emplace_back(c, rep, from_cache);
      }
      EXPECT_EQ(sink.take(), want) << workers << " workers, from_cache " << from_cache;
    }
  }
}

// ------------------------------------------- interruption and resume

TEST(Progress, InterruptedSnapshotAccountsBudgetAndResumeFinishes) {
  const std::string journal = temp_path("progress_journal.jsonl");
  const std::string metrics1 = temp_path("progress_phase1.json");
  const std::string metrics2 = temp_path("progress_phase2.json");

  std::size_t phase1_executed = 0;
  {
    SimBackend backend = small_sim_backend();
    CollectingSink sink;
    CampaignRunnerOptions options;
    options.workers = 1;
    options.journal_path = journal;
    options.cell_budget = 5;
    options.progress = &sink;
    options.metrics_path = metrics1;
    CampaignRunner runner(backend, small_campaign(), options);
    const CampaignResult result = runner.run();
    ASSERT_GT(result.interrupted, 0u);
    phase1_executed = result.executed;

    ASSERT_EQ(sink.finals().size(), 1u);
    const ProgressSnapshot snapshot = sink.finals()[0];
    EXPECT_TRUE(snapshot.finished);  // the run() call finished, interrupted or not
    EXPECT_EQ(snapshot.interrupted, result.interrupted);
    EXPECT_EQ(snapshot.executed, 5u);
    // "completed" counts cells resolved by any means -- interrupted
    // cells included (they are resolved for this run; resume executes
    // them).
    EXPECT_EQ(snapshot.completed, snapshot.total_cells);
    EXPECT_EQ(snapshot.executed + snapshot.interrupted, snapshot.total_cells);
  }

  // Resume: journal hits replay phase 1's cells without executing them.
  SimBackend backend = small_sim_backend();
  CollectingSink sink;
  CampaignRunnerOptions options;
  options.workers = 1;
  options.journal_path = journal;
  options.progress = &sink;
  options.metrics_path = metrics2;
  CampaignRunner runner(backend, small_campaign(), options);
  const CampaignResult result = runner.run();
  EXPECT_EQ(result.interrupted, 0u);

  ASSERT_EQ(sink.finals().size(), 1u);
  const ProgressSnapshot snapshot = sink.finals()[0];
  EXPECT_EQ(snapshot.journal_hits, phase1_executed);
  EXPECT_EQ(snapshot.completed, snapshot.total_cells);
  EXPECT_EQ(snapshot.executed + snapshot.journal_hits, snapshot.total_cells);
  // The ingested CSV still agrees with the snapshot after a resume.
  const std::string csv_path = temp_path("progress_resumed.csv");
  result.samples_dataset().save_csv(csv_path);
  const Ingested ingested = load_measurements(csv_path);
  EXPECT_EQ(snapshot.samples_total, ingested.dataset.rows());
  EXPECT_EQ(snapshot.completed, ingested.cells.size());
}

// ------------------------------------------------- snapshot json

TEST(Progress, SnapshotJsonRoundTrips) {
  ProgressSnapshot snapshot;
  snapshot.campaign = "c";
  snapshot.backend = "b";
  snapshot.total_cells = 12;
  snapshot.completed = 12;
  snapshot.executed = 10;
  snapshot.retries = 1;
  snapshot.cache_hits = 2;
  snapshot.samples_executed = 240;
  snapshot.samples_total = 288;
  snapshot.elapsed_s = 1.5;
  snapshot.finished = true;
  snapshot.workers.push_back({7, 0.75});
  snapshot.workers.push_back({5, 0.7});
  snapshot.counter_delta.emplace_back("engine.events", 123456);

  const std::string json_text = snapshot.to_json();
  const ProgressSnapshot back = parse_progress_snapshot(json_text);
  EXPECT_EQ(back.to_json(), json_text);
  EXPECT_EQ(back.completed, 12u);
  ASSERT_EQ(back.workers.size(), 2u);
  EXPECT_EQ(back.workers[0].cells, 7u);
  ASSERT_EQ(back.counter_delta.size(), 1u);
  EXPECT_EQ(back.counter_delta[0].second, 123456u);
}

}  // namespace
}  // namespace sci::exec
