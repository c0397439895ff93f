// Resilient campaign execution: failure containment (throwing run() and
// make_context()), bounded deterministic retry, the collision-safe
// result-cache key, the crash-safe campaign journal with kill/resume
// byte-differentials (workers x faults), and failed-cell accounting end
// to end through CSV export and ingestion.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/measurement.hpp"
#include "exec/ingest.hpp"
#include "exec/journal.hpp"
#include "exec/runner.hpp"
#include "exec/sim_backend.hpp"
#include "golden_file.hpp"
#include "rng/xoshiro.hpp"

namespace sci::exec {
namespace {

std::string csv_of(const core::Dataset& ds) {
  std::ostringstream os;
  ds.write_csv(os);
  return os.str();
}

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

SimBackendOptions small_sim_options() {
  SimBackendOptions opts;
  opts.kernel = SimKernel::kPingPong;
  opts.samples = 24;
  opts.warmup = 2;
  opts.scale = 1e6;
  opts.unit = "us";
  return opts;
}

SimBackend small_sim_backend() { return SimBackend(small_sim_options()); }

Campaign small_campaign(std::vector<std::string> systems, std::uint64_t seed = 42) {
  CampaignSpec spec;
  spec.name = "resilience_grid";
  spec.base.synchronization_method = "none (pingpong)";
  spec.factors.push_back({"system", std::move(systems)});
  spec.factors.push_back({"message_bytes", {"64", "1024", "4096"}});
  spec.replications = 2;
  spec.seed = seed;
  return Campaign(spec);
}

// ------------------------------------------- failure containment

class ThrowingContextBackend : public Backend {
 public:
  class Context : public BackendContext {
   public:
    CellResult run(const Config&, std::uint64_t) override {
      CellResult r;
      r.samples = {1.0};
      return r;
    }
  };
  std::string name() const override { return "throwing-context"; }
  CellResult run(const Config&, std::uint64_t) override {
    CellResult r;
    r.samples = {1.0};
    return r;
  }
  std::unique_ptr<BackendContext> make_context() override {
    throw std::runtime_error("context exploded");
  }
};

TEST(Resilience, ThrowingMakeContextFailsCellsNotTheProcess) {
  // Regression: make_context() ran outside any try block on the worker
  // thread, so this exception escaped into std::thread and terminated
  // the whole process.
  ThrowingContextBackend backend;
  for (std::size_t workers : {1u, 4u}) {
    CampaignRunnerOptions opts;
    opts.workers = workers;
    CampaignRunner runner(backend, small_campaign({"dora"}), opts);
    const CampaignResult result = runner.run();
    EXPECT_EQ(result.failed, result.cells.size()) << "workers=" << workers;
    EXPECT_EQ(result.executed, 0u);
    for (const auto& cell : result.cells) {
      EXPECT_NE(cell.result.error.find("make_context failed"), std::string::npos)
          << cell.result.error;
      EXPECT_NE(cell.result.error.find("context exploded"), std::string::npos);
    }
    // The damage is accounted in the Rule 9 header.
    EXPECT_EQ(result.experiment.environment.at("campaign.failed"),
              std::to_string(result.cells.size()));
  }
}

class ThrowingRunBackend : public Backend {
 public:
  std::string name() const override { return "throwing-run"; }
  CellResult run(const Config& config, std::uint64_t) override {
    if (config.level("system") == "bad") throw std::runtime_error("boom");
    CellResult r;
    r.unit = "u";
    r.samples = {1.0, 2.0};
    return r;
  }
};

// ------------------------------------------------ bounded retry

/// Deterministically flaky: fails whenever the seed it is handed is
/// odd. The runner's retry ladder derives attempt seeds from the cell
/// seed, so whether a cell eventually succeeds is a pure function of
/// the cell -- identical across worker counts.
class FlakyBackend : public Backend {
 public:
  std::string name() const override { return "flaky"; }
  CellResult run(const Config& config, std::uint64_t seed) override {
    if (seed % 2 == 1) throw std::runtime_error("transient fault");
    CellResult r;
    r.unit = "u";
    std::uint64_t state = seed;
    for (int i = 0; i < 8; ++i) {
      r.samples.push_back(static_cast<double>(rng::splitmix64_next(state) >> 40) +
                          static_cast<double>(config.index));
    }
    return r;
  }
};

TEST(Resilience, RetriesUseDerivedSeedsAndStayDeterministic) {
  std::string reference;
  for (std::size_t workers : {1u, 4u}) {
    FlakyBackend backend;
    CampaignRunnerOptions opts;
    opts.workers = workers;
    opts.max_attempts = 12;  // P(12 odd draws) ~ 2^-12 per cell; seed 42 clears it
    CampaignRunner runner(backend, small_campaign({"a", "b"}), opts);
    const CampaignResult result = runner.run();
    EXPECT_EQ(result.failed, 0u) << "workers=" << workers;
    EXPECT_GT(result.retries, 0u);
    for (const auto& cell : result.cells) EXPECT_GE(cell.result.attempts, 1u);

    const std::string csv = csv_of(result.samples_dataset());
    if (reference.empty()) {
      reference = csv;
    } else {
      EXPECT_EQ(csv, reference) << "workers=" << workers;
    }
  }
}

TEST(Resilience, RetryBoundIsRespected) {
  class AlwaysThrow : public Backend {
   public:
    std::string name() const override { return "always-throw"; }
    CellResult run(const Config&, std::uint64_t) override {
      calls.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("permanent fault");
    }
    std::atomic<std::size_t> calls{0};
  };
  AlwaysThrow backend;
  CampaignSpec spec;
  spec.name = "bounded";
  spec.factors.push_back({"k", {"x"}});
  CampaignRunnerOptions opts;
  opts.workers = 1;
  opts.max_attempts = 3;
  CampaignRunner runner(backend, Campaign(spec), opts);
  const CampaignResult result = runner.run();
  EXPECT_EQ(backend.calls.load(), 3u);
  EXPECT_EQ(result.failed, 1u);
  EXPECT_EQ(result.retries, 2u);
  EXPECT_EQ(result.cells[0].result.attempts, 3u);
  EXPECT_EQ(result.cells[0].result.error, "permanent fault");
}

// ------------------------------------------- collision-safe cache

TEST(Resilience, CellCacheSurvivesHashCollisions) {
  // Regression: the cache was keyed on the raw 64-bit hash alone, so a
  // collision between two distinct cells returned the wrong cell's
  // samples. CellKey keeps the hash for bucketing but compares the full
  // identity.
  CellKey a;
  a.identity = std::make_shared<const std::string>("b");
  a.levels = {{"k", "1"}};
  a.seed = 7;
  a.hash = 0xdeadbeef;
  CellKey b = a;
  b.levels = {{"k", "2"}};  // different cell, same (forced) hash
  ASSERT_FALSE(a == b);

  ResultCache cache;
  CellResult ra, rb;
  ra.samples = {1.0};
  rb.samples = {2.0};
  cache.insert(a, ra);
  cache.insert(b, rb);
  ASSERT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find(a)->samples, (std::vector<double>{1.0}));
  EXPECT_EQ(cache.find(b)->samples, (std::vector<double>{2.0}));

  // Seed and backend identity are part of the identity too.
  CellKey c = a;
  c.seed = 8;
  EXPECT_FALSE(cache.find(c).has_value());
  CellKey d = a;
  d.identity = std::make_shared<const std::string>("other");
  EXPECT_FALSE(cache.find(d).has_value());
  // An equal identity held by another run's string is the same cell.
  CellKey e = a;
  e.identity = std::make_shared<const std::string>("b");
  ASSERT_TRUE(cache.find(e).has_value());
  EXPECT_EQ(cache.find(e)->samples, (std::vector<double>{1.0}));
}

TEST(Resilience, MakeCellKeyEncodesBackendLevelsAndSeed) {
  Config config;
  config.levels = {{"k", "1"}};
  const auto identity = std::make_shared<const std::string>("b {options}");
  const CellKey base = make_cell_key(identity, "b", config, 7);
  EXPECT_EQ(base.identity, identity);  // shared, not copied
  EXPECT_EQ(base.levels, config.levels);
  EXPECT_EQ(base.seed, 7u);
  EXPECT_EQ(base.hash, cell_hash("b", config, 7));
  EXPECT_NE(base.hash, make_cell_key(identity, "b", config, 8).hash);
  EXPECT_NE(base.hash, make_cell_key(identity, "c", config, 7).hash);
}

// ------------------------------------------------------- journal

TEST(Journal, RoundTripsResultsByteExactly) {
  const std::string path = temp_path("journal_roundtrip.log");
  CellResult r;
  r.samples = {1.0 / 3.0, -0.0, 5e-324, 1.7976931348623157e308, 42.0};
  r.unit = "us";
  r.stop_reason = "fixed";
  r.warmup_discarded = 3;
  r.attempts = 2;
  {
    CampaignJournal journal(path, 0x1234);
    journal.append(5, 1, 0xabcdef, r);
    EXPECT_NE(journal.find(5, 1, 0xabcdef), nullptr);
  }
  CampaignJournal reopened(path, 0x1234);
  const CellResult* rec = reopened.find(5, 1, 0xabcdef);
  ASSERT_NE(rec, nullptr);
  // Bit-for-bit identical doubles (memcmp, not ==: -0.0 == 0.0).
  ASSERT_EQ(rec->samples.size(), r.samples.size());
  EXPECT_EQ(std::memcmp(rec->samples.data(), r.samples.data(),
                        r.samples.size() * sizeof(double)),
            0);
  EXPECT_EQ(rec->unit, "us");
  EXPECT_EQ(rec->stop_reason, "fixed");
  EXPECT_EQ(rec->warmup_discarded, 3u);
  EXPECT_EQ(rec->attempts, 2u);
  EXPECT_EQ(reopened.find(5, 1, 0xabcde), nullptr);  // wrong seed: ignored
  EXPECT_EQ(reopened.find(5, 0, 0xabcdef), nullptr);
}

TEST(Journal, RecordsErrorsAndTextWithSpaces) {
  const std::string path = temp_path("journal_errors.log");
  CellResult r;
  r.error = "boom: worker 3 lost\nits marbles";
  r.stop_reason = "";
  {
    CampaignJournal journal(path, 9);
    journal.append(0, 0, 1, r);
  }
  CampaignJournal reopened(path, 9);
  const CellResult* rec = reopened.find(0, 0, 1);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->error, r.error);
  EXPECT_EQ(rec->stop_reason, "");
}

TEST(Journal, ToleratesTornTail) {
  const std::string path = temp_path("journal_torn.log");
  CellResult r;
  r.samples = {1.5, 2.5};
  {
    CampaignJournal journal(path, 77);
    journal.append(0, 0, 10, r);
    journal.append(1, 0, 11, r);
  }
  // Simulate a crash mid-append: a cut-short line (here in the old
  // token format, which does not parse as JSON either).
  {
    std::ofstream out(path, std::ios::app);
    out << "cell 2 0 000000000000000c 1 0 - - - 2 3ff8000000";
  }
  CampaignJournal reopened(path, 77);
  EXPECT_NE(reopened.find(0, 0, 10), nullptr);
  EXPECT_NE(reopened.find(1, 0, 11), nullptr);
  EXPECT_EQ(reopened.find(2, 0, 12), nullptr);
  // The journal stays appendable after dropping the torn tail.
  reopened.append(2, 0, 12, r);
  CampaignJournal again(path, 77);
  EXPECT_EQ(again.find(2, 0, 12)->samples, r.samples);

  // A real record cut mid-line: the first half of the line another
  // journal wrote for cell (3, 0).
  const std::string donor = temp_path("journal_torn_donor.log");
  { CampaignJournal(donor, 77).append(3, 0, 13, r); }
  std::string record;
  {
    std::ifstream in(donor);
    std::getline(in, record);  // header
    std::getline(in, record);
  }
  std::remove(donor.c_str());
  ASSERT_GT(record.size(), 20u);
  {
    std::ofstream out(path, std::ios::app);
    out << record.substr(0, record.size() / 2);
  }
  CampaignJournal cut(path, 77);
  EXPECT_NE(cut.find(2, 0, 12), nullptr);
  EXPECT_EQ(cut.find(3, 0, 13), nullptr);
  cut.append(3, 0, 13, r);
  CampaignJournal healed(path, 77);
  EXPECT_NE(healed.find(2, 0, 12), nullptr);
  ASSERT_NE(healed.find(3, 0, 13), nullptr);
  EXPECT_EQ(healed.find(3, 0, 13)->samples, r.samples);
}

TEST(Journal, RefusesForeignFiles) {
  const std::string path = temp_path("journal_foreign.log");
  {
    CampaignJournal journal(path, 1);
    CellResult r;
    journal.append(0, 0, 0, r);
  }
  EXPECT_THROW(CampaignJournal(path, 2), std::runtime_error);

  const std::string junk = temp_path("journal_junk.log");
  {
    std::ofstream out(junk);
    out << "config,rep,value\n0,0,1.5\n";
  }
  EXPECT_THROW(CampaignJournal(junk, 1), std::runtime_error);

  // v1 and v2 journals (space-separated tokens) count as foreign, even
  // when their fingerprint matches.
  for (const char* header : {"# scibench campaign journal v1 fp=0000000000000001\n",
                             "# scibench campaign journal v2 fp=0000000000000001\n"}) {
    const std::string token = temp_path("journal_token.log");
    {
      std::ofstream out(token);
      out << header << "cell 0 0 0000000000000000 1 0 - - - 1 3ff8000000000000 ok\n";
    }
    EXPECT_THROW(CampaignJournal(token, 1), std::runtime_error) << header;
  }
}

TEST(Journal, FingerprintSeparatesCampaignsAndBackends) {
  const Campaign a = small_campaign({"dora"}, 1);
  const Campaign b = small_campaign({"dora"}, 2);
  EXPECT_NE(CampaignJournal::fingerprint(a, "x"), CampaignJournal::fingerprint(b, "x"));
  EXPECT_NE(CampaignJournal::fingerprint(a, "x"), CampaignJournal::fingerprint(a, "y"));
  EXPECT_EQ(CampaignJournal::fingerprint(a, "x"),
            CampaignJournal::fingerprint(small_campaign({"dora"}, 1), "x"));
}

/// Runs `campaign` on `backend` with its journal at `path`.
CampaignResult run_journaled(Backend& backend, Campaign campaign, const std::string& path) {
  CampaignRunnerOptions opts;
  opts.workers = 2;
  opts.journal_path = path;
  CampaignRunner runner(backend, std::move(campaign), opts);
  return runner.run();
}

TEST(Journal, ChangedFactorLevelRefusesToResume) {
  // Records are keyed by (config index, rep), and seeds derive from the
  // campaign seed, index and rep: resuming a grid whose levels changed
  // would replay the old cells under the new labels.
  const std::string path = temp_path("journal_levels.jsonl");
  SimBackend backend = small_sim_backend();
  const Campaign first = small_campaign({"dora"});
  ASSERT_EQ(run_journaled(backend, first, path).executed, first.cell_count());
  CampaignSpec changed = first.spec();
  changed.factors[1].levels = {"2048", "8192", "32768"};
  EXPECT_THROW((void)run_journaled(backend, Campaign(changed), path), std::runtime_error);
  // The unchanged campaign still resumes from it.
  EXPECT_EQ(run_journaled(backend, first, path).executed, 0u);
}

TEST(Journal, ChangedBackendOptionRefusesToResume) {
  // Same grid, same seeds, other sample count: the recorded cells are
  // not the cells this backend would produce.
  const std::string path = temp_path("journal_options.jsonl");
  SimBackend backend = small_sim_backend();
  ASSERT_GT(run_journaled(backend, small_campaign({"dora"}), path).executed, 0u);
  SimBackendOptions more = small_sim_options();
  more.samples = 50;
  SimBackend other(more);
  EXPECT_EQ(other.name(), backend.name());
  EXPECT_THROW((void)run_journaled(other, small_campaign({"dora"}), path), std::runtime_error);
}

TEST(Journal, OlderVersionIsRefusedWithItsVersion) {
  // A version-3 fingerprint covered neither levels nor backend options,
  // so even a matching one proves nothing; the error says so.
  const std::string path = temp_path("journal_v3.jsonl");
  {
    std::ofstream out(path);
    out << R"({"schema": "scibench.journal", "version": 3, "fingerprint": "0000000000000001"})"
        << "\n";
  }
  try {
    CampaignJournal journal(path, 1);
    ADD_FAILURE() << "a version-3 journal was opened";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version-3 journal"), std::string::npos) << e.what();
  }
}

// ------------------------------------------------- kill / resume

/// The tentpole differential: run a campaign to completion; run the
/// same campaign interrupted after `budget` executed cells (journal
/// on), then resume it in a fresh runner (fresh in-memory cache, as a
/// new process would have). The resumed CSVs must be byte-identical to
/// the uninterrupted run -- for every worker count, with faults off and
/// on.
TEST(Resume, InterruptedCampaignResumesByteIdentically) {
  for (const std::string system : {"dora", "dora+chaos"}) {
    SimBackend baseline_backend = small_sim_backend();
    CampaignRunnerOptions baseline_opts;
    baseline_opts.workers = 2;
    CampaignRunner baseline(baseline_backend, small_campaign({system}), baseline_opts);
    const CampaignResult full = baseline.run();
    ASSERT_EQ(full.failed, 0u);
    const std::string want_samples = csv_of(full.samples_dataset());
    const std::string want_summary = csv_of(full.summary_dataset());

    for (std::size_t workers : {1u, 4u, 8u}) {
      const std::string journal_path =
          temp_path("resume_" + std::to_string(workers) + "_" +
                    (system == "dora" ? "clean" : "chaos") + ".journal");

      // Phase 1: "killed" after 3 executed cells.
      {
        SimBackend backend = small_sim_backend();
        CampaignRunnerOptions opts;
        opts.workers = workers;
        opts.journal_path = journal_path;
        opts.cell_budget = 3;
        CampaignRunner runner(backend, small_campaign({system}), opts);
        const CampaignResult partial = runner.run();
        EXPECT_EQ(partial.executed, 3u);
        EXPECT_GT(partial.interrupted, 0u);
        EXPECT_EQ(partial.executed + partial.interrupted + partial.cache_hits,
                  partial.cells.size());
        EXPECT_EQ(partial.experiment.environment.count("campaign.interrupted"), 1u);
      }

      // Phase 2: resume in a fresh runner (no in-memory cache carried
      // over). Journaled cells replay; only the interrupted ones run.
      {
        SimBackend backend = small_sim_backend();
        CampaignRunnerOptions opts;
        opts.workers = workers;
        opts.journal_path = journal_path;
        CampaignRunner runner(backend, small_campaign({system}), opts);
        const CampaignResult resumed = runner.run();
        EXPECT_EQ(resumed.journal_hits, 3u) << "workers=" << workers;
        EXPECT_EQ(resumed.executed + resumed.journal_hits + resumed.cache_hits,
                  resumed.cells.size());
        EXPECT_EQ(resumed.failed, 0u);
        EXPECT_EQ(resumed.interrupted, 0u);
        EXPECT_EQ(resumed.experiment.environment.count("campaign.interrupted"), 0u);
        EXPECT_EQ(csv_of(resumed.samples_dataset()), want_samples)
            << "workers=" << workers << " system=" << system;
        EXPECT_EQ(csv_of(resumed.summary_dataset()), want_summary)
            << "workers=" << workers << " system=" << system;
      }
      std::remove(journal_path.c_str());
    }
  }
}

TEST(Resume, CompletedJournalReplaysEverything) {
  const std::string journal_path = temp_path("resume_complete.journal");
  const std::string want = [&] {
    SimBackend backend = small_sim_backend();
    CampaignRunnerOptions opts;
    opts.workers = 2;
    opts.journal_path = journal_path;
    CampaignRunner runner(backend, small_campaign({"dora"}), opts);
    return csv_of(runner.run().samples_dataset());
  }();
  SimBackend backend = small_sim_backend();
  CampaignRunnerOptions opts;
  opts.workers = 2;
  opts.journal_path = journal_path;
  CampaignRunner runner(backend, small_campaign({"dora"}), opts);
  const CampaignResult replayed = runner.run();
  EXPECT_EQ(replayed.executed, 0u);
  EXPECT_EQ(replayed.journal_hits, replayed.cells.size());
  EXPECT_EQ(csv_of(replayed.samples_dataset()), want);
  std::remove(journal_path.c_str());
}

TEST(Resume, JournalFromDifferentCampaignIsRejected) {
  const std::string journal_path = temp_path("resume_mismatch.journal");
  {
    SimBackend backend = small_sim_backend();
    CampaignRunnerOptions opts;
    opts.workers = 1;
    opts.journal_path = journal_path;
    CampaignRunner runner(backend, small_campaign({"dora"}, 1), opts);
    (void)runner.run();
  }
  SimBackend backend = small_sim_backend();
  CampaignRunnerOptions opts;
  opts.workers = 1;
  opts.journal_path = journal_path;
  CampaignRunner runner(backend, small_campaign({"dora"}, 2), opts);
  EXPECT_THROW((void)runner.run(), std::runtime_error);
  std::remove(journal_path.c_str());
}

TEST(Resume, FailedCellsAreJournaledAsFinal) {
  // Deterministic failures are outcomes, not work to redo: a resume
  // must not retry them (same seed -> same throw), and the resumed
  // accounting must match the uninterrupted run.
  const std::string journal_path = temp_path("resume_failed.journal");
  CampaignSpec spec;
  spec.name = "partial";
  spec.factors.push_back({"system", {"good", "bad"}});
  spec.replications = 2;
  {
    ThrowingRunBackend backend;
    CampaignRunnerOptions opts;
    opts.workers = 2;
    opts.journal_path = journal_path;
    CampaignRunner runner(backend, Campaign(spec), opts);
    const CampaignResult first = runner.run();
    EXPECT_EQ(first.failed, 2u);
    EXPECT_EQ(first.executed, 2u);
  }
  ThrowingRunBackend backend;
  CampaignRunnerOptions opts;
  opts.workers = 2;
  opts.journal_path = journal_path;
  CampaignRunner runner(backend, Campaign(spec), opts);
  const CampaignResult resumed = runner.run();
  EXPECT_EQ(resumed.executed, 0u);
  EXPECT_EQ(resumed.journal_hits, 4u);
  EXPECT_EQ(resumed.failed, 2u);  // replayed failures still count
  EXPECT_EQ(resumed.experiment.environment.at("campaign.failed"), "2");
  std::remove(journal_path.c_str());
}

// ------------------------------------- failed cells end to end

TEST(FailedCells, AccountedThroughCsvAndIngest) {
  ThrowingRunBackend backend;
  CampaignSpec spec;
  spec.name = "partial";
  spec.base.synchronization_method = "none";
  spec.factors.push_back({"system", {"good", "bad"}});
  spec.replications = 2;
  CampaignRunnerOptions opts;
  opts.workers = 2;
  CampaignRunner runner(backend, Campaign(spec), opts);
  const CampaignResult result = runner.run();
  ASSERT_EQ(result.failed, 2u);

  // The summary keeps one row per cell, failed ones flagged with NaN
  // statistics instead of vanishing.
  const core::Dataset summary = result.summary_dataset();
  ASSERT_EQ(summary.rows(), 4u);
  const auto failed_col = summary.column("failed");
  EXPECT_EQ(failed_col, (std::vector<double>{0.0, 0.0, 1.0, 1.0}));

  // Samples CSV: only successful cells contribute rows, but the header
  // names the missing ones. Round-trip through ingest recovers the
  // accounting.
  const std::string path = temp_path("failed_cells.csv");
  result.samples_dataset().save_csv(path);
  const Ingested ingested = load_measurements(path);
  EXPECT_TRUE(ingested.campaign);
  EXPECT_EQ(ingested.cells.size(), 2u);  // the two good cells
  EXPECT_EQ(ingested.failed, 2u);
  EXPECT_EQ(ingested.interrupted, 0u);
  EXPECT_NE(ingested.failed_cells.find("boom"), std::string::npos)
      << ingested.failed_cells;
  EXPECT_NE(ingested.failed_cells.find("config 1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FailedCells, AllFailedCampaignStillExportsAndIngests) {
  ThrowingRunBackend backend;
  CampaignSpec spec;
  spec.name = "doomed";
  spec.factors.push_back({"system", {"bad"}});
  spec.replications = 3;
  CampaignRunnerOptions opts;
  opts.workers = 2;
  CampaignRunner runner(backend, Campaign(spec), opts);
  const CampaignResult result = runner.run();
  ASSERT_EQ(result.failed, 3u);

  const std::string path = temp_path("all_failed.csv");
  result.samples_dataset().save_csv(path);  // zero data rows, full header
  const Ingested ingested = load_measurements(path);
  EXPECT_EQ(ingested.dataset.rows(), 0u);
  EXPECT_EQ(ingested.failed, 3u);
  EXPECT_FALSE(ingested.failed_cells.empty());
  std::remove(path.c_str());
}

TEST(FailedCells, CleanCampaignHasNoAccounting) {
  SimBackend backend = small_sim_backend();
  CampaignRunnerOptions opts;
  opts.workers = 2;
  CampaignRunner runner(backend, small_campaign({"dora"}), opts);
  const CampaignResult result = runner.run();
  ASSERT_EQ(result.failed, 0u);
  EXPECT_EQ(result.experiment.environment.count("campaign.failed"), 0u);

  const std::string path = temp_path("clean_cells.csv");
  result.samples_dataset().save_csv(path);
  const Ingested ingested = load_measurements(path);
  EXPECT_EQ(ingested.failed, 0u);
  EXPECT_EQ(ingested.interrupted, 0u);
  EXPECT_TRUE(ingested.failed_cells.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sci::exec

// ------------------------------------------------ CSV bytes pinned

namespace sci::exec {
namespace {

using golden::expect_golden;

TEST(CampaignCsv, GoldenSamplesAndSummaryBytes) {
  // A tiny campaign with one unknown system: its cells fail, so the
  // summary carries failed=1 rows of NaN statistics and the header the
  // damage report.
  SimBackendOptions opts;
  opts.kernel = SimKernel::kPingPong;
  opts.samples = 12;
  opts.warmup = 2;
  opts.scale = 1e6;
  opts.unit = "us";
  SimBackend backend(opts);
  CampaignSpec spec;
  spec.name = "golden_grid";
  spec.base.synchronization_method = "none (pingpong)";
  spec.factors.push_back({"system", {"dora", "nosuch"}});
  spec.factors.push_back({"message_bytes", {"8", "4096"}});
  spec.replications = 2;
  spec.seed = 20150917;
  CampaignRunnerOptions ropts;
  ropts.workers = 2;
  CampaignRunner runner(backend, Campaign(spec), ropts);
  const CampaignResult result = runner.run();
  ASSERT_EQ(result.failed, 4u);
  expect_golden("campaign_samples.csv.golden", csv_of(result.samples_dataset()));
  expect_golden("campaign_summary.csv.golden", csv_of(result.summary_dataset()));
}

TEST(CampaignCsv, SummaryRowsMatchSummarizeSeries) {
  // The summary export computes its six statistics directly; every
  // branch of core::summarize_series that shapes them must agree:
  // constant series (no CI), n <= 5 (no CI), n > 5, infinities. It
  // selects its order statistics instead of sorting, so seeded series
  // of every length from 1 to 300, with heavy ties, both signs and
  // infinities, must give the sort's bits too.
  std::vector<std::vector<double>> series = {
      {3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0},
      {1.0, 2.0, 3.0},
      {5.0},
      {4.0, 1.0, 9.0, 2.0, 7.0, 3.0, 8.0, 6.0, 5.0, 0.5},
      {1.0, 2.0, std::numeric_limits<double>::infinity(), 4.0, 5.0, 6.0, 7.0},
      {-0.0, 0.0, -0.0, 0.0, 0.0, 0.0},
  };
  rng::Xoshiro256 gen(0x5e1ec7u);
  for (std::size_t n = 1; n <= 300; ++n) {
    std::vector<double> xs(n);
    const std::uint64_t levels = 1 + gen() % 40;  // few levels: many ties
    for (double& x : xs) {
      x = static_cast<double>(gen() % levels) * 0.25 - 3.0 + 1e-3;
      if (gen() % 97 == 0) x = gen() % 2 == 0 ? std::numeric_limits<double>::infinity() : -x;
    }
    series.push_back(std::move(xs));
  }
  CampaignResult result;
  result.experiment.name = "summary_differential";
  for (std::size_t i = 0; i < series.size(); ++i) {
    CampaignCell cell;
    cell.config.index = i;
    cell.rep = 0;
    cell.result.samples = series[i];
    result.cells.push_back(std::move(cell));
  }
  const core::Dataset ds = result.summary_dataset();
  ASSERT_EQ(ds.rows(), series.size());
  const auto same = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0 || (a != a && b != b);
  };
  for (std::size_t i = 0; i < series.size(); ++i) {
    const core::MeasurementSummary s = core::summarize_series(series[i]);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<double> want = {
        static_cast<double>(i), 0.0, 0.0, static_cast<double>(s.n), s.median,
        s.median_ci ? s.median_ci->lower : nan, s.median_ci ? s.median_ci->upper : nan,
        s.mean, s.min, s.max};
    const auto got = ds.row(i);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < want.size(); ++c) {
      EXPECT_TRUE(same(got[c], want[c]))
          << "cell " << i << " column " << ds.columns()[c] << ": " << got[c] << " vs "
          << want[c];
    }
  }
}

TEST(CampaignCsv, UnfilledOffsetsRefuseGrouping) {
  // Only CampaignRunner::run fills cell_offsets; a hand-built result
  // still exports, but grouping by (config, rep) throws.
  CampaignResult result;
  result.configs = 2;
  result.replications = 1;
  for (std::size_t i = 0; i < 2; ++i) {
    CampaignCell cell;
    cell.config.index = i;
    cell.result.samples = {1.0, 2.0};
    result.cells.push_back(std::move(cell));
  }
  EXPECT_EQ(result.summary_dataset().rows(), 2u);
  EXPECT_THROW((void)result.rep_count(0), std::out_of_range);
  EXPECT_THROW((void)result.cell(1), std::out_of_range);
}

}  // namespace
}  // namespace sci::exec
