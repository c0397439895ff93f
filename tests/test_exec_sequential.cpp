// Round-structured sequential stopping in the campaign runner: the
// fixed-policy byte differential (StoppingPolicy::fixed(n) must be
// indistinguishable from the legacy fixed-replication path), byte
// determinism of sequential campaigns across worker counts, early
// retirement + deterministic budget reallocation, kill/resume mid-round
// through the journal, and the per-config stop accounting end to end
// (CampaignResult -> CSV header -> ingest).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/ingest.hpp"
#include "exec/journal.hpp"
#include "exec/runner.hpp"
#include "exec/sim_backend.hpp"
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

/// Deterministic synthetic backend with per-config noise scales: each
/// cell's samples are a pure function of (config, seed), centered on
/// 100 with a uniform spread set by the "noise" factor level. Quiet
/// configs converge after a few replications; the loud one cannot reach
/// a tight CI within any reasonable cap, forcing max_reps.
class NoiseLadderBackend : public Backend {
 public:
  std::string name() const override { return "noise-ladder"; }
  CellResult run(const Config& config, std::uint64_t seed) override {
    const std::string& level = config.level("noise");
    const double scale = level == "loud" ? 50.0 : level == "mid" ? 0.4 : 0.1;
    CellResult r;
    r.unit = "u";
    std::uint64_t state = seed;
    for (int i = 0; i < 16; ++i) {
      const double u =
          static_cast<double>(rng::splitmix64_next(state) >> 11) * 0x1.0p-53;
      r.samples.push_back(100.0 + scale * (u - 0.5));
    }
    return r;
  }
};

Campaign ladder_campaign(StoppingPolicy stopping) {
  CampaignSpec spec;
  spec.name = "ladder";
  spec.factors.push_back({"noise", {"quiet", "mid", "loud"}});
  spec.seed = 2718;
  spec.stopping = stopping;
  return Campaign(spec);
}

StoppingPolicy ladder_policy() {
  StoppingPolicy p = StoppingPolicy::sequential_ci(0.02, 3, 12);
  return p;
}

SimBackend small_sim_backend() {
  SimBackendOptions opts;
  opts.kernel = SimKernel::kPingPong;
  opts.samples = 24;
  opts.warmup = 2;
  opts.scale = 1e6;
  opts.unit = "us";
  return SimBackend(opts);
}

Campaign sim_campaign(StoppingPolicy stopping = {}) {
  CampaignSpec spec;
  spec.name = "seq_grid";
  spec.base.synchronization_method = "none (pingpong)";
  spec.factors.push_back({"system", {"dora", "pilatus"}});
  spec.factors.push_back({"message_bytes", {"64", "4096"}});
  spec.replications = 2;
  spec.seed = 11;
  spec.stopping = stopping;
  return Campaign(spec);
}

// --------------------------------------- fixed-policy differential

TEST(SequentialStopping, FixedPolicyIsByteIdenticalToDefaultPath) {
  // StoppingPolicy::fixed(n) must reproduce the legacy fixed-replication
  // runner byte for byte: same cells, same CSVs, same experiment
  // header, at every worker count.
  std::string want_samples;
  std::string want_summary;
  {
    SimBackend backend = small_sim_backend();
    CampaignRunnerOptions opts;
    opts.workers = 2;
    CampaignRunner runner(backend, sim_campaign(), opts);
    const CampaignResult result = runner.run();
    want_samples = csv_of(result.samples_dataset());
    want_summary = csv_of(result.summary_dataset());
  }
  for (std::size_t workers : {1u, 4u, 8u}) {
    SimBackend backend = small_sim_backend();
    CampaignRunnerOptions opts;
    opts.workers = workers;
    CampaignRunner runner(backend, sim_campaign(StoppingPolicy::fixed(2)), opts);
    const CampaignResult result = runner.run();
    EXPECT_FALSE(result.sequential);
    EXPECT_EQ(result.replications, 2u);
    EXPECT_EQ(result.rounds, 1u);
    EXPECT_EQ(csv_of(result.samples_dataset()), want_samples) << "workers=" << workers;
    EXPECT_EQ(csv_of(result.summary_dataset()), want_summary) << "workers=" << workers;
    // Fixed-mode headers carry no sequential annotations.
    EXPECT_EQ(result.experiment.environment.count("campaign.stopping"), 0u);
    EXPECT_EQ(result.experiment.environment.count("campaign.rep_counts"), 0u);
  }
}

TEST(SequentialStopping, FixedPolicyWithCountOverridesSpecReplications) {
  SimBackend backend = small_sim_backend();
  CampaignRunnerOptions opts;
  opts.workers = 1;
  CampaignRunner runner(backend, sim_campaign(StoppingPolicy::fixed(3)), opts);
  const CampaignResult result = runner.run();
  EXPECT_EQ(result.replications, 3u);
  EXPECT_EQ(result.cells.size(), result.config_count() * 3u);
}

// ------------------------------------------- sequential execution

TEST(SequentialStopping, RetiresQuietConfigsEarlyAndCapsLoudOnes) {
  NoiseLadderBackend backend;
  CampaignRunnerOptions opts;
  opts.workers = 2;
  CampaignRunner runner(backend, ladder_campaign(ladder_policy()), opts);
  const CampaignResult result = runner.run();

  ASSERT_EQ(result.config_count(), 3u);
  ASSERT_EQ(result.stopping.size(), 3u);
  EXPECT_TRUE(result.sequential);
  EXPECT_EQ(result.replications, 0u);
  EXPECT_GT(result.rounds, 1u);

  // Quiet and mid configs converge well before the cap...
  for (std::size_t c : {0u, 1u}) {
    EXPECT_TRUE(result.stopping[c].converged) << "config " << c;
    EXPECT_EQ(result.stopping[c].stop_reason, "converged");
    EXPECT_LT(result.stopping[c].reps, 12u);
    EXPECT_GE(result.stopping[c].reps, 3u);
    EXPECT_LE(result.stopping[c].rel_ci_half_width, 0.02);
  }
  // ...the loud config cannot, and runs to max_reps.
  EXPECT_FALSE(result.stopping[2].converged);
  EXPECT_EQ(result.stopping[2].stop_reason, "max_reps");
  EXPECT_EQ(result.stopping[2].reps, 12u);
  EXPECT_GT(result.stopping[2].rel_ci_half_width, 0.02);

  // rep_count/cell_offsets agree with the stop accounting, and the
  // campaign spent fewer cells than fixed-at-cap would have.
  std::size_t total = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(result.rep_count(c), result.stopping[c].reps);
    total += result.stopping[c].reps;
  }
  EXPECT_EQ(result.cells.size(), total);
  EXPECT_LT(total, 3u * 12u);

  // Freed quanta from the retired configs accelerate the loud config:
  // strictly fewer rounds than one-rep-per-round would need.
  EXPECT_LT(result.rounds, 1u + (12u - 3u));

  // Rule 9 header documents the adaptive design.
  EXPECT_EQ(result.experiment.environment.at("campaign.replications"), "adaptive");
  EXPECT_EQ(result.experiment.environment.count("campaign.stopping"), 1u);
  const std::string rep_counts = result.experiment.environment.at("campaign.rep_counts");
  std::string want;
  for (std::size_t c = 0; c < 3; ++c) {
    if (c) want += ',';
    want += std::to_string(result.stopping[c].reps);
  }
  EXPECT_EQ(rep_counts, want);
}

/// Threads that ran at least one WitnessBackend cell: each thread's
/// first cell constructs its thread_local witness. Counting
/// constructions, not thread ids, stays exact when the OS reuses the id
/// of a joined thread.
std::atomic<int> g_cell_threads{0};

struct CellThreadWitness {
  CellThreadWitness() { g_cell_threads.fetch_add(1); }
};

class WitnessBackend : public NoiseLadderBackend {
 public:
  explicit WitnessBackend(std::thread::id caller) : caller_(caller) {}
  CellResult run(const Config& config, std::uint64_t seed) override {
    thread_local CellThreadWitness witness;
    (void)witness;
    if (std::this_thread::get_id() == caller_) caller_ran = true;
    return NoiseLadderBackend::run(config, seed);
  }
  std::atomic<bool> caller_ran{false};

 private:
  std::thread::id caller_;
};

TEST(SequentialStopping, EveryRoundAndRunReusesOneTeamWhoseWorkerZeroIsTheCaller) {
  // Three loud configs never converge, so each later round grants one
  // rep per config: 1 + (12 - 3) rounds of 3 cells at 3 workers.
  CampaignSpec spec;
  spec.name = "loud";
  spec.factors.push_back({"noise", {"loud"}});
  spec.factors.push_back({"copy", {"a", "b", "c"}});
  spec.seed = 2718;
  spec.stopping = ladder_policy();
  WitnessBackend backend(std::this_thread::get_id());
  CampaignRunnerOptions opts;
  opts.workers = 3;
  CampaignRunner runner(backend, Campaign(spec), opts);
  const int before = g_cell_threads.load();
  for (int run = 0; run < 2; ++run) {
    const CampaignResult result = runner.run();
    ASSERT_GE(result.rounds, 5u);
    EXPECT_EQ(result.cache_hits, 0u);
    runner.clear_cache();  // the second run executes every cell again
  }
  EXPECT_LE(g_cell_threads.load() - before, 3);
  EXPECT_TRUE(backend.caller_ran.load());
}

TEST(SequentialStopping, ByteDeterministicAcrossWorkerCounts) {
  std::string reference_samples;
  std::string reference_summary;
  std::vector<std::size_t> reference_reps;
  for (std::size_t workers : {1u, 4u, 8u}) {
    NoiseLadderBackend backend;
    CampaignRunnerOptions opts;
    opts.workers = workers;
    CampaignRunner runner(backend, ladder_campaign(ladder_policy()), opts);
    const CampaignResult result = runner.run();
    std::vector<std::size_t> reps;
    for (const auto& info : result.stopping) reps.push_back(info.reps);
    const std::string samples = csv_of(result.samples_dataset());
    const std::string summary = csv_of(result.summary_dataset());
    if (reference_samples.empty()) {
      reference_samples = samples;
      reference_summary = summary;
      reference_reps = reps;
    } else {
      EXPECT_EQ(samples, reference_samples) << "workers=" << workers;
      EXPECT_EQ(summary, reference_summary) << "workers=" << workers;
      EXPECT_EQ(reps, reference_reps) << "workers=" << workers;
    }
  }
}

TEST(SequentialStopping, TailQuantileStoppingIsByteDeterministicAcrossWorkers) {
  // The ci:WIDTH@p99 study design (latency_study --stopping ci:W@p99):
  // converge the 99th percentile's rank CI instead of the median's.
  // Tail ranks converge slower, so the target is looser; determinism
  // must hold regardless -- stop decisions are functions of pooled
  // sample values only, never of scheduling.
  StoppingPolicy p99 = StoppingPolicy::sequential_ci(0.25, 3, 12);
  p99.quantile = 0.99;
  std::string reference_samples;
  std::string reference_summary;
  std::vector<std::size_t> reference_reps;
  for (std::size_t workers : {1u, 4u}) {
    NoiseLadderBackend backend;
    CampaignRunnerOptions opts;
    opts.workers = workers;
    CampaignRunner runner(backend, ladder_campaign(p99), opts);
    const CampaignResult result = runner.run();
    std::vector<std::size_t> reps;
    for (const auto& info : result.stopping) reps.push_back(info.reps);
    const std::string samples = csv_of(result.samples_dataset());
    const std::string summary = csv_of(result.summary_dataset());
    if (reference_samples.empty()) {
      reference_samples = samples;
      reference_summary = summary;
      reference_reps = reps;
    } else {
      EXPECT_EQ(samples, reference_samples) << "workers=" << workers;
      EXPECT_EQ(summary, reference_summary) << "workers=" << workers;
      EXPECT_EQ(reps, reference_reps) << "workers=" << workers;
    }
  }
  // The tail target is a different stopping rule than the median's:
  // its fingerprint must differ so journals cannot cross-resume.
  EXPECT_NE(CampaignJournal::fingerprint(ladder_campaign(p99), "noise-ladder"),
            CampaignJournal::fingerprint(ladder_campaign(ladder_policy()), "noise-ladder"));
}

TEST(SequentialStopping, MergedSeriesPoolsVariableRepCounts) {
  NoiseLadderBackend backend;
  CampaignRunnerOptions opts;
  opts.workers = 2;
  CampaignRunner runner(backend, ladder_campaign(ladder_policy()), opts);
  const CampaignResult result = runner.run();
  for (std::size_t c = 0; c < result.config_count(); ++c) {
    const std::vector<double> merged = result.merged_series(c);
    EXPECT_EQ(merged.size(), result.rep_count(c) * 16u);
    // First replication leads the pool (rep order).
    EXPECT_EQ(merged.front(), result.series(c, 0).front());
  }
}

// ------------------------------------------------- kill / resume

TEST(SequentialStopping, ResumeMidRoundIsByteIdenticalAtEveryWorkerCount) {
  // Reference: the uninterrupted sequential campaign.
  std::string want_samples;
  std::string want_summary;
  {
    NoiseLadderBackend backend;
    CampaignRunnerOptions opts;
    opts.workers = 2;
    CampaignRunner runner(backend, ladder_campaign(ladder_policy()), opts);
    const CampaignResult full = runner.run();
    ASSERT_EQ(full.failed, 0u);
    want_samples = csv_of(full.samples_dataset());
    want_summary = csv_of(full.summary_dataset());
  }

  for (std::size_t workers : {1u, 4u, 8u}) {
    const std::string journal_path =
        temp_path("seq_resume_" + std::to_string(workers) + ".journal");

    // Phase 1: killed mid-round-0 (round 0 schedules 9 cells; the
    // budget stops after 5). No stop decision may be taken on the
    // incomplete round.
    {
      NoiseLadderBackend backend;
      CampaignRunnerOptions opts;
      opts.workers = workers;
      opts.journal_path = journal_path;
      opts.cell_budget = 5;
      CampaignRunner runner(backend, ladder_campaign(ladder_policy()), opts);
      const CampaignResult partial = runner.run();
      EXPECT_EQ(partial.executed, 5u);
      EXPECT_GT(partial.interrupted, 0u);
      for (const auto& info : partial.stopping) {
        EXPECT_FALSE(info.converged);
        EXPECT_EQ(info.stop_reason, "interrupted");
      }
    }

    // Phase 2: resume in a fresh runner. Journaled cells replay, the
    // round barrier sees the same pooled samples, and every stop
    // decision lands identically -- byte-identical exports.
    {
      NoiseLadderBackend backend;
      CampaignRunnerOptions opts;
      opts.workers = workers;
      opts.journal_path = journal_path;
      CampaignRunner runner(backend, ladder_campaign(ladder_policy()), opts);
      const CampaignResult resumed = runner.run();
      EXPECT_EQ(resumed.journal_hits, 5u) << "workers=" << workers;
      EXPECT_EQ(resumed.interrupted, 0u);
      EXPECT_EQ(csv_of(resumed.samples_dataset()), want_samples)
          << "workers=" << workers;
      EXPECT_EQ(csv_of(resumed.summary_dataset()), want_summary)
          << "workers=" << workers;
    }
    std::remove(journal_path.c_str());
  }
}

TEST(SequentialStopping, ResumeAfterCompletedRoundsReplaysStopDecisions) {
  // Kill after round 0 completed (9 cells) plus part of round 1: the
  // journal then carries stop records for the retired configs, which
  // the resume must verify, not re-decide differently.
  const std::string journal_path = temp_path("seq_resume_rounds.journal");
  std::string want_samples;
  {
    NoiseLadderBackend backend;
    CampaignRunnerOptions opts;
    opts.workers = 2;
    CampaignRunner runner(backend, ladder_campaign(ladder_policy()), opts);
    want_samples = csv_of(runner.run().samples_dataset());
  }
  {
    NoiseLadderBackend backend;
    CampaignRunnerOptions opts;
    opts.workers = 2;
    opts.journal_path = journal_path;
    opts.cell_budget = 10;  // round 0 (9 cells) + 1 cell of round 1
    CampaignRunner runner(backend, ladder_campaign(ladder_policy()), opts);
    const CampaignResult partial = runner.run();
    EXPECT_EQ(partial.executed, 10u);
  }
  {
    NoiseLadderBackend backend;
    CampaignRunnerOptions opts;
    opts.workers = 2;
    opts.journal_path = journal_path;
    CampaignRunner runner(backend, ladder_campaign(ladder_policy()), opts);
    const CampaignResult resumed = runner.run();
    EXPECT_EQ(resumed.journal_hits, 10u);
    EXPECT_EQ(csv_of(resumed.samples_dataset()), want_samples);
  }
  std::remove(journal_path.c_str());
}

TEST(SequentialStopping, TamperedStopRecordIsRejectedOnResume) {
  const std::string journal_path = temp_path("seq_tamper.journal");
  {
    NoiseLadderBackend backend;
    CampaignRunnerOptions opts;
    opts.workers = 1;
    opts.journal_path = journal_path;
    CampaignRunner runner(backend, ladder_campaign(ladder_policy()), opts);
    (void)runner.run();
  }
  // Bump the replication count inside the first stop record: the resume
  // recomputes the decision from the replayed samples and must refuse
  // the contradicting journal instead of silently preferring either.
  std::ifstream in(journal_path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const std::size_t pos = text.find("\n{\"stop\": ");
  ASSERT_NE(pos, std::string::npos);
  const std::string reps_key = "\"reps\": ";
  const std::size_t reps_start = text.find(reps_key, pos) + reps_key.size();
  const std::size_t reps_end = text.find(',', reps_start);
  const std::size_t reps =
      static_cast<std::size_t>(std::stoul(text.substr(reps_start, reps_end - reps_start)));
  text.replace(reps_start, reps_end - reps_start, std::to_string(reps + 1));
  std::ofstream(journal_path, std::ios::trunc) << text;

  NoiseLadderBackend backend;
  CampaignRunnerOptions opts;
  opts.workers = 1;
  opts.journal_path = journal_path;
  CampaignRunner runner(backend, ladder_campaign(ladder_policy()), opts);
  EXPECT_THROW((void)runner.run(), std::runtime_error);
  std::remove(journal_path.c_str());
}

TEST(SequentialStopping, JournalStopRecordsRoundTrip) {
  const std::string path = temp_path("stop_records.journal");
  {
    CampaignJournal journal(path, 0xfeed);
    journal.append_stop(2, 7, "converged");
    journal.append_stop(0, 12, "max_reps");
  }
  CampaignJournal reopened(path, 0xfeed);
  ASSERT_NE(reopened.find_stop(2), nullptr);
  EXPECT_EQ(reopened.find_stop(2)->reps, 7u);
  EXPECT_EQ(reopened.find_stop(2)->reason, "converged");
  ASSERT_NE(reopened.find_stop(0), nullptr);
  EXPECT_EQ(reopened.find_stop(0)->reps, 12u);
  EXPECT_EQ(reopened.find_stop(0)->reason, "max_reps");
  EXPECT_EQ(reopened.find_stop(1), nullptr);
  std::remove(path.c_str());
}

TEST(SequentialStopping, PolicyChangesJournalFingerprint) {
  // A sequential journal must not resume under a different stopping
  // policy -- the stop decisions it carries would be meaningless.
  const Campaign a = ladder_campaign(ladder_policy());
  StoppingPolicy other = ladder_policy();
  other.target_rel_ci_half_width = 0.01;
  const Campaign b = ladder_campaign(other);
  EXPECT_NE(CampaignJournal::fingerprint(a, "noise-ladder"),
            CampaignJournal::fingerprint(b, "noise-ladder"));
  // Fixed-mode fingerprints ignore the policy entirely, so pre-v2
  // journals of fixed campaigns keep resuming.
  EXPECT_EQ(CampaignJournal::fingerprint(sim_campaign(), "sim"),
            CampaignJournal::fingerprint(sim_campaign(StoppingPolicy::fixed(2)), "sim"));
}

// --------------------------------------------- ESS floor (ROADMAP 2)

/// Backend whose samples are a slow AR(1) walk around 100: the values
/// are tightly clustered (tiny relative rank CI) but heavily
/// autocorrelated, so the pooled effective sample size stays a small
/// fraction of the raw count. Exactly the series the ESS floor exists
/// for -- the CI criterion alone would stop at min_reps on what is
/// effectively a handful of independent observations.
class AutocorrelatedBackend : public Backend {
 public:
  std::string name() const override { return "ar1"; }
  CellResult run(const Config&, std::uint64_t seed) override {
    CellResult r;
    r.unit = "u";
    std::uint64_t state = seed;
    double x = 0.0;
    for (int i = 0; i < 16; ++i) {
      const double u =
          static_cast<double>(rng::splitmix64_next(state) >> 11) * 0x1.0p-53;
      x = 0.95 * x + 0.4 * (u - 0.5);
      r.samples.push_back(100.0 + x);
    }
    return r;
  }
};

Campaign ar1_campaign(StoppingPolicy stopping) {
  CampaignSpec spec;
  spec.name = "ar1_study";
  spec.factors.push_back({"unit", {"only"}});
  spec.seed = 9041;
  spec.stopping = stopping;
  return Campaign(spec);
}

TEST(SequentialStopping, SequentialCiArmsTheEssFloorByDefault) {
  // ROADMAP item 2: the factory used to ship ess_floor = 0.0, leaving
  // the implemented autocorrelation check permanently dead.
  EXPECT_EQ(StoppingPolicy::sequential_ci(0.05).ess_floor,
            StoppingPolicy::kDefaultEssFloor);
  EXPECT_GT(StoppingPolicy::kDefaultEssFloor, 0.0);
  // fixed() and the default-constructed policy stay floor-less, so
  // fixed-mode behavior and fingerprints are untouched.
  EXPECT_EQ(StoppingPolicy::fixed(3).ess_floor, 0.0);
  EXPECT_EQ(StoppingPolicy{}.ess_floor, 0.0);
}

TEST(SequentialStopping, EssFloorBlocksStoppingOnAutocorrelatedSeries) {
  // With the default floor the AR(1) config may NOT retire on its tiny
  // rank CI: its pooled ESS never reaches the floor within max_reps.
  StoppingPolicy armed = StoppingPolicy::sequential_ci(0.02, 3, 8);
  {
    AutocorrelatedBackend backend;
    CampaignRunnerOptions opts;
    opts.workers = 2;
    CampaignRunner runner(backend, ar1_campaign(armed), opts);
    const CampaignResult result = runner.run();
    ASSERT_EQ(result.stopping.size(), 1u);
    EXPECT_FALSE(result.stopping[0].converged);
    EXPECT_EQ(result.stopping[0].stop_reason, "max_reps");
    EXPECT_EQ(result.stopping[0].reps, 8u);
    // The CI criterion alone was satisfied -- the floor is what held.
    EXPECT_LE(result.stopping[0].rel_ci_half_width, 0.02);
    EXPECT_LT(result.stopping[0].ess, StoppingPolicy::kDefaultEssFloor);
  }
  // Explicit opt-out (ess_floor = 0 after the factory call) restores
  // the old CI-only behavior: immediate convergence at min_reps.
  StoppingPolicy disarmed = armed;
  disarmed.ess_floor = 0.0;
  {
    AutocorrelatedBackend backend;
    CampaignRunnerOptions opts;
    opts.workers = 2;
    CampaignRunner runner(backend, ar1_campaign(disarmed), opts);
    const CampaignResult result = runner.run();
    ASSERT_EQ(result.stopping.size(), 1u);
    EXPECT_TRUE(result.stopping[0].converged);
    EXPECT_EQ(result.stopping[0].stop_reason, "converged");
    EXPECT_EQ(result.stopping[0].reps, 3u);
  }
  // The floor is part of the policy identity: journals recorded under
  // one floor must not resume under another.
  EXPECT_NE(CampaignJournal::fingerprint(ar1_campaign(armed), "ar1"),
            CampaignJournal::fingerprint(ar1_campaign(disarmed), "ar1"));
}

TEST(SequentialStopping, EssFloorPassesIndependentSeriesUnchanged) {
  // The ladder backend's cells are iid uniforms: pooled ESS tracks the
  // raw count, so arming the floor must not delay any stop decision --
  // the quiet config still retires at min_reps with the same bytes.
  NoiseLadderBackend backend;
  CampaignRunnerOptions opts;
  opts.workers = 2;
  CampaignRunner runner(backend, ladder_campaign(ladder_policy()), opts);
  const CampaignResult result = runner.run();
  EXPECT_TRUE(result.stopping[0].converged);
  EXPECT_EQ(result.stopping[0].reps, 3u);
  EXPECT_GE(result.stopping[0].ess, StoppingPolicy::kDefaultEssFloor);
}

// --------------------------------------------- export and ingest

TEST(SequentialStopping, ExportRoundTripsStopMetadataThroughIngest) {
  NoiseLadderBackend backend;
  CampaignRunnerOptions opts;
  opts.workers = 2;
  CampaignRunner runner(backend, ladder_campaign(ladder_policy()), opts);
  const CampaignResult result = runner.run();

  const std::string path = temp_path("seq_export.csv");
  result.samples_dataset().save_csv(path);
  const Ingested ingested = load_measurements(path);
  EXPECT_TRUE(ingested.campaign);
  EXPECT_FALSE(ingested.stopping.empty());
  EXPECT_EQ(ingested.rounds, result.rounds);
  ASSERT_EQ(ingested.rep_counts.size(), result.config_count());
  for (std::size_t c = 0; c < result.config_count(); ++c) {
    EXPECT_EQ(ingested.rep_counts[c], result.rep_count(c));
  }
  EXPECT_EQ(ingested.cells.size(),
            std::accumulate(ingested.rep_counts.begin(), ingested.rep_counts.end(),
                            std::size_t{0}));
  std::remove(path.c_str());
}

TEST(SequentialStopping, ConfigCountIsExplicitNotDerived) {
  // Satellite regression: config_count() used to be cells.size() /
  // replications, which mis-grouped as soon as per-config rep counts
  // varied (and divided by zero under sequential mode's replications=0).
  NoiseLadderBackend backend;
  CampaignRunnerOptions opts;
  opts.workers = 1;
  CampaignRunner runner(backend, ladder_campaign(ladder_policy()), opts);
  const CampaignResult result = runner.run();
  EXPECT_EQ(result.config_count(), 3u);
  EXPECT_EQ(result.replications, 0u);
  EXPECT_NE(result.rep_count(0), result.rep_count(2))
      << "rep counts should differ across configs for this test to bite";
}

}  // namespace
}  // namespace sci::exec
