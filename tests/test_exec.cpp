// sci::exec: campaign grid compilation, seed derivation, the
// CampaignRunner determinism contract (results and CSV exports are
// byte-identical for any worker count), the result cache, backends, and
// campaign CSV ingestion.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "core/registry.hpp"
#include "exec/host_backend.hpp"
#include "exec/ingest.hpp"
#include "exec/runner.hpp"
#include "exec/sim_backend.hpp"
#include "exec/threaded_backend.hpp"
#include "obs/trace.hpp"

namespace sci::exec {
namespace {

// ---------------------------------------------------------------- grid

TEST(Campaign, DecodesRowMajorGrid) {
  CampaignSpec spec;
  spec.name = "grid";
  spec.factors.push_back({"a", {"x", "y"}});
  spec.factors.push_back({"b", {"1", "2", "3"}});
  Campaign campaign(spec);

  EXPECT_EQ(campaign.config_count(), 6u);
  EXPECT_EQ(campaign.cell_count(), 6u);

  // First factor slowest-varying.
  const Config c0 = campaign.config(0);
  EXPECT_EQ(c0.level("a"), "x");
  EXPECT_EQ(c0.level("b"), "1");
  const Config c2 = campaign.config(2);
  EXPECT_EQ(c2.level("a"), "x");
  EXPECT_EQ(c2.level("b"), "3");
  const Config c5 = campaign.config(5);
  EXPECT_EQ(c5.level("a"), "y");
  EXPECT_EQ(c5.level("b"), "3");
  EXPECT_EQ(c5.level_indices, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(c5.to_string(), "a=y b=3");
  EXPECT_EQ(c5.level_int("b"), 3);

  EXPECT_EQ(c0.find_level("missing"), nullptr);
  EXPECT_THROW((void)c0.level("missing"), std::out_of_range);
  EXPECT_THROW((void)c0.level_int("a"), std::invalid_argument);
  EXPECT_THROW((void)campaign.config(6), std::out_of_range);
}

TEST(Campaign, ValidatesSpec) {
  CampaignSpec spec;
  spec.name = "";
  EXPECT_THROW(Campaign{spec}, std::invalid_argument);
  spec.name = "ok";
  spec.replications = 0;
  EXPECT_THROW(Campaign{spec}, std::invalid_argument);
  spec.replications = 1;
  spec.factors.push_back({"f", {}});
  EXPECT_THROW(Campaign{spec}, std::invalid_argument);
  spec.factors = {{"f", {"1"}}, {"f", {"2"}}};
  EXPECT_THROW(Campaign{spec}, std::invalid_argument);
  spec.factors = {{"f", {"1"}}};
  spec.base.add_factor("sneaky", {"1"});  // factors only via the grid
  EXPECT_THROW(Campaign{spec}, std::invalid_argument);
}

TEST(Campaign, CompilesExperimentFromGrid) {
  CampaignSpec spec;
  spec.name = "doc";
  spec.description = "documentation test";
  spec.base.set("hw", "simulated");
  spec.factors.push_back({"system", {"dora", "pilatus"}});
  spec.replications = 3;
  spec.seed = 77;
  Campaign campaign(spec);

  SimBackend backend(SimBackendOptions{});
  const core::Experiment e = campaign.experiment(&backend);
  ASSERT_EQ(e.factors.size(), 1u);
  EXPECT_EQ(e.factors[0].name, "system");
  EXPECT_EQ(e.factors[0].levels, (std::vector<std::string>{"dora", "pilatus"}));
  EXPECT_EQ(e.environment.at("hw"), "simulated");
  EXPECT_EQ(e.environment.at("campaign.replications"), "3");
  EXPECT_EQ(e.environment.at("campaign.seed"), "77");
  EXPECT_NE(e.environment.at("campaign.seed_derivation").find("splitmix64"),
            std::string::npos);
  EXPECT_NE(e.environment.at("campaign.backend").find("simulated"), std::string::npos);
  EXPECT_TRUE(e.audit().empty()) << e.audit().front();
}

// ---------------------------------------------------------------- seeds

TEST(SeedDerivation, DeterministicAndWellSpread) {
  EXPECT_EQ(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
  std::set<std::uint64_t> seen;
  for (std::uint64_t campaign = 0; campaign < 4; ++campaign) {
    for (std::uint64_t config = 0; config < 8; ++config) {
      for (std::uint64_t rep = 0; rep < 4; ++rep) {
        seen.insert(derive_seed(campaign, config, rep));
      }
    }
  }
  EXPECT_EQ(seen.size(), 4u * 8u * 4u);  // no collisions on a small grid
}

TEST(SeedDerivation, OverrideReplacesScheme) {
  CampaignSpec spec;
  spec.name = "seeded";
  spec.factors.push_back({"processes", {"1", "2"}});
  spec.seed_override = [](const Config& c, std::size_t rep) {
    return 900ULL + static_cast<std::uint64_t>(c.level_int("processes")) + rep;
  };
  Campaign campaign(spec);
  EXPECT_EQ(campaign.seed_for(campaign.config(0), 0), 901u);
  EXPECT_EQ(campaign.seed_for(campaign.config(1), 0), 902u);
}

// ------------------------------------------------------------- backends

/// Deterministic synthetic backend: samples derived from (config, seed)
/// only, with an execution counter for cache tests.
class CountingBackend : public Backend {
 public:
  explicit CountingBackend(std::size_t samples = 16) : samples_(samples) {}
  std::string name() const override { return "counting"; }
  CellResult run(const Config& config, std::uint64_t seed) override {
    calls.fetch_add(1, std::memory_order_relaxed);
    CellResult r;
    r.unit = "u";
    std::uint64_t state = seed;
    for (std::size_t i = 0; i < samples_; ++i) {
      r.samples.push_back(static_cast<double>(rng::splitmix64_next(state) >> 40) +
                          static_cast<double>(config.index));
    }
    return r;
  }
  std::atomic<std::size_t> calls{0};

 private:
  std::size_t samples_;
};

class ThrowingBackend : public Backend {
 public:
  std::string name() const override { return "throwing"; }
  CellResult run(const Config& config, std::uint64_t) override {
    if (config.level("k") == "bad") throw std::runtime_error("boom");
    CellResult r;
    r.samples = {1.0, 2.0, 3.0};
    return r;
  }
};

Campaign small_sim_campaign() {
  CampaignSpec spec;
  spec.name = "latency_grid";
  spec.base.set("placement", "two ranks, distinct nodes");
  spec.base.synchronization_method = "none (pingpong)";
  spec.factors.push_back({"system", {"dora", "pilatus", "daint", "bgq"}});
  spec.factors.push_back({"message_bytes", {"64", "512", "4096", "16384"}});
  spec.replications = 2;
  spec.seed = 42;
  return Campaign(spec);
}

SimBackend small_sim_backend() {
  SimBackendOptions opts;
  opts.kernel = SimKernel::kPingPong;
  opts.samples = 48;
  opts.warmup = 4;
  opts.scale = 1e6;
  opts.unit = "us";
  return SimBackend(opts);
}

CampaignRunnerOptions with_workers(std::size_t workers) {
  CampaignRunnerOptions opts;
  opts.workers = workers;
  return opts;
}

// -------------------------------------------------- determinism contract

std::string csv_of(const core::Dataset& ds) {
  std::ostringstream os;
  ds.write_csv(os);
  return os.str();
}

TEST(CampaignRunner, ByteDeterministicAcrossWorkerCounts) {
  std::string reference_samples;
  std::string reference_summary;
  for (const std::size_t workers : {1u, 4u, 8u}) {
    SimBackend backend = small_sim_backend();
    CampaignRunnerOptions opts;
    opts.workers = workers;
    CampaignRunner runner(backend, small_sim_campaign(), opts);
    const CampaignResult result = runner.run();
    EXPECT_EQ(result.failed, 0u);
    EXPECT_EQ(result.cells.size(), 32u);
    EXPECT_EQ(result.executed + result.cache_hits, 32u);

    const std::string samples_csv = csv_of(result.samples_dataset());
    const std::string summary_csv = csv_of(result.summary_dataset());
    if (reference_samples.empty()) {
      reference_samples = samples_csv;
      reference_summary = summary_csv;
      EXPECT_NE(samples_csv.find("f_system"), std::string::npos);
    } else {
      // The contract: bodies AND headers identical, byte for byte.
      EXPECT_EQ(samples_csv, reference_samples) << "workers=" << workers;
      EXPECT_EQ(summary_csv, reference_summary) << "workers=" << workers;
    }
  }
}

TEST(CampaignRunner, ReplicationsGetDistinctSeedsAndCellsLineUp) {
  SimBackend backend = small_sim_backend();
  CampaignRunner runner(backend, small_sim_campaign(), with_workers(2));
  const CampaignResult result = runner.run();
  ASSERT_EQ(result.replications, 2u);
  ASSERT_EQ(result.config_count(), 16u);
  for (std::size_t c = 0; c < result.config_count(); ++c) {
    const auto& r0 = result.cell(c, 0);
    const auto& r1 = result.cell(c, 1);
    EXPECT_EQ(r0.config.index, c);
    EXPECT_EQ(r1.config.index, c);
    EXPECT_EQ(r0.rep, 0u);
    EXPECT_EQ(r1.rep, 1u);
    EXPECT_NE(r0.seed, r1.seed);
    EXPECT_NE(r0.result.samples, r1.result.samples);
    EXPECT_EQ(result.merged_series(c).size(),
              r0.result.samples.size() + r1.result.samples.size());
  }
}

// ---------------------------------------------------------------- cache

TEST(CampaignRunner, SecondRunIsServedEntirelyFromCache) {
  CountingBackend backend;
  CampaignSpec spec;
  spec.name = "cached";
  spec.factors.push_back({"k", {"a", "b", "c"}});
  spec.replications = 2;
  ResultCache cache;
  CampaignRunner runner(backend, Campaign(spec), with_workers(3), &cache);

  const CampaignResult first = runner.run();
  EXPECT_EQ(backend.calls.load(), 6u);
  EXPECT_EQ(first.executed, 6u);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(cache.size(), 6u);

  const CampaignResult second = runner.run();
  EXPECT_EQ(backend.calls.load(), 6u) << "second run must execute zero backend calls";
  EXPECT_EQ(second.executed, 0u);
  EXPECT_EQ(second.cache_hits, 6u);
  for (std::size_t i = 0; i < first.cells.size(); ++i) {
    EXPECT_TRUE(second.cells[i].result.from_cache);
    EXPECT_EQ(second.cells[i].result.samples, first.cells[i].result.samples);
  }
  EXPECT_EQ(csv_of(second.samples_dataset()), csv_of(first.samples_dataset()));

  // A fresh runner owns an empty cache and executes every cell again.
  (void)CampaignRunner(backend, Campaign(spec), with_workers(3)).run();
  EXPECT_EQ(backend.calls.load(), 12u);
}

TEST(CampaignRunner, LentCacheNeverServesAnotherBackendIdentity) {
  // Two SimBackends named "sim.pingpong" whose cells differ: one takes
  // 48 samples per cell, the other 24. Runners lending one cache must
  // key cells by the whole identity, not the name, or the second runner
  // would be served the first one's samples.
  SimBackend at48 = small_sim_backend();
  SimBackendOptions opts = at48.options();
  opts.samples = 24;
  SimBackend at24(opts);
  ASSERT_EQ(at48.name(), at24.name());
  ASSERT_NE(at48.identity(), at24.identity());

  ResultCache cache;
  const CampaignResult first =
      CampaignRunner(at48, small_sim_campaign(), with_workers(2), &cache).run();
  const CampaignResult shared =
      CampaignRunner(at24, small_sim_campaign(), with_workers(2), &cache).run();
  EXPECT_EQ(shared.cache_hits, 0u);
  EXPECT_EQ(shared.executed, shared.cells.size());
  const CampaignResult fresh = CampaignRunner(at24, small_sim_campaign(), with_workers(2)).run();
  EXPECT_EQ(csv_of(shared.samples_dataset()), csv_of(fresh.samples_dataset()));
  EXPECT_EQ(csv_of(shared.summary_dataset()), csv_of(fresh.summary_dataset()));

  // An equal identity still shares: a third runner is served every cell.
  SimBackend again(at48.options());
  const CampaignResult third =
      CampaignRunner(again, small_sim_campaign(), with_workers(2), &cache).run();
  EXPECT_EQ(third.cache_hits, third.cells.size());
  EXPECT_EQ(csv_of(third.samples_dataset()), csv_of(first.samples_dataset()));
}

TEST(ResultCache, StaysWithinItsBudgetAndKeepsTheNewestCells) {
  // 1 MiB cells, 96 of them: half again the budget. Every insert leaves
  // the cache within kResultCacheBytes; the newest cells stay, the
  // oldest go.
  constexpr std::size_t kSamples = std::size_t{1} << 17;
  constexpr std::size_t kCells = 96;
  const auto identity = std::make_shared<const std::string>("counting");
  Config config;
  config.levels = {{"k", "v"}};
  ResultCache cache;
  for (std::size_t i = 0; i < kCells; ++i) {
    CellResult r;
    r.samples.assign(kSamples, static_cast<double>(i));
    cache.insert(make_cell_key(identity, "counting", config, i), r);
    ASSERT_LE(cache.bytes(), kResultCacheBytes) << "after cell " << i;
  }
  EXPECT_GT(cache.evicted(), 0u);
  EXPECT_EQ(cache.size() + cache.evicted(), kCells);
  EXPECT_GT(cache.bytes(), kResultCacheBytes / 2);
  const std::optional<CellResult> newest =
      cache.find(make_cell_key(identity, "counting", config, kCells - 1));
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->samples.size(), kSamples);
  EXPECT_EQ(newest->samples.front(), static_cast<double>(kCells - 1));
  EXPECT_FALSE(cache.find(make_cell_key(identity, "counting", config, 0)).has_value());
}

TEST(ResultCache, CampaignRerunAfterEvictionExportsTheSameBytes) {
  // 72 cells of 1 MiB each pass the cache's budget, so the rerun finds
  // some cells evicted, executes them again and must export the same
  // bytes. The samples are compared bit for bit (the samples CSV is a
  // function of them; 9.4 million rows would only slow the test).
  CountingBackend backend(std::size_t{1} << 17);
  CampaignSpec spec;
  spec.name = "evicted";
  spec.factors.push_back({"k", {"a", "b", "c", "d", "e", "f", "g", "h", "i"}});
  spec.replications = 8;
  ResultCache cache;
  CampaignRunner runner(backend, Campaign(spec), with_workers(2), &cache);

  const CampaignResult first = runner.run();
  ASSERT_EQ(first.executed, 72u);
  EXPECT_LT(cache.size(), 72u);
  const CampaignResult second = runner.run();
  EXPECT_LT(second.cache_hits, second.cells.size());
  EXPECT_EQ(second.executed + second.cache_hits, second.cells.size());
  EXPECT_EQ(csv_of(second.summary_dataset()), csv_of(first.summary_dataset()));
  for (std::size_t i = 0; i < first.cells.size(); ++i) {
    ASSERT_EQ(second.cells[i].result.samples, first.cells[i].result.samples) << "cell " << i;
  }
}

// --------------------------------------------------------------- errors

TEST(CampaignRunner, BackendFailuresAreCapturedPerCell) {
  ThrowingBackend backend;
  CampaignSpec spec;
  spec.name = "partial";
  spec.factors.push_back({"k", {"good", "bad"}});
  CampaignRunner runner(backend, Campaign(spec), with_workers(2));
  const CampaignResult result = runner.run();
  EXPECT_EQ(result.failed, 1u);
  EXPECT_EQ(result.executed, 1u);
  EXPECT_EQ(result.cell(1).result.error, "boom");
  EXPECT_NO_THROW((void)result.series(0));
  EXPECT_THROW((void)result.series(1), std::runtime_error);
  // Failed cells are not cached: a re-run retries them.
  const CampaignResult again = runner.run();
  EXPECT_EQ(again.cache_hits, 1u);
  EXPECT_EQ(again.failed, 1u);
}

// ------------------------------------------------------------- backends

TEST(HostBackendTest, RunsAdaptiveSamplingPerBenchmark) {
  std::vector<HostBenchmark> benchmarks;
  core::AdaptiveOptions sampling;
  sampling.min_samples = 10;
  sampling.max_samples = 20;
  benchmarks.push_back({"fixed7", [] { return 7.0; }, "ns", sampling});
  HostBackend backend(std::move(benchmarks));

  CampaignSpec spec;
  spec.name = "host";
  spec.factors.push_back({HostBackend::kBenchmarkFactor, backend.benchmark_names()});
  CampaignRunner runner(backend, Campaign(spec), with_workers(1));
  const CampaignResult result = runner.run();
  ASSERT_EQ(result.cells.size(), 1u);
  const auto& r = result.cell(0).result;
  EXPECT_GE(r.samples.size(), 10u);
  EXPECT_EQ(r.samples.front(), 7.0);
  EXPECT_FALSE(r.stop_reason.empty());

  Config unknown;
  unknown.levels = {{HostBackend::kBenchmarkFactor, "nope"}};
  EXPECT_THROW((void)backend.run(unknown, 0), std::out_of_range);
  EXPECT_THROW(HostBackend(std::vector<HostBenchmark>{}), std::invalid_argument);
}

TEST(SimBackendTest, KernelsArePureFunctionsOfConfigAndSeed) {
  for (const SimKernel kernel :
       {SimKernel::kPingPong, SimKernel::kReduce, SimKernel::kPiScaling}) {
    SimBackendOptions opts;
    opts.kernel = kernel;
    opts.samples = 16;
    opts.iterations = 8;
    opts.repetitions = 4;
    opts.machine = "dora";  // has noise models: samples depend on the seed
    opts.ranks = 4;
    SimBackend backend(opts);
    Config config;
    const auto a = backend.run(config, 123);
    const auto b = backend.run(config, 123);
    const auto c = backend.run(config, 124);
    EXPECT_EQ(a.samples, b.samples) << to_string(kernel);
    EXPECT_FALSE(a.samples.empty()) << to_string(kernel);
    if (kernel != SimKernel::kPiScaling) {
      EXPECT_NE(a.samples, c.samples) << to_string(kernel);
    }
  }
}

TEST(SimBackendTest, RanksLevelOutsideIntIsRefusedNotWrapped) {
  // A "processes" or "ranks" level is narrowed to int; 2^32 + 4 used to
  // run as 4 ranks.
  SimBackendOptions opts;
  opts.kernel = SimKernel::kReduce;
  opts.samples = 4;
  opts.iterations = 2;
  opts.repetitions = 2;
  SimBackend backend(opts);
  for (const char* factor : {"processes", "ranks"}) {
    for (const char* level : {"4294967300", "2147483648", "-1"}) {
      Config config;
      config.levels = {{factor, level}};
      EXPECT_THROW((void)backend.run(config, 1), std::invalid_argument)
          << factor << "=" << level;
    }
    Config four;
    four.levels = {{factor, "4"}};
    EXPECT_FALSE(backend.run(four, 1).samples.empty()) << factor;
  }
}

TEST(ThreadedBackendTest, MeasuresRealTeamAndHonorsThreadsFactor) {
  ThreadedBackendOptions opts;
  std::atomic<std::size_t> touched{0};
  opts.kernel = [&](std::size_t) { touched.fetch_add(1, std::memory_order_relaxed); };
  opts.measure.threads = 2;
  opts.measure.iterations = 4;
  opts.measure.warmup = 1;
  opts.measure.window_s = 50e-6;
  ThreadedBackend backend(opts);

  Config config;
  config.levels = {{"threads", "2"}};
  const auto r = backend.run(config, 0);
  EXPECT_EQ(r.samples.size(), 4u);        // max across threads per iteration
  EXPECT_EQ(touched.load(), 2u * (4 + 1));  // every thread ran warmup + iters
  for (double v : r.samples) EXPECT_GT(v, 0.0);
}

// ------------------------------------------------------------ ingestion

TEST(Ingest, RoundTripsCampaignExport) {
  SimBackend backend = small_sim_backend();
  CampaignSpec spec;
  spec.name = "ingest";
  spec.factors.push_back({"system", {"dora", "pilatus"}});
  spec.replications = 2;
  CampaignRunner runner(backend, Campaign(spec), with_workers(2));
  const CampaignResult result = runner.run();

  const std::string path = ::testing::TempDir() + "/exec_ingest.csv";
  result.samples_dataset().save_csv(path);
  const Ingested loaded = load_measurements(path);
  std::remove(path.c_str());

  EXPECT_TRUE(loaded.campaign);
  ASSERT_EQ(loaded.cells.size(), 4u);
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t r = 0; r < 2; ++r) {
      const auto& cell = loaded.cells[c * 2 + r];
      EXPECT_EQ(cell.config, c);
      EXPECT_EQ(cell.rep, r);
      EXPECT_EQ(cell.values, result.series(c, r));
      EXPECT_NE(cell.label.find("f_system"), std::string::npos);
    }
  }
}

TEST(Ingest, PlainCsvIsNotACampaign) {
  const std::string path = ::testing::TempDir() + "/exec_plain.csv";
  {
    std::ofstream os(path);
    os << "a,b\n1,2\n3,4\n";
  }
  const Ingested loaded = load_measurements(path);
  std::remove(path.c_str());
  EXPECT_FALSE(loaded.campaign);
  EXPECT_TRUE(loaded.cells.empty());
  EXPECT_EQ(loaded.dataset.rows(), 2u);
}

TEST(Ingest, HeaderCountsAreWholeNonNegativeTokens) {
  // Hand-edited junk, a sign and overflow all degrade to 0 (an empty
  // rep_counts list); a count never wraps to 2^64 - 1.
  const std::string path = ::testing::TempDir() + "/exec_header_counts.csv";
  const auto load = [&](const std::string& failed, const std::string& rep_counts) {
    {
      std::ofstream os(path);
      os << "# experiment: edited\n"
         << "# env.campaign.failed: " << failed << "\n"
         << "# env.campaign.interrupted: " << failed << "\n"
         << "# env.campaign.rounds: " << failed << "\n"
         << "# env.campaign.rep_counts: " << rep_counts << "\n"
         << "config,rep,sample,value\n0,0,0,1.5\n";
    }
    Ingested loaded = load_measurements(path);
    std::remove(path.c_str());
    return loaded;
  };
  const Ingested good = load("3", "6,4");
  EXPECT_EQ(good.failed, 3u);
  EXPECT_EQ(good.interrupted, 3u);
  EXPECT_EQ(good.rounds, 3u);
  EXPECT_EQ(good.rep_counts, (std::vector<std::size_t>{6, 4}));
  for (const std::string bad : {"-1", "+3", "3x", "0x3", "2.5", "18446744073709551616"}) {
    const Ingested loaded = load(bad, "6," + bad);
    EXPECT_EQ(loaded.failed, 0u) << bad;
    EXPECT_EQ(loaded.interrupted, 0u) << bad;
    EXPECT_EQ(loaded.rounds, 0u) << bad;
    EXPECT_TRUE(loaded.rep_counts.empty()) << bad;
  }
}

// ---------------------------------------------------------------- traces

TEST(CampaignRunner, WorkersEmitOnTheirOwnTraceTracks) {
  obs::TraceSink sink;
  obs::ScopedAttach attach(sink);
  CountingBackend backend;
  CampaignSpec spec;
  spec.name = "traced";
  spec.factors.push_back({"k", {"a", "b", "c", "d"}});
  CampaignRunner runner(backend, Campaign(spec), with_workers(2));
  (void)runner.run();

  // Every worker that ran cells labeled its own harness track inside
  // its block; the spans of its dispatched chunks appear in the merged
  // trace.
  const auto& names = sink.track_names();
  bool worker_track = false;
  for (const auto& [tid, name] : names) {
    if (tid >= kWorkerTrackBase && name.rfind("campaign worker", 0) == 0) {
      worker_track = true;
    }
  }
  EXPECT_TRUE(worker_track);
  std::ostringstream os;
  sink.write_json(os, obs::TraceSink::WriteOptions{false});
  const std::string json = os.str();
  EXPECT_NE(json.find("\"campaign.chunk\""), std::string::npos);
}

}  // namespace
}  // namespace sci::exec
