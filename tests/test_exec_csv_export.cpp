// The runner's CSV export (CampaignRunnerOptions::samples_csv /
// summary_csv, exec/csv_export.hpp) against the reference writers,
// samples_dataset().write_csv() and summary_dataset().write_csv(): the
// files must be equal byte for byte on a fresh run, a cached
// resubmission (text made by the first run, or by none), a journal
// resume after a cell-budget kill, failed, retried and interrupted
// cells, a sequential-stopping campaign, samples holding NaN, ±0 and
// ±inf, and at 1 and 4 workers. Also the cache's accounting of the
// text it keeps.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/csv_export.hpp"
#include "exec/runner.hpp"
#include "obs/trace.hpp"
#include "rng/xoshiro.hpp"

namespace sci::exec {
namespace {

std::string csv_of(const core::Dataset& ds) {
  std::ostringstream os;
  ds.write_csv(os);
  return os.str();
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

/// Cells whose samples stress the formatter, by the "kind" level:
///   plain    100 plus a little seeded noise (converges under
///            sequential stopping);
///   bits     seeded random bit patterns: every magnitude, subnormals,
///            NaN payloads and infinities;
///   special  NaN of both signs, ±0, ±inf, the smallest subnormal and
///            a few integral and decimal values among seeded ones;
///   flaky    throws under odd seeds, so with retries some cells
///            succeed on a later attempt and some fail on every one;
///   bad      always throws.
/// Sample counts vary with the seed from 1 to 40, so summaries with and
/// without a CI both occur.
class EdgeBackend : public Backend {
 public:
  std::string name() const override { return "edge"; }
  CellResult run(const Config& config, std::uint64_t seed) override {
    const std::string& kind = config.level("kind");
    if (kind == "bad") throw std::runtime_error("bad cell");
    if (kind == "flaky" && (seed & 1) != 0) throw std::runtime_error("flaky cell");
    std::uint64_t state = seed;
    const std::size_t n = 1 + static_cast<std::size_t>(rng::splitmix64_next(state) % 40);
    CellResult r;
    r.unit = "u";
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t bits = rng::splitmix64_next(state);
      const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
      double x = 100.0 + 0.01 * (u - 0.5);
      if (kind == "bits") x = std::bit_cast<double>(bits);
      if (kind == "special") {
        constexpr double inf = std::numeric_limits<double>::infinity();
        constexpr double nan = std::numeric_limits<double>::quiet_NaN();
        const double table[] = {nan, -nan, 0.0,    -0.0, inf,  -inf, 4.9e-324,
                                1e15, 1e16, 123.0, 0.1,  -2.5, u,    -u * 1e-300};
        x = table[bits % std::size(table)];
      }
      r.samples.push_back(x);
    }
    return r;
  }
};

CampaignSpec edge_spec(std::vector<std::string> kinds, std::size_t replications = 3) {
  CampaignSpec spec;
  spec.name = "csv_export_grid";
  spec.base.synchronization_method = "none";
  spec.factors.push_back({"kind", std::move(kinds)});
  spec.factors.push_back({"size", {"8", "4096"}});
  spec.replications = replications;
  spec.seed = 31;
  return spec;
}

/// The two files a run wrote.
struct Files {
  std::string samples;
  std::string summary;
};

/// Runs `spec` with both CSV paths set (files under `tag`) and expects
/// them to equal the reference writers' bytes on the returned result.
Files run_and_compare(Backend& backend, const CampaignSpec& spec, CampaignRunnerOptions opts,
                      const std::string& tag, ResultCache* cache = nullptr,
                      CampaignResult* out = nullptr) {
  opts.samples_csv = temp_path(tag + ".samples.csv");
  opts.summary_csv = temp_path(tag + ".summary.csv");
  CampaignRunner runner(backend, Campaign(spec), opts, cache);
  CampaignResult result = runner.run();
  Files files{slurp(opts.samples_csv), slurp(opts.summary_csv)};
  EXPECT_FALSE(files.samples.empty()) << tag;
  EXPECT_EQ(files.samples, csv_of(result.samples_dataset())) << tag;
  EXPECT_EQ(files.summary, csv_of(result.summary_dataset())) << tag;
  for (const CampaignCell& cell : result.cells) {
    // Every successful cell carries its text; failed ones have none.
    EXPECT_EQ(cell.csv != nullptr, cell.result.error.empty())
        << tag << ": config " << cell.config.index << " rep " << cell.rep;
  }
  std::remove(opts.samples_csv.c_str());
  std::remove(opts.summary_csv.c_str());
  if (out != nullptr) *out = std::move(result);
  return files;
}

CampaignRunnerOptions workers(std::size_t n, std::size_t max_attempts = 1) {
  CampaignRunnerOptions opts;
  opts.workers = n;
  opts.max_attempts = max_attempts;
  return opts;
}

TEST(CampaignCsvExport, FreshRunMatchesAtOneAndFourWorkers) {
  EdgeBackend backend;
  const CampaignSpec spec = edge_spec({"plain", "bits", "special"});
  const Files one = run_and_compare(backend, spec, workers(1), "fresh_w1");
  const Files four = run_and_compare(backend, spec, workers(4), "fresh_w4");
  EXPECT_EQ(four.samples, one.samples);
  EXPECT_EQ(four.summary, one.summary);
}

TEST(CampaignCsvExport, SpecialValuesKeepTheirPrintfBytes) {
  EdgeBackend backend;
  const Files files = run_and_compare(backend, edge_spec({"special"}), workers(2), "special");
  for (const char* text : {",nan\n", ",-nan\n", ",0\n", ",-0\n", ",inf\n", ",-inf\n",
                           ",4.9406564584124654e-324\n", ",10000000000000000\n",
                           ",0.10000000000000001\n"}) {
    EXPECT_NE(files.samples.find(text), std::string::npos) << text;
  }
}

TEST(CampaignCsvExport, CachedResubmissionOnASharedCacheMatches) {
  EdgeBackend backend;
  const CampaignSpec spec = edge_spec({"plain", "bits", "special", "bad"});
  ResultCache cache;
  const Files fresh = run_and_compare(backend, spec, workers(3), "cached_a", &cache);
  CampaignResult again;
  const Files resubmitted = run_and_compare(backend, spec, workers(2), "cached_b", &cache, &again);
  EXPECT_EQ(again.executed, 0u);
  EXPECT_EQ(again.cache_hits + again.failed, again.cells.size());
  EXPECT_EQ(resubmitted.samples, fresh.samples);
  EXPECT_EQ(resubmitted.summary, fresh.summary);
}

TEST(CampaignCsvExport, CacheFilledWithoutCsvPathsGetsItsTextOnAdmission) {
  EdgeBackend backend;
  const CampaignSpec spec = edge_spec({"plain", "bits"});
  ResultCache cache;
  const CampaignResult plain = CampaignRunner(backend, Campaign(spec), workers(2), &cache).run();
  for (const CampaignCell& cell : plain.cells) EXPECT_EQ(cell.csv, nullptr);
  const std::size_t bare = cache.bytes();

  CampaignResult again;
  const Files files = run_and_compare(backend, spec, workers(2), "admitted", &cache, &again);
  EXPECT_EQ(again.cache_hits, again.cells.size());
  EXPECT_GT(cache.bytes(), bare);
  EXPECT_EQ(files.samples, csv_of(plain.samples_dataset()));
  EXPECT_EQ(files.summary, csv_of(plain.summary_dataset()));

  // The cache now holds the text it made, and serves it.
  const auto identity = std::make_shared<const std::string>(backend.identity());
  const CampaignCell& first = again.cells.front();
  std::shared_ptr<const CellCsv> csv;
  ASSERT_TRUE(
      cache.find(make_cell_key(identity, backend.name(), first.config, first.seed), &csv));
  EXPECT_EQ(csv, first.csv);
}

TEST(CampaignCsvExport, FailedRetriedAndInterruptedCellsMatch) {
  EdgeBackend backend;
  const CampaignSpec spec = edge_spec({"plain", "flaky", "bad"}, 4);
  CampaignResult retried;
  (void)run_and_compare(backend, spec, workers(3, 3), "retried", nullptr, &retried);
  EXPECT_GT(retried.retries, 0u);
  EXPECT_GT(retried.failed, 0u);

  CampaignRunnerOptions budget = workers(2, 3);
  budget.cell_budget = 5;
  CampaignResult partial;
  (void)run_and_compare(backend, spec, budget, "interrupted", nullptr, &partial);
  EXPECT_GT(partial.interrupted, 0u);
}

TEST(CampaignCsvExport, JournalResumeAfterABudgetKillMatches) {
  EdgeBackend backend;
  const CampaignSpec spec = edge_spec({"plain", "bits", "flaky"});
  const Files whole = run_and_compare(backend, spec, workers(2, 2), "whole");

  const std::string journal = temp_path("csv_export.journal");
  CampaignRunnerOptions killed = workers(1, 2);
  killed.journal_path = journal;
  killed.cell_budget = 4;
  CampaignResult partial;
  (void)run_and_compare(backend, spec, killed, "killed", nullptr, &partial);
  ASSERT_GT(partial.interrupted, 0u);

  CampaignRunnerOptions resume = workers(4, 2);
  resume.journal_path = journal;
  CampaignResult resumed;
  const Files files = run_and_compare(backend, spec, resume, "resumed", nullptr, &resumed);
  EXPECT_GT(resumed.journal_hits, 0u);
  EXPECT_EQ(files.samples, whole.samples);
  EXPECT_EQ(files.summary, whole.summary);
  std::remove(journal.c_str());
}

TEST(CampaignCsvExport, SequentialStoppingCampaignMatches) {
  EdgeBackend backend;
  CampaignSpec spec = edge_spec({"plain", "bits"});
  spec.stopping = StoppingPolicy::sequential_ci(0.01, 3, 9);
  CampaignResult one;
  const Files a = run_and_compare(backend, spec, workers(1), "sequential_w1", nullptr, &one);
  EXPECT_GT(one.rounds, 1u);
  const Files b = run_and_compare(backend, spec, workers(4), "sequential_w4");
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.summary, b.summary);
}

TEST(CampaignCsvExport, HandBuiltResultExportsWithoutCachedText) {
  // save_*_csv format a cell without text themselves; an empty series
  // has no summary row, as summary_dataset() says.
  CampaignResult result;
  result.experiment.name = "hand_built";
  for (std::size_t i = 0; i < 3; ++i) {
    CampaignCell cell;
    cell.config.index = i;
    cell.result.samples = {1.5 * static_cast<double>(i), -0.0, 7.0};
    result.cells.push_back(std::move(cell));
  }
  const std::string samples = temp_path("hand_built.samples.csv");
  const std::string summary = temp_path("hand_built.summary.csv");
  save_samples_csv(result, samples);
  save_summary_csv(result, summary);
  EXPECT_EQ(slurp(samples), csv_of(result.samples_dataset()));
  EXPECT_EQ(slurp(summary), csv_of(result.summary_dataset()));

  result.cells[1].result.samples.clear();
  EXPECT_THROW((void)result.summary_dataset(), std::invalid_argument);
  EXPECT_THROW(save_summary_csv(result, summary), std::invalid_argument);
  std::remove(samples.c_str());
  std::remove(summary.c_str());
}

TEST(CampaignCsvExport, ExportIsOneHarnessSpanWhenTraced) {
  obs::TraceSink sink;
  obs::ScopedAttach attach(sink);
  EdgeBackend backend;
  (void)run_and_compare(backend, edge_spec({"plain"}), workers(2), "traced");
  const std::string json = sink.to_json(obs::TraceSink::WriteOptions{false});
  EXPECT_NE(json.find("\"campaign.export\""), std::string::npos);
}

TEST(ResultCache, CountsCachedTextWithinItsBudget) {
  const auto identity = std::make_shared<const std::string>("edge");
  Config config;
  config.levels = {{"k", "v"}};
  CellResult r;
  for (int i = 0; i < 32; ++i) r.samples.push_back(1.0 / (i + 3));
  const std::shared_ptr<const CellCsv> text = format_cell_csv(r.samples);

  // The text joins a held cell later: bytes() grows by the text.
  ResultCache cache;
  const CellKey key = make_cell_key(identity, "edge", config, 1);
  cache.insert(key, r);
  const std::size_t bare = cache.bytes();
  cache.insert(key, r, text);
  EXPECT_GE(cache.bytes(), bare + text->bytes());
  EXPECT_LE(cache.bytes(), bare + text->bytes() + 64);
  std::shared_ptr<const CellCsv> served;
  ASSERT_TRUE(cache.find(key, &served));
  EXPECT_EQ(served, text);
  // Held with its text already: a second insert changes nothing.
  const std::size_t with_text = cache.bytes();
  cache.insert(key, r, format_cell_csv(r.samples));
  EXPECT_EQ(cache.bytes(), with_text);
  EXPECT_EQ(cache.size(), 1u);

  // Cells of about 1 MiB with text, twice the budget's worth: every
  // insert stays within kResultCacheBytes, and old cells are dropped.
  CellResult big;
  big.samples.assign(std::size_t{1} << 15, 0.0);
  for (std::size_t i = 0; i < big.samples.size(); ++i) big.samples[i] = 1.0 / (i + 7);
  const std::shared_ptr<const CellCsv> big_text = format_cell_csv(big.samples);
  ResultCache bounded;
  const std::size_t cells = 2 * kResultCacheBytes / (big_text->bytes() + 8 * big.samples.size());
  for (std::size_t i = 0; i < cells; ++i) {
    bounded.insert(make_cell_key(identity, "edge", config, i), big, big_text);
    ASSERT_LE(bounded.bytes(), kResultCacheBytes) << "after cell " << i;
  }
  EXPECT_GT(bounded.evicted(), 0u);
  EXPECT_GT(bounded.bytes(), kResultCacheBytes / 2);
}

}  // namespace
}  // namespace sci::exec
