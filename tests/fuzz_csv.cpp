// Deterministic mutation fuzzing of two file input boundaries: CSV
// loading and campaign journal replay.
//
// One mutator serves both targets. Each iteration picks a seed
// document, then flips, inserts, splices, duplicates or truncates bytes
// with a seeded rng::Xoshiro256, weighted toward the target's grammar
// bytes, and writes the mutant to a file.
//
//   CSV      Seeds are the corpora that pin the writer's bytes and the
//            loader's grammar (csv_corpus.hpp); mutants load through
//            core::Dataset::load_csv and exec::load_measurements. A load
//            either succeeds -- and then re-emitting the dataset and
//            loading it again gives the same columns and bit-identical
//            rows -- or throws std::runtime_error.
//   Journal  The seed is a journal written by exec::CampaignJournal;
//            mutants open through its replay. An open either succeeds
//            -- and then every replayed record, appended to a fresh
//            journal, replays bit-identically -- or throws
//            std::runtime_error.
//
// Any other exception fails the test; a crash or hang fails the ctest
// case (run under ASan/UBSan in CI). The iteration budgets are fixed,
// so every run replays the same mutants.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/dataset.hpp"
#include "csv_corpus.hpp"
#include "exec/ingest.hpp"
#include "exec/journal.hpp"
#include "exec/wire.hpp"
#include "obs/json.hpp"
#include "rng/xoshiro.hpp"

namespace sci {
namespace {

constexpr std::size_t kIterations = 4000;

std::string csv_of(const core::Dataset& ds) {
  std::ostringstream os;
  ds.write_csv(os);
  return os.str();
}

/// The grammar corpus plus written datasets: one of corpus values, one
/// campaign-shaped (config, rep, f_*, sample, value).
std::vector<std::string> seed_corpus() {
  std::vector<std::string> docs = csv_corpus::csv_grammar_corpus();
  core::Experiment e;
  e.name = "fuzz";
  e.set("campaign.failed", "1");
  e.set("campaign.rep_counts", "2,1");
  std::vector<double> values = csv_corpus::csv_special_values();
  const auto random = csv_corpus::csv_random_values(20, 0xf022u);
  values.insert(values.end(), random.begin(), random.end());
  core::Dataset plain(e, {"a", "b"});
  for (std::size_t i = 0; i + 1 < values.size(); i += 2) {
    plain.add_row({values[i], values[i + 1]});
  }
  docs.push_back(csv_of(plain));
  core::Dataset campaign(e, {"config", "rep", "f_system", "sample", "value"});
  for (double c = 0; c < 2; ++c) {
    for (double s = 0; s < 4; ++s) campaign.add_row({c, 0.0, c, s, 1.5 + s * 0.25});
  }
  docs.push_back(csv_of(campaign));
  return docs;
}

/// Bytes that matter to the CSV grammar, weighted toward separators.
constexpr std::string_view kCsvAlphabet = ",,\n\n\r#  \t-+.e0123456789naif";

/// One mutant of a corpus document; `alphabet` holds the bytes that
/// matter to the target's grammar.
std::string mutate(const std::vector<std::string>& corpus, std::string_view alphabet,
                   rng::Xoshiro256& gen) {
  std::string doc = corpus[gen() % corpus.size()];
  const std::size_t edits = 1 + gen() % 4;
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = doc.empty() ? 0 : gen() % (doc.size() + 1);
    switch (gen() % 6) {
      case 0:  // flip one bit
        if (!doc.empty()) doc[at % doc.size()] ^= static_cast<char>(1u << (gen() % 8));
        break;
      case 1:  // overwrite with a grammar byte
        if (!doc.empty()) doc[at % doc.size()] = alphabet[gen() % alphabet.size()];
        break;
      case 2:  // insert a grammar byte or an arbitrary one
        doc.insert(at, 1,
                   gen() % 4 == 0 ? static_cast<char>(gen())
                                  : alphabet[gen() % alphabet.size()]);
        break;
      case 3: {  // splice a slice of another document in
        const std::string& other = corpus[gen() % corpus.size()];
        if (other.empty()) break;
        const std::size_t from = gen() % other.size();
        const std::size_t len = 1 + gen() % std::min<std::size_t>(64, other.size() - from);
        doc.insert(at, other, from, len);
        break;
      }
      case 4: {  // duplicate a slice in place
        if (doc.empty()) break;
        const std::size_t from = gen() % doc.size();
        const std::size_t len = 1 + gen() % std::min<std::size_t>(48, doc.size() - from);
        doc.insert(at, doc.substr(from, len));
        break;
      }
      default:  // truncate
        doc.resize(at);
        break;
    }
  }
  return doc;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0 || (a != a && b != b);
}

/// Re-emits `ds`, loads it back and compares columns and rows.
void expect_round_trip(const core::Dataset& ds, const std::string& path, std::size_t iter) {
  ds.save_csv(path);
  const core::Dataset again = core::Dataset::load_csv(path);
  ASSERT_EQ(again.columns(), ds.columns()) << "iteration " << iter;
  ASSERT_EQ(again.rows(), ds.rows()) << "iteration " << iter;
  for (std::size_t r = 0; r < ds.rows(); ++r) {
    const auto want = ds.row(r);
    const auto got = again.row(r);
    for (std::size_t c = 0; c < want.size(); ++c) {
      ASSERT_TRUE(same_bits(got[c], want[c]))
          << "iteration " << iter << " row " << r << " column " << c;
    }
  }
}

TEST(FuzzCsv, LoadersSucceedAndRoundTripOrThrowRuntimeError) {
  const std::vector<std::string> corpus = seed_corpus();
  const std::string path = ::testing::TempDir() + "/scibench_fuzz.csv";
  const std::string again = ::testing::TempDir() + "/scibench_fuzz_again.csv";
  rng::Xoshiro256 gen(0xc5f0220u);
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  std::size_t campaigns = 0;
  for (std::size_t iter = 0; iter < kIterations; ++iter) {
    const std::string doc = mutate(corpus, kCsvAlphabet, gen);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << doc;
    try {
      const core::Dataset ds = core::Dataset::load_csv(path);
      ++loaded;
      expect_round_trip(ds, again, iter);
      if (HasFatalFailure()) break;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << iter << ": load_csv threw a non-runtime_error: "
                    << e.what();
    }
    try {
      const exec::Ingested in = exec::load_measurements(path);
      if (in.campaign) {
        ++campaigns;
        std::size_t values = 0;
        for (const auto& cell : in.cells) values += cell.values.size();
        EXPECT_EQ(values, in.dataset.rows()) << "iteration " << iter;
      }
    } catch (const std::runtime_error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << iter
                    << ": load_measurements threw a non-runtime_error: " << e.what();
    }
  }
  std::remove(path.c_str());
  std::remove(again.c_str());
  // The mutants must exercise both outcomes and the campaign regrouping,
  // or the budget is not testing much.
  std::printf("fuzz_csv: %zu loaded, %zu rejected, %zu campaign exports\n", loaded,
              rejected, campaigns);
  EXPECT_GT(loaded, kIterations / 20);
  EXPECT_GT(rejected, kIterations / 20);
  EXPECT_GT(campaigns, 0u);
}

TEST(FuzzCsv, SeedCorpusIsStable) {
  // Every seed document either loads and round-trips or is rejected
  // with a typed error -- the starting point of every mutant.
  const std::string path = ::testing::TempDir() + "/scibench_fuzz_seed.csv";
  const std::string again = ::testing::TempDir() + "/scibench_fuzz_seed_again.csv";
  std::size_t i = 0;
  for (const std::string& doc : seed_corpus()) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << doc;
    try {
      expect_round_trip(core::Dataset::load_csv(path), again, i);
    } catch (const std::runtime_error&) {
    }
    ++i;
  }
  std::remove(path.c_str());
  std::remove(again.c_str());
}

// ------------------------------------------------------------ journal

constexpr std::size_t kJournalIterations = 2000;
constexpr std::uint64_t kJournalFingerprint = 0x5eed;

/// Bytes that matter to a journal line: JSON structure, hex digits and
/// the letters of true/false/null.
constexpr std::string_view kJournalAlphabet = "{}[]\",:\n  0123456789abcdef-.enul";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A real journal: samples that decimal text would not keep (-0.0, a
/// denormal, inf, NaN), an error text holding a newline, and a stop
/// record.
std::string journal_seed(const std::string& path) {
  std::remove(path.c_str());
  {
    exec::CampaignJournal journal(path, kJournalFingerprint);
    exec::CellResult special;
    special.samples = {-0.0, 5e-324, std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN(), 1.0 / 3.0};
    special.unit = "us";
    special.stop_reason = "converged";
    special.warmup_discarded = 2;
    special.attempts = 1;
    journal.append(0, 0, 0x0123456789abcdefULL, special);
    exec::CellResult failed;
    failed.error = "worker lost\nits \"marbles\"";
    failed.attempts = 3;
    journal.append(0, 1, 7, failed);
    exec::CellResult plain;
    plain.samples = {2.0, 2.5};
    plain.attempts = 1;
    journal.append(1, 0, 8, plain);
    journal.append_stop(0, 2, "converged");
  }
  std::string doc = read_file(path);
  std::remove(path.c_str());
  return doc;
}

/// Appends `r` as (cell, rep, seed) to a fresh journal at `path`, opens
/// it again and compares the replayed record field by field, samples
/// bit for bit.
void expect_cell_replays(const std::string& path, std::size_t cell, std::size_t rep,
                         std::uint64_t seed, const exec::CellResult& r, std::size_t iter) {
  std::remove(path.c_str());
  { exec::CampaignJournal(path, kJournalFingerprint).append(cell, rep, seed, r); }
  const exec::CampaignJournal again(path, kJournalFingerprint);
  const exec::CellResult* back = again.find(cell, rep, seed);
  ASSERT_NE(back, nullptr) << "iteration " << iter;
  EXPECT_EQ(back->unit, r.unit) << "iteration " << iter;
  EXPECT_EQ(back->stop_reason, r.stop_reason) << "iteration " << iter;
  EXPECT_EQ(back->error, r.error) << "iteration " << iter;
  EXPECT_EQ(back->warmup_discarded, r.warmup_discarded) << "iteration " << iter;
  EXPECT_EQ(back->attempts, r.attempts) << "iteration " << iter;
  ASSERT_EQ(back->samples.size(), r.samples.size()) << "iteration " << iter;
  for (std::size_t i = 0; i < r.samples.size(); ++i) {
    EXPECT_EQ(std::memcmp(&back->samples[i], &r.samples[i], sizeof(double)), 0)
        << "iteration " << iter << " sample " << i;
  }
}

void expect_stop_replays(const std::string& path, std::size_t config,
                         const exec::CampaignJournal::StopRecord& stop, std::size_t iter) {
  std::remove(path.c_str());
  { exec::CampaignJournal(path, kJournalFingerprint).append_stop(config, stop.reps, stop.reason); }
  const exec::CampaignJournal again(path, kJournalFingerprint);
  const exec::CampaignJournal::StopRecord* back = again.find_stop(config);
  ASSERT_NE(back, nullptr) << "iteration " << iter;
  EXPECT_EQ(back->reps, stop.reps) << "iteration " << iter;
  EXPECT_EQ(back->reason, stop.reason) << "iteration " << iter;
}

/// Opens `path` as a journal and checks every record it replays. The
/// journal has no iterator, so the keys are read from the lines of
/// `doc`; each (cell, rep) the journal holds must be found that way.
/// Returns the number of records checked.
std::size_t check_journal(const std::string& path, const std::string& doc,
                          const std::string& fresh, std::size_t iter) {
  namespace json = obs::json;
  const exec::CampaignJournal journal(path, kJournalFingerprint);
  std::set<std::pair<std::size_t, std::size_t>> cells;
  std::size_t checked = 0;
  std::istringstream lines(doc);
  for (std::string line; std::getline(lines, line);) {
    try {
      const json::Value root = json::parse(line);
      if (const json::Value* stop = root.find("stop")) {
        const std::size_t config = stop->as_size();
        if (const auto* record = journal.find_stop(config)) {
          expect_stop_replays(fresh, config, *record, iter);
          ++checked;
        }
        continue;
      }
      const std::size_t cell = root.at("cell").as_size();
      const std::size_t rep = root.at("rep").as_size();
      const std::uint64_t seed = exec::wire::parse_hex_u64(root.at("seed").as_string());
      if (const exec::CellResult* r = journal.find(cell, rep, seed)) {
        cells.insert({cell, rep});
        expect_cell_replays(fresh, cell, rep, seed, *r, iter);
        ++checked;
      }
    } catch (const std::runtime_error&) {
      // Not a record (the header, or a line replay skipped).
    }
  }
  EXPECT_EQ(cells.size(), journal.size()) << "iteration " << iter;
  return checked;
}

TEST(FuzzJournal, ReplaySucceedsAndRoundTripsOrThrowsRuntimeError) {
  const std::string path = ::testing::TempDir() + "/scibench_fuzz.journal";
  const std::string fresh = ::testing::TempDir() + "/scibench_fuzz_fresh.journal";
  const std::vector<std::string> corpus = {journal_seed(path)};

  // The seed itself replays all three cells and the stop record.
  std::ofstream(path, std::ios::binary | std::ios::trunc) << corpus[0];
  ASSERT_EQ(check_journal(path, corpus[0], fresh, 0), 4u);

  // Only the header can refuse a journal: damage after it is a torn
  // tail, skipped on replay.
  const std::string header = corpus[0].substr(0, corpus[0].find('\n') + 1);
  rng::Xoshiro256 gen(0x10a2a1u);
  std::size_t opened = 0;
  std::size_t rejected = 0;
  std::size_t records = 0;
  for (std::size_t iter = 0; iter < kJournalIterations; ++iter) {
    const std::string doc = mutate(corpus, kJournalAlphabet, gen);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << doc;
    try {
      records += check_journal(path, doc, fresh, iter);
      ++opened;
      if (HasFatalFailure()) break;
    } catch (const std::runtime_error& e) {
      ++rejected;
      EXPECT_NE(doc.compare(0, header.size(), header), 0)
          << "iteration " << iter << ": intact header, yet refused: " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << iter << ": journal replay threw a non-runtime_error: "
                    << e.what();
    }
  }
  std::remove(path.c_str());
  std::remove(fresh.c_str());
  std::printf("fuzz_journal: %zu opened, %zu rejected, %zu records re-appended\n", opened,
              rejected, records);
  EXPECT_GT(opened, kJournalIterations / 20);
  EXPECT_GT(rejected, kJournalIterations / 20);
  EXPECT_GT(records, opened);  // most opened mutants keep records to check
}

}  // namespace
}  // namespace sci
