// Deterministic mutation fuzzing of the CSV input boundary.
//
// Seeds are the corpora that pin the writer's bytes and the loader's
// grammar (csv_corpus.hpp). Each iteration flips, inserts, splices,
// duplicates or truncates bytes with a seeded rng::Xoshiro256, writes
// the mutant to a file and loads it through core::Dataset::load_csv and
// exec::load_measurements. The invariant: a load either succeeds -- and
// then re-emitting the dataset and loading it again gives the same
// columns and bit-identical rows -- or throws std::runtime_error. Any
// other exception fails the test; a crash or hang fails the ctest case
// (run under ASan/UBSan in CI). The iteration budget is fixed, so every
// run replays the same mutants.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "csv_corpus.hpp"
#include "exec/ingest.hpp"
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

/// Bytes that matter to the grammar, weighted toward separators.
constexpr char kAlphabet[] = ",,\n\n\r#  \t-+.e0123456789naif";

std::string mutate(const std::vector<std::string>& corpus, rng::Xoshiro256& gen) {
  std::string doc = corpus[gen() % corpus.size()];
  const std::size_t edits = 1 + gen() % 4;
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = doc.empty() ? 0 : gen() % (doc.size() + 1);
    switch (gen() % 6) {
      case 0:  // flip one bit
        if (!doc.empty()) doc[at % doc.size()] ^= static_cast<char>(1u << (gen() % 8));
        break;
      case 1:  // overwrite with a grammar byte
        if (!doc.empty()) doc[at % doc.size()] = kAlphabet[gen() % (sizeof kAlphabet - 1)];
        break;
      case 2:  // insert a grammar byte or an arbitrary one
        doc.insert(at, 1,
                   gen() % 4 == 0 ? static_cast<char>(gen())
                                  : kAlphabet[gen() % (sizeof kAlphabet - 1)]);
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
    const std::string doc = mutate(corpus, gen);
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

}  // namespace
}  // namespace sci
