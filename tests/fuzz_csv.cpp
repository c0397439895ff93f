// Deterministic mutation fuzzing of six input boundaries: CSV
// loading, campaign journal replay, the daemon's submit codec, the JSON
// parser on its own, the worker reply codec, and the bench history
// lines that scibench_ci reads.
//
// One mutator serves every target. Each iteration picks a seed
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
//   Submit   Seeds are submit headers (wire::submit_header_to_json) and
//            the `scibench_submit --emit-demo` envelopes; mutants of
//            either line go through wire::parse_submission. A parse
//            either succeeds -- and then the re-emitted header and
//            envelope parse back to the same Submission -- or throws
//            std::runtime_error or std::invalid_argument.
//   JSON     Seeds are every document the other targets start from;
//            mutants go through obs::json::parse alone. A parse either
//            succeeds -- and then the value's canonical text parses
//            back to the same canonical text -- or throws
//            json::ParseError.
//   Reply    Seeds are worker replies: the "scibench.cell" lines
//            scibench_worker writes for real cells of the demo
//            envelopes, and an error reply. Mutants go through
//            wire::parse_cell_result_json. A parse either succeeds --
//            and then the re-emitted reply parses back to the same
//            bytes -- or throws std::runtime_error.
//   History  Seeds are lines of a bench history store
//            (ci::history_line). Mutants go through
//            ci::parse_history_line. A parse either succeeds -- and then
//            the re-emitted line parses back to the same bytes -- or
//            throws std::runtime_error (json::ParseError is one).
//
// Any other exception fails the test; a crash or hang fails the ctest
// case (run under ASan/UBSan in CI). The iteration budgets are fixed,
// so every run replays the same mutants.
#include <gtest/gtest.h>

#include <sys/wait.h>

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

#include "ci/history.hpp"
#include "core/dataset.hpp"
#include "csv_corpus.hpp"
#include "exec/ingest.hpp"
#include "exec/campaign.hpp"
#include "exec/journal.hpp"
#include "exec/sim_backend.hpp"
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

// ------------------------------------------------------------- submit

constexpr std::size_t kSubmitIterations = 2000;

/// Bytes that matter to JSON documents -- submit headers, envelopes,
/// worker replies: structure, number syntax, string escapes and the
/// letters of true/false/null.
constexpr std::string_view kJsonAlphabet = "{}[]\",:\\  0123456789-+.eEtrufalsn";

/// The `scibench_submit --emit-demo` envelopes, read from the built tool.
std::vector<std::string> demo_envelopes() {
  std::vector<std::string> out;
  for (const char* demo : {"pingpong", "pingpong-seq", "reduce", "faulty", "crashy"}) {
    const std::string command = std::string("'") + SCIBENCH_SUBMIT_PATH + "' --emit-demo " + demo;
    FILE* pipe = ::popen(command.c_str(), "r");
    if (pipe == nullptr) continue;
    std::string line;
    char buf[4096];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0) line.append(buf, got);
    if (::pclose(pipe) == 0 && !line.empty() && line.back() == '\n') {
      line.pop_back();
      out.push_back(line);
    }
  }
  return out;
}

/// Headers that set no member, each member, and every member at once.
std::vector<std::string> submit_headers() {
  exec::Submission all;
  all.priority = -7;
  all.journal_path = "runs/j \"1\".jsonl";
  all.samples_csv = "s,\n.csv";
  all.summary_csv = "summary.csv";
  all.metrics_path = "m\\.json";
  all.max_attempts = exec::kMaxAttempts;
  all.heartbeat_s = 0.25;
  std::vector<std::string> out = {R"({"op": "submit"})",
                                  exec::wire::submit_header_to_json(exec::Submission{}),
                                  exec::wire::submit_header_to_json(all)};
  exec::Submission one;
  one.heartbeat_s = 1e-300;
  out.push_back(exec::wire::submit_header_to_json(one));
  return out;
}

/// Every field of `b` equals `a`'s: the numbers bit for bit, spec and
/// backend through their envelope bytes.
void expect_same_submission(const exec::Submission& a, const exec::Submission& b,
                            std::size_t iter) {
  EXPECT_EQ(exec::wire::campaign_to_json(a.spec, a.backend),
            exec::wire::campaign_to_json(b.spec, b.backend))
      << "iteration " << iter;
  EXPECT_EQ(exec::wire::submit_header_to_json(a), exec::wire::submit_header_to_json(b))
      << "iteration " << iter;
  EXPECT_EQ(a.priority, b.priority) << "iteration " << iter;
  EXPECT_EQ(a.journal_path, b.journal_path) << "iteration " << iter;
  EXPECT_EQ(a.samples_csv, b.samples_csv) << "iteration " << iter;
  EXPECT_EQ(a.summary_csv, b.summary_csv) << "iteration " << iter;
  EXPECT_EQ(a.metrics_path, b.metrics_path) << "iteration " << iter;
  EXPECT_EQ(a.max_attempts, b.max_attempts) << "iteration " << iter;
  EXPECT_TRUE(same_bits(a.heartbeat_s, b.heartbeat_s)) << "iteration " << iter;
}

TEST(FuzzSubmit, ParseSucceedsAndRoundTripsOrThrowsATypedError) {
  const std::vector<std::string> headers = submit_headers();
  const std::vector<std::string> envelopes = demo_envelopes();
  ASSERT_EQ(envelopes.size(), 5u) << "could not run " << SCIBENCH_SUBMIT_PATH;

  rng::Xoshiro256 gen(0x5ab317u);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t iter = 0; iter < kSubmitIterations; ++iter) {
    // Mostly a damaged header in front of an intact envelope, so the
    // header's own parse and range checks are reached.
    std::string header = headers[gen() % headers.size()];
    std::string envelope = envelopes[gen() % envelopes.size()];
    if (gen() % 4 != 0) {
      header = mutate(headers, kJsonAlphabet, gen);
    } else {
      envelope = mutate(envelopes, kJsonAlphabet, gen);
    }
    try {
      const exec::Submission sub = exec::wire::parse_submission(header, envelope);
      ++parsed;
      const exec::Submission back = exec::wire::parse_submission(
          exec::wire::submit_header_to_json(sub),
          exec::wire::campaign_to_json(sub.spec, sub.backend));
      expect_same_submission(sub, back, iter);
      if (HasFailure()) break;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << iter << ": parse_submission threw an untyped error: "
                    << e.what() << "\nheader: " << header;
    }
  }
  std::printf("fuzz_submit: %zu parsed, %zu rejected\n", parsed, rejected);
  EXPECT_GT(parsed, kSubmitIterations / 20);
  EXPECT_GT(rejected, kSubmitIterations / 20);
}

// --------------------------------------------------------------- json

constexpr std::size_t kJsonIterations = 2000;

/// The canonical text of `v`: members in their parsed order, numbers in
/// json::dump_number's shortest round-trip form, strings re-quoted.
void append_canonical(std::string& out, const obs::json::Value& v) {
  using Type = obs::json::Value::Type;
  switch (v.type) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += v.boolean ? "true" : "false"; break;
    case Type::kNumber: out += obs::json::dump_number(v.number); break;
    case Type::kString: obs::json::append_quoted(out, v.string); break;
    case Type::kArray:
      out += '[';
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i > 0) out += ", ";
        append_canonical(out, v.array[i]);
      }
      out += ']';
      break;
    case Type::kObject:
      out += '{';
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        if (i > 0) out += ", ";
        obs::json::append_quoted(out, v.object[i].first);
        out += ": ";
        append_canonical(out, v.object[i].second);
      }
      out += '}';
      break;
  }
}

std::string canonical(const obs::json::Value& v) {
  std::string out;
  append_canonical(out, v);
  return out;
}

/// Every seed document of the other targets, split into lines: each
/// line is one JSON document (CSV text mostly is not, which the parser
/// must refuse just as cleanly).
std::vector<std::string> json_corpus() {
  std::vector<std::string> docs = submit_headers();
  for (const std::string& envelope : demo_envelopes()) docs.push_back(envelope);
  std::istringstream journal(journal_seed(::testing::TempDir() + "/scibench_fuzz_json.journal"));
  for (std::string line; std::getline(journal, line);) docs.push_back(line);
  docs.push_back(R"([1e308, -0.0, 5e-324, "\u0041\n\t\"", true, false, null, {}, []])");
  return docs;
}

TEST(FuzzJson, ParseReEmitsCanonicallyOrThrowsParseError) {
  const std::vector<std::string> corpus = json_corpus();
  ASSERT_GT(corpus.size(), 10u);
  rng::Xoshiro256 gen(0x150a0u);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t iter = 0; iter < kJsonIterations; ++iter) {
    const std::string doc = mutate(corpus, kJsonAlphabet, gen);
    try {
      const std::string text = canonical(obs::json::parse(doc));
      ++parsed;
      ASSERT_EQ(canonical(obs::json::parse(text)), text) << "iteration " << iter;
    } catch (const obs::json::ParseError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << iter << ": parse threw an untyped error: "
                    << e.what();
    }
  }
  std::printf("fuzz_json: %zu parsed, %zu rejected\n", parsed, rejected);
  EXPECT_GT(parsed, kJsonIterations / 20);
  EXPECT_GT(rejected, kJsonIterations / 20);
}

// -------------------------------------------------------------- reply

constexpr std::size_t kReplyIterations = 2000;

/// What scibench_worker writes back: cell_result_to_json of the cells it
/// runs -- here the first two cells of the pingpong and reduce demo
/// envelopes, run as the worker runs them but at three samples each, so
/// mutations land on the reply's structure as often as on its hex
/// samples -- and of the error reply a throwing cell gets.
std::vector<std::string> worker_replies() {
  std::vector<std::string> replies;
  const std::vector<std::string> envelopes = demo_envelopes();
  for (const std::size_t e : {std::size_t{0}, std::size_t{2}}) {  // pingpong, reduce
    if (e >= envelopes.size()) continue;
    exec::wire::CampaignEnvelope env = exec::wire::parse_campaign_json(envelopes[e]);
    env.backend.samples = 3;
    const exec::Campaign campaign(env.spec);
    exec::SimBackend backend(env.backend);
    for (std::size_t c = 0; c < 2 && c < campaign.config_count(); ++c) {
      const exec::Config config = campaign.config(c);
      replies.push_back(exec::wire::cell_result_to_json(
          backend.run(config, campaign.seed_for(config, 0))));
    }
  }
  exec::CellResult failed;
  failed.error = "cell threw: \"bad\"\nsecond line";
  replies.push_back(exec::wire::cell_result_to_json(failed));
  return replies;
}

TEST(FuzzReply, ParseReEmitsCanonicallyOrThrowsRuntimeError) {
  const std::vector<std::string> corpus = worker_replies();
  ASSERT_EQ(corpus.size(), 5u) << "could not run " << SCIBENCH_SUBMIT_PATH;
  for (const std::string& reply : corpus) {  // the seeds are canonical
    ASSERT_EQ(exec::wire::cell_result_to_json(exec::wire::parse_cell_result_json(reply)),
              reply);
  }
  rng::Xoshiro256 gen(0xce11u);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t iter = 0; iter < kReplyIterations; ++iter) {
    // A reply is a journal cell record's codec: hex samples in JSON.
    const std::string doc = mutate(corpus, kJournalAlphabet, gen);
    try {
      const std::string text =
          exec::wire::cell_result_to_json(exec::wire::parse_cell_result_json(doc));
      ++parsed;
      ASSERT_EQ(exec::wire::cell_result_to_json(exec::wire::parse_cell_result_json(text)),
                text)
          << "iteration " << iter;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << iter
                    << ": parse_cell_result_json threw an untyped error: " << e.what();
    }
  }
  std::printf("fuzz_reply: %zu parsed, %zu rejected\n", parsed, rejected);
  // Every member of a reply is required and every sample is exactly 16
  // hex digits, so most edits are refusals; about 3% of mutants parse.
  EXPECT_GT(parsed, kReplyIterations / 50);
  EXPECT_GT(rejected, kReplyIterations / 20);
}

// ------------------------------------------------------------ history

constexpr std::size_t kHistoryIterations = 2000;

/// Lines of a bench history store: both improve directions, a NaN
/// median (written as null), extreme and tiny numbers, and strings that
/// need escapes.
std::vector<std::string> history_lines() {
  std::vector<std::string> lines;
  const double values[] = {1.25, std::numeric_limits<double>::quiet_NaN(), 1e300, 5e-324,
                           -0.0, 123456.789};
  for (std::size_t i = 0; i < std::size(values); ++i) {
    ci::HistoryPoint point;
    point.seq = i * 977;
    point.git_sha = i % 2 == 0 ? "0123abcd" : "h\"ead\n\u0001";
    point.bench = "perfbench";
    point.metric.name = "metric_" + std::to_string(i);
    point.metric.unit = i % 3 == 0 ? "ms" : "MB/s";
    point.metric.improve = i % 2 == 0 ? obs::Improve::kLower : obs::Improve::kHigher;
    point.metric.n = 20 + i;
    point.metric.median = values[i];
    point.metric.ci_lo = values[i] * 0.99;
    point.metric.ci_hi = values[i] * 1.01;
    lines.push_back(ci::history_line(point));
  }
  return lines;
}

TEST(FuzzHistory, ParseReEmitsCanonicallyOrThrowsRuntimeError) {
  const std::vector<std::string> corpus = history_lines();
  for (const std::string& line : corpus) {  // the seeds are canonical
    ASSERT_EQ(ci::history_line(ci::parse_history_line(line)), line);
  }
  rng::Xoshiro256 gen(0x4157u);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t iter = 0; iter < kHistoryIterations; ++iter) {
    const std::string doc = mutate(corpus, kJsonAlphabet, gen);
    try {
      const std::string text = ci::history_line(ci::parse_history_line(doc));
      ++parsed;
      ASSERT_EQ(ci::history_line(ci::parse_history_line(text)), text) << "iteration " << iter;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << iter
                    << ": parse_history_line threw an untyped error: " << e.what()
                    << "\nline: " << doc;
    }
  }
  std::printf("fuzz_history: %zu parsed, %zu rejected\n", parsed, rejected);
  // Every member of a line is required and typed, so most edits are
  // refusals; about 3% of mutants parse.
  EXPECT_GT(parsed, kHistoryIterations / 50);
  EXPECT_GT(rejected, kHistoryIterations / 20);
}

}  // namespace
}  // namespace sci
