// Deterministic mutation fuzzing of eleven input boundaries: CSV
// loading, campaign journal replay, the daemon's submit codec, the JSON
// parser on its own, the worker reply and job codecs, the bench history
// lines and BENCH_*.json reports that scibench_ci reads, the trace
// reader, the campaign metrics file and the simmpi replay schedule.
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
//   Job      Seeds are cell dispatches (wire::job_to_json) of the demo
//            envelopes' cells. Mutants go through wire::parse_job_json.
//            A parse either succeeds -- and then the re-emitted job
//            parses back to the same bytes -- or throws
//            std::runtime_error.
//   History  Seeds are lines of a bench history store
//            (ci::history_line). Mutants go through
//            ci::parse_history_line. A parse either succeeds -- and then
//            the re-emitted line parses back to the same bytes -- or
//            throws std::runtime_error (json::ParseError is one).
//   Trace    Seeds are obs::TraceSink documents: spans, instants and
//            counters with arguments, track and process names, and a
//            merged sink. Mutants go through obs::parse_trace. A parse
//            either succeeds -- and then the trace's canonical text
//            parses back to the same text -- or throws
//            std::runtime_error.
//   BenchReport  Seeds are obs::bench_report_json documents: context,
//            metrics of both improve directions with NaN, extreme and
//            tiny numbers, counters, and an empty report. Mutants go
//            through obs::parse_bench_report, as `scibench_ci ingest`
//            and `gate` read them. A parse either succeeds -- and then
//            the re-emitted report parses back to the same bytes -- or
//            throws std::runtime_error.
//   Progress Seeds are ProgressSnapshot::to_json documents (the
//            campaign metrics file): a fixed and a sequential campaign
//            with workers, rep counts and counter deltas. Mutants go
//            through exec::parse_progress_snapshot. A parse either
//            succeeds -- and then the re-emitted snapshot parses back
//            to the same bytes -- or throws std::runtime_error.
//   Schedule Seeds are simmpi replay schedules: per-rank and `all`
//            blocks of calc, send, recv (from a rank and from `any`),
//            barrier, reduce and allreduce. Mutants go through
//            simmpi::parse_schedule at a fixed four ranks, so an `all`
//            block cannot multiply memory. A parse either succeeds --
//            and then every peer is a rank or kAnySource and every calc
//            is finite and >= 0 -- or throws std::invalid_argument.
//
// Any other exception fails the test; a crash or hang fails the ctest
// case (run under ASan/UBSan in CI). The iteration budgets are fixed,
// so every run replays the same mutants.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cmath>
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
#include "exec/progress.hpp"
#include "exec/sim_backend.hpp"
#include "exec/wire.hpp"
#include "obs/bench_report.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "obs/trace_read.hpp"
#include "rng/xoshiro.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/replay.hpp"

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
/// `doc`, parsed with the json::parse the journal's replay uses.
/// Returns the number of records checked.
std::size_t check_journal(const std::string& path, const std::string& doc,
                          const std::string& fresh, std::size_t iter) {
  namespace json = obs::json;
  const exec::CampaignJournal journal(path, kJournalFingerprint);
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
        expect_cell_replays(fresh, cell, rep, seed, *r, iter);
        ++checked;
      }
    } catch (const std::runtime_error&) {
      // Not a record (the header, or a line replay skipped).
    }
  }
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

/// Checks that every seed of `corpus` is canonical, then mutates it
/// `iterations` times with seed `seed` over `alphabet` and checks every
/// mutant through `reemit` (parse, then emit canonically): it either
/// returns text that re-emits to itself or throws std::runtime_error.
/// Returns the number of mutants that parsed.
template <typename Reemit>
std::size_t fuzz_reemit(const char* target, const std::vector<std::string>& corpus,
                        std::string_view alphabet, std::size_t iterations,
                        std::uint64_t seed, Reemit reemit) {
  for (const std::string& doc : corpus) {  // the seeds are canonical
    EXPECT_EQ(reemit(doc), doc) << target;
  }
  rng::Xoshiro256 gen(seed);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    const std::string doc = mutate(corpus, alphabet, gen);
    try {
      const std::string text = reemit(doc);
      ++parsed;
      EXPECT_EQ(reemit(text), text) << target << " iteration " << iter;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << target << " iteration " << iter
                    << ": parse threw an untyped error: " << e.what() << "\ndoc: " << doc;
    }
  }
  std::printf("fuzz_%s: %zu parsed, %zu rejected\n", target, parsed, rejected);
  EXPECT_GT(rejected, iterations / 20) << target;
  return parsed;
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
  // A reply is a journal cell record's codec: hex samples in JSON.
  const std::size_t parsed =
      fuzz_reemit("reply", corpus, kJournalAlphabet, kReplyIterations, 0xce11u,
                  [](std::string_view text) {
                    return exec::wire::cell_result_to_json(
                        exec::wire::parse_cell_result_json(text));
                  });
  // Every member of a reply is required and every sample is exactly 16
  // hex digits, so most edits are refusals; about 3% of mutants parse.
  EXPECT_GT(parsed, kReplyIterations / 50);
}

// ---------------------------------------------------------------- job

constexpr std::size_t kJobIterations = 2000;

/// What the pool sends scibench_worker: the dispatch of the first two
/// cells of each demo envelope.
std::vector<std::string> job_dispatches() {
  std::vector<std::string> jobs;
  for (const std::string& envelope : demo_envelopes()) {
    const exec::wire::CampaignEnvelope env = exec::wire::parse_campaign_json(envelope);
    const exec::Campaign campaign(env.spec);
    for (std::size_t c = 0; c < 2 && c < campaign.config_count(); ++c) {
      const exec::Config config = campaign.config(c);
      jobs.push_back(
          exec::wire::job_to_json(env.backend, config, campaign.seed_for(config, 0)));
    }
  }
  return jobs;
}

std::string reemit_job(std::string_view text) {
  const exec::wire::JobSpec job = exec::wire::parse_job_json(text);
  return exec::wire::job_to_json(job.backend, job.config, job.seed);
}

TEST(FuzzJob, ParseReEmitsCanonicallyOrThrowsRuntimeError) {
  const std::vector<std::string> corpus = job_dispatches();
  ASSERT_EQ(corpus.size(), 10u) << "could not run " << SCIBENCH_SUBMIT_PATH;
  const std::size_t parsed =
      fuzz_reemit("job", corpus, kJsonAlphabet, kJobIterations, 0x10b5u, reemit_job);
  // A job is a backend and a config of required, typed members; about
  // 2% of mutants parse.
  EXPECT_GT(parsed, kJobIterations / 100);
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
  const std::size_t parsed =
      fuzz_reemit("history", history_lines(), kJsonAlphabet, kHistoryIterations, 0x4157u,
                  [](std::string_view text) {
                    return ci::history_line(ci::parse_history_line(text));
                  });
  // Every member of a line is required and typed, so most edits are
  // refusals; about 3% of mutants parse.
  EXPECT_GT(parsed, kHistoryIterations / 50);
}

// -------------------------------------------------------------- trace

constexpr std::size_t kTraceIterations = 2000;

/// TraceSink output: rank spans carrying mseq/wait_s arguments, an
/// instant, counters, track and process names, and a second sink
/// merged in at another track block.
std::vector<std::string> trace_documents() {
  obs::TraceSink sink;
  sink.set_process_name("fuzz \"trace\"");
  for (int rank = 0; rank < 3; ++rank) {
    sink.set_track_name(rank, "rank " + std::to_string(rank));
    sink.complete(rank, "send", "p2p", 1e-6 * rank, 2.5e-7,
                  {obs::TraceArg{"mseq", rank}, obs::TraceArg{"bytes", 1024}});
    sink.complete(rank, "recv", "p2p", 3e-6 + 1e-7 * rank, 1.0 / 3.0 * 1e-6,
                  {obs::TraceArg{"mseq", rank}, obs::TraceArg{"wait_s", 1e-7}});
  }
  sink.instant(obs::kEngineTrack, "tick", "engine", 4.25e-6, {obs::TraceArg{"n", 7}});
  sink.counter(obs::kHarnessTrack, "inflight", 5e-6, 3.0);
  sink.set_track_name(obs::kWireTrackBase, "wire 0");
  obs::TraceSink merged = sink;
  merged.merge(sink, 100000);
  const obs::TraceSink::WriteOptions fixed{false};
  std::ostringstream one;
  std::ostringstream both;
  sink.write_json(one, fixed);
  merged.write_json(both, fixed);
  return {one.str(), both.str()};
}

/// The microseconds parse_trace reads back as exactly `s` seconds.
double micros(double s) {
  double up = s * 1e6;
  double down = up;
  for (int i = 0; i < 8; ++i) {
    if (up * 1e-6 == s) return up;
    if (down * 1e-6 == s) return down;
    up = std::nextafter(up, HUGE_VAL);
    down = std::nextafter(down, -HUGE_VAL);
  }
  return s * 1e6;  // no exact value: the fixed-point check reports it
}

/// A trace's canonical text: the process and track names, then every
/// event in order with its numeric arguments.
std::string trace_text(const obs::ParsedTrace& trace) {
  namespace json = obs::json;
  std::string out = "{\"traceEvents\": [";
  const auto open = [&out](char phase, int tid, const std::string& name) {
    if (out.back() != '[') out += ", ";
    out += "{\"ph\": ";
    json::append_quoted(out, std::string(1, phase));
    out += ", \"tid\": " + std::to_string(tid) + ", \"name\": ";
    json::append_quoted(out, name);
  };
  const auto label = [&](const char* kind, int tid, const std::string& name) {
    open('M', tid, kind);
    out += ", \"args\": {\"name\": ";
    json::append_quoted(out, name);
    out += "}}";
  };
  if (!trace.process_name.empty()) label("process_name", 0, trace.process_name);
  for (const auto& [tid, name] : trace.track_names) label("thread_name", tid, name);
  for (const obs::ParsedEvent& e : trace.events) {
    open(e.phase, e.tid, e.name);
    out += ", \"cat\": ";
    json::append_quoted(out, e.cat);
    out += ", \"ts\": " + json::dump_number(micros(e.ts_s));
    if (e.phase == 'X') out += ", \"dur\": " + json::dump_number(micros(e.dur_s));
    out += ", \"args\": {";
    for (const auto& [key, value] : e.args) {
      if (out.back() != '{') out += ", ";
      json::append_quoted(out, key);
      out += ": " + json::dump_number(value);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

TEST(FuzzTrace, ParseReEmitsCanonicallyOrThrowsRuntimeError) {
  const std::vector<std::string> corpus = trace_documents();
  for (const std::string& doc : corpus) {  // the seeds parse, and so does their text
    const std::string text = trace_text(obs::parse_trace(doc));
    ASSERT_EQ(trace_text(obs::parse_trace(text)), text);
  }
  rng::Xoshiro256 gen(0x7ace5u);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t iter = 0; iter < kTraceIterations; ++iter) {
    const std::string doc = mutate(corpus, kJsonAlphabet, gen);
    try {
      const std::string text = trace_text(obs::parse_trace(doc));
      ++parsed;
      ASSERT_EQ(trace_text(obs::parse_trace(text)), text) << "iteration " << iter;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << iter << ": parse_trace threw an untyped error: "
                    << e.what();
    }
  }
  std::printf("fuzz_trace: %zu parsed, %zu rejected\n", parsed, rejected);
  EXPECT_GT(parsed, kTraceIterations / 50);
  EXPECT_GT(rejected, kTraceIterations / 20);
}

// -------------------------------------------------------- bench report

constexpr std::size_t kBenchReportIterations = 2000;

/// BENCH_*.json documents: a populated report and an empty one.
std::vector<std::string> bench_reports() {
  obs::BenchReport report;
  report.bench = "fuzz";
  report.git_sha = "h\"ead\n\u0001";
  report.context = {{"build_type", "release"}, {"hardware_concurrency", "4"}};
  const double values[] = {1.25, std::numeric_limits<double>::quiet_NaN(), 1e300, 5e-324,
                           -0.0};
  for (std::size_t i = 0; i < std::size(values); ++i) {
    report.metrics.push_back({"metric_" + std::to_string(i), i % 2 == 0 ? "ms" : "MB/s",
                              i % 2 == 0 ? obs::Improve::kLower : obs::Improve::kHigher,
                              20 + i, values[i], values[i] * 0.99, values[i] * 1.01});
  }
  report.counters = {{"alloc.calls", 0}, {"net.bytes", 1u << 20}};
  return {obs::bench_report_json(report), obs::bench_report_json(obs::BenchReport{})};
}

TEST(FuzzBenchReport, ParseReEmitsCanonicallyOrThrowsRuntimeError) {
  const std::size_t parsed =
      fuzz_reemit("bench_report", bench_reports(), kJsonAlphabet, kBenchReportIterations,
                  0xbe9c4u,
                  [](std::string_view text) {
                    return obs::bench_report_json(obs::parse_bench_report(text));
                  });
  // Every member of a report is required and typed; about 2% of
  // mutants parse.
  EXPECT_GT(parsed, kBenchReportIterations / 100);
}

// ------------------------------------------------------------ progress

constexpr std::size_t kProgressIterations = 2000;

/// Campaign metrics files: a fixed campaign mid-run and a finished
/// sequential one.
std::vector<std::string> progress_snapshots() {
  exec::ProgressSnapshot fixed;
  fixed.campaign = "fuzz \"fixed\"";
  fixed.backend = "sim.pingpong";
  fixed.total_cells = 12;
  fixed.completed = 7;
  fixed.executed = 5;
  fixed.failed = 1;
  fixed.retries = 2;
  fixed.cache_hits = 1;
  fixed.samples_executed = 160;
  fixed.elapsed_s = 0.125;
  fixed.workers = {{4, 0.0625}, {3, 5e-324}};
  fixed.counter_delta = {{"net.bytes", 4096}, {"net.messages", 64}};
  exec::ProgressSnapshot sequential = fixed;
  sequential.campaign = "fuzz-seq";
  sequential.completed = sequential.total_cells;
  sequential.journal_hits = 3;
  sequential.interrupted = 0;
  sequential.samples_total = 384;
  sequential.finished = true;
  sequential.sequential = true;
  sequential.configs_total = 3;
  sequential.configs_converged = 2;
  sequential.configs_capped = 1;
  sequential.rounds = 4;
  sequential.rep_counts = {3, 4, 5};
  return {fixed.to_json(), sequential.to_json(), exec::ProgressSnapshot{}.to_json()};
}

TEST(FuzzProgressSnapshot, ParseReEmitsCanonicallyOrThrowsRuntimeError) {
  const std::size_t parsed =
      fuzz_reemit("progress", progress_snapshots(), kJsonAlphabet, kProgressIterations,
                  0x9a0fu,
                  [](std::string_view text) {
                    return exec::parse_progress_snapshot(text).to_json();
                  });
  // A snapshot has 24 required, typed members; about 1.4% of mutants
  // parse.
  EXPECT_GT(parsed, kProgressIterations / 100);
}

// ------------------------------------------------------------ schedule

constexpr std::size_t kScheduleIterations = 2000;
constexpr int kScheduleRanks = 4;

/// Bytes that matter to a schedule: words of its ops, numbers, comments
/// and line breaks.
constexpr std::string_view kScheduleAlphabet = "\n\n  #0123456789-+.eaillnrk";

std::vector<std::string> schedules() {
  return {"rank 0\ncalc 1e-3\nsend 1 64 7\nrecv 1 7\nrank 1\nrecv 0 7\nsend 0 64 7\n",
          "all\nbarrier\nallreduce\nreduce 2\nrank 0\nrecv any 5\n",
          "# halo\nall\ncalc 0.5\nrank 3\nsend 0 1048576 1\nrank 0\nrecv 3 1\ncalc 0\n"};
}

TEST(FuzzSchedule, ParseKeepsPeersInRangeOrThrowsInvalidArgument) {
  const std::vector<std::string> corpus = schedules();
  rng::Xoshiro256 gen(0x5c4edu);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t iter = 0; iter < kScheduleIterations; ++iter) {
    const std::string doc = mutate(corpus, kScheduleAlphabet, gen);
    try {
      const simmpi::Schedule schedule = simmpi::parse_schedule(doc, kScheduleRanks);
      ++parsed;
      ASSERT_EQ(schedule.per_rank.size(), static_cast<std::size_t>(kScheduleRanks));
      for (const auto& ops : schedule.per_rank) {
        for (const simmpi::Op& op : ops) {
          const bool peered = op.kind == simmpi::OpKind::kSend ||
                              op.kind == simmpi::OpKind::kRecv ||
                              op.kind == simmpi::OpKind::kReduce;
          const bool any = op.kind == simmpi::OpKind::kRecv && op.peer == simmpi::kAnySource;
          if (peered && !any) {
            EXPECT_TRUE(op.peer >= 0 && op.peer < kScheduleRanks)
                << "iteration " << iter << ": peer " << op.peer << "\n" << doc;
          }
          EXPECT_TRUE(std::isfinite(op.seconds) && op.seconds >= 0.0)
              << "iteration " << iter << ": calc " << op.seconds << "\n" << doc;
        }
      }
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << iter << ": parse_schedule threw an untyped error: "
                    << e.what() << "\ndoc: " << doc;
    }
  }
  std::printf("fuzz_schedule: %zu parsed, %zu rejected\n", parsed, rejected);
  EXPECT_GT(parsed, kScheduleIterations / 20);
  EXPECT_GT(rejected, kScheduleIterations / 20);
}

}  // namespace
}  // namespace sci
