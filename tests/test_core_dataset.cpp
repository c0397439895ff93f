#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "csv_corpus.hpp"

namespace sci::core {
namespace {

Experiment make_experiment() {
  Experiment e;
  e.name = "latency_sweep";
  e.set("machine", "dora-sim");
  e.add_factor("bytes", {"64", "4096"});
  return e;
}

TEST(Dataset, StoresRowsAndColumns) {
  Dataset ds(make_experiment(), {"bytes", "latency_us"});
  ds.add_row({64.0, 1.7});
  ds.add_row({4096.0, 2.4});
  EXPECT_EQ(ds.rows(), 2u);
  EXPECT_EQ(ds.column("latency_us"), (std::vector<double>{1.7, 2.4}));
  EXPECT_EQ(ds.row(1)[0], 4096.0);
}

TEST(Dataset, ArityAndColumnErrors) {
  Dataset ds(make_experiment(), {"a", "b"});
  EXPECT_THROW(ds.add_row({1.0}), std::invalid_argument);
  EXPECT_THROW(ds.column("missing"), std::out_of_range);
  EXPECT_THROW(Dataset(make_experiment(), {}), std::invalid_argument);
}

TEST(Dataset, CsvHeaderEmbedsExperiment) {
  Dataset ds(make_experiment(), {"x"});
  ds.add_row({1.0});
  std::ostringstream os;
  ds.write_csv(os);
  const auto text = os.str();
  EXPECT_NE(text.find("# experiment: latency_sweep"), std::string::npos);
  EXPECT_NE(text.find("# env.machine: dora-sim"), std::string::npos);
  EXPECT_NE(text.find("# factor.bytes: 64 4096"), std::string::npos);
  EXPECT_NE(text.find("x\n"), std::string::npos);
}

TEST(Dataset, RoundTripThroughFile) {
  const std::string path = ::testing::TempDir() + "/scibench_roundtrip.csv";
  {
    Dataset ds(make_experiment(), {"bytes", "latency_us"});
    ds.add_row({64.0, 1.6625});
    ds.add_row({128.0, 1.75});
    ds.add_row({4096.0, 2.875});
    ds.save_csv(path);
  }
  const auto loaded = Dataset::load_csv(path);
  EXPECT_EQ(loaded.rows(), 3u);
  EXPECT_EQ(loaded.columns(), (std::vector<std::string>{"bytes", "latency_us"}));
  EXPECT_DOUBLE_EQ(loaded.column("latency_us")[2], 2.875);
  // Provenance preserved in description.
  EXPECT_NE(loaded.experiment().description.find("latency_sweep"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Dataset, FullPrecisionRoundTrip) {
  const std::string path = ::testing::TempDir() + "/scibench_precision.csv";
  const double value = 1.0 / 3.0;
  {
    Dataset ds(make_experiment(), {"v"});
    ds.add_row({value});
    ds.save_csv(path);
  }
  const auto loaded = Dataset::load_csv(path);
  EXPECT_EQ(loaded.column("v")[0], value);  // bit-exact via %.17g
  std::remove(path.c_str());
}

TEST(Dataset, LoadMissingFileThrows) {
  EXPECT_THROW(Dataset::load_csv("/nonexistent/nope.csv"), std::runtime_error);
}

namespace {

std::string write_temp(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream os(path);
  os << body;
  return path;
}

std::string load_error(const std::string& path) {
  try {
    (void)Dataset::load_csv(path);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST(Dataset, MalformedCellReportsFileLineAndColumn) {
  const std::string path =
      write_temp("scibench_malformed.csv", "# comment\na,b\n1,2\n3,oops\n");
  const std::string what = load_error(path);
  std::remove(path.c_str());
  EXPECT_NE(what.find(path), std::string::npos) << what;
  EXPECT_NE(what.find(":4:"), std::string::npos) << what;  // 1-based line
  EXPECT_NE(what.find("column 2"), std::string::npos) << what;
  EXPECT_NE(what.find("'oops'"), std::string::npos) << what;
}

TEST(Dataset, TrailingGarbageAfterNumberIsMalformed) {
  const std::string path = write_temp("scibench_trailing.csv", "a\n1.5x\n");
  const std::string what = load_error(path);
  std::remove(path.c_str());
  EXPECT_NE(what.find("'1.5x'"), std::string::npos) << what;
}

TEST(Dataset, RowArityMismatchReportsLine) {
  const std::string path = write_temp("scibench_arity.csv", "a,b\n1,2\n3\n");
  const std::string what = load_error(path);
  std::remove(path.c_str());
  EXPECT_NE(what.find(":3:"), std::string::npos) << what;
  EXPECT_NE(what.find("expected 2 cells, got 1"), std::string::npos) << what;
}

TEST(Dataset, AcceptsInfNanAndWhitespaceAndCrlf) {
  const std::string path =
      write_temp("scibench_lenient.csv", "a,b\r\n 1 ,\tinf\r\n-2,nan\r\n");
  const auto loaded = Dataset::load_csv(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.rows(), 2u);
  EXPECT_EQ(loaded.column("a"), (std::vector<double>{1.0, -2.0}));
  EXPECT_TRUE(std::isinf(loaded.column("b")[0]));
  EXPECT_TRUE(std::isnan(loaded.column("b")[1]));
}

// ------------------------------------------------ CSV format contract

std::string csv_text(const Dataset& ds) {
  std::ostringstream os;
  ds.write_csv(os);
  return os.str();
}

TEST(Dataset, CsvBytesMatchPrintf17g) {
  std::vector<double> values = csv_corpus::csv_special_values();
  const auto random = csv_corpus::csv_random_values(100000, 0x17c5u);
  values.insert(values.end(), random.begin(), random.end());
  // Three columns so the separators are pinned too.
  const std::vector<std::string> cols = {"a", "b", "c"};
  while (values.size() % cols.size() != 0) values.push_back(0.0);

  Dataset ds(make_experiment(), cols);
  const std::string header = csv_text(ds);  // comment block + column names
  std::string expected = header;
  char buf[64];
  for (std::size_t i = 0; i < values.size(); i += cols.size()) {
    ds.add_row({values[i], values[i + 1], values[i + 2]});
    for (std::size_t c = 0; c < cols.size(); ++c) {
      std::snprintf(buf, sizeof buf, "%.17g", values[i + c]);
      expected += buf;
      expected += c + 1 < cols.size() ? ',' : '\n';
    }
  }
  const std::string got = csv_text(ds);
  ASSERT_EQ(got.size(), expected.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i) mismatches += got[i] != expected[i];
  EXPECT_EQ(mismatches, 0u);
  EXPECT_TRUE(got == expected);
}

TEST(Dataset, LoadGrammarCrlfLineEndings) {
  const std::string path =
      write_temp("scibench_grammar_crlf.csv", "# c\r\na,b\r\n1,2\r\n3,4\r\n");
  const auto loaded = Dataset::load_csv(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.columns(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(loaded.column("a"), (std::vector<double>{1.0, 3.0}));
  EXPECT_EQ(loaded.column("b"), (std::vector<double>{2.0, 4.0}));
  // Comment text is kept verbatim, carriage return included.
  EXPECT_EQ(loaded.experiment().description, "c\r\n");
  EXPECT_EQ(loaded.experiment().name, "loaded:" + path);
}

TEST(Dataset, LoadGrammarTrailingCommaEndsTheRow) {
  // `1,2,` is two cells, in the header and in data rows alike ...
  const std::string ok = write_temp("scibench_grammar_comma.csv", "a,b,\n1,2,\n");
  const auto loaded = Dataset::load_csv(ok);
  std::remove(ok.c_str());
  EXPECT_EQ(loaded.columns(), (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(loaded.rows(), 1u);
  EXPECT_EQ(loaded.column("b"), (std::vector<double>{2.0}));
  // ... but only one trailing comma is forgiven.
  const std::string bad = write_temp("scibench_grammar_commas.csv", "a,b\n1,2,,\n");
  EXPECT_EQ(load_error(bad),
            "Dataset::load_csv: " + bad + ":2: column 3: malformed numeric cell ''");
  std::remove(bad.c_str());
}

TEST(Dataset, LoadGrammarSkipsBlankAndCommentLinesBetweenRows) {
  const std::string path = write_temp("scibench_grammar_blank.csv",
                                      "# head\n\na\n1\n\n# note\n2\n\n#\n3\n");
  const auto loaded = Dataset::load_csv(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.column("a"), (std::vector<double>{1.0, 2.0, 3.0}));
  // Only comments before the column names become the description.
  EXPECT_EQ(loaded.experiment().description, "head\n");
}

TEST(Dataset, LoadGrammarSpaceAndTabPadding) {
  const std::string path =
      write_temp("scibench_grammar_pad.csv", "a,b\n 1 ,\t2\t\n  -3\t, 4 \t \n");
  const auto loaded = Dataset::load_csv(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.column("a"), (std::vector<double>{1.0, -3.0}));
  EXPECT_EQ(loaded.column("b"), (std::vector<double>{2.0, 4.0}));
}

TEST(Dataset, LoadGrammarNoFinalNewline) {
  const std::string path = write_temp("scibench_grammar_eof.csv", "a,b\n1,2\n3,4");
  const auto loaded = Dataset::load_csv(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.column("b"), (std::vector<double>{2.0, 4.0}));
}

TEST(Dataset, LoadGrammarExactErrorTexts) {
  const std::string empty_cell = write_temp("scibench_grammar_empty.csv", "a,b\n1,2\n,3\n");
  EXPECT_EQ(load_error(empty_cell),
            "Dataset::load_csv: " + empty_cell + ":3: column 1: malformed numeric cell ''");
  std::remove(empty_cell.c_str());

  const std::string arity =
      write_temp("scibench_grammar_arity.csv", "a,b\n1,2\n# c\n3,4,5\n");
  EXPECT_EQ(load_error(arity),
            "Dataset::load_csv: " + arity + ":4: expected 2 cells, got 3");
  std::remove(arity.c_str());

  // A malformed cell wins over the arity mismatch on the same row.
  const std::string both = write_temp("scibench_grammar_both.csv", "a\n1,x\n");
  EXPECT_EQ(load_error(both),
            "Dataset::load_csv: " + both + ":2: column 2: malformed numeric cell 'x'");
  std::remove(both.c_str());
}

TEST(Dataset, WriteThenLoadRoundTripsEveryCorpusValue) {
  std::vector<double> values = csv_corpus::csv_special_values();
  const auto random = csv_corpus::csv_random_values(2000, 0x5eedu);
  values.insert(values.end(), random.begin(), random.end());
  Dataset ds(make_experiment(), {"v"});
  for (double v : values) ds.add_row({v});
  const std::string path = ::testing::TempDir() + "/scibench_corpus_roundtrip.csv";
  ds.save_csv(path);
  const auto loaded = Dataset::load_csv(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.rows(), values.size());
  const auto back = loaded.column("v");
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (std::isnan(values[i])) {
      EXPECT_TRUE(std::isnan(back[i])) << i;
    } else {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
                std::bit_cast<std::uint64_t>(values[i]))
          << i << ": " << values[i];
    }
  }
}

// Load errors are std::runtime_error naming the file and line, never a
// bare std::invalid_argument from the constructor.
std::string typed_load_error(const std::string& path) {
  try {
    (void)Dataset::load_csv(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  } catch (const std::exception& e) {
    return std::string("untyped: ") + e.what();
  }
  return "";
}

TEST(Dataset, LoadEmptyOrCommentOnlyFileIsATypedErrorWithPath) {
  const std::string empty = write_temp("scibench_empty.csv", "");
  EXPECT_EQ(typed_load_error(empty),
            "Dataset::load_csv: " + empty +
                ":1: no column names (the file is empty or only comments)");
  std::remove(empty.c_str());

  const std::string comments = write_temp("scibench_comments.csv", "# a\n\n# b\n");
  EXPECT_EQ(typed_load_error(comments),
            "Dataset::load_csv: " + comments +
                ":3: no column names (the file is empty or only comments)");
  std::remove(comments.c_str());
}

TEST(Dataset, LoadHeaderNameWithBareCarriageReturnIsATypedError) {
  const std::string path = write_temp("scibench_bare_cr.csv", "# c\na\rb,c\n1,2\n");
  const std::string what = typed_load_error(path);
  std::remove(path.c_str());
  EXPECT_EQ(what.rfind("Dataset::load_csv: " + path + ":2: ", 0), 0u) << what;
  EXPECT_NE(what.find("contains a comma or newline"), std::string::npos) << what;
}

TEST(Dataset, RejectsDuplicateColumnNames) {
  EXPECT_THROW(Dataset(make_experiment(), {"a", "b", "a"}), std::invalid_argument);
  // A user column that shadows a provenance column is a duplicate too.
  Dataset shadow(make_experiment(), {obs::provenance_columns().front()});
  EXPECT_THROW(shadow.enable_provenance(), std::invalid_argument);
  EXPECT_FALSE(shadow.provenance_enabled());

  const std::string path = write_temp("scibench_dup.csv", "a,a\n1,2\n");
  const std::string what = typed_load_error(path);
  std::remove(path.c_str());
  EXPECT_EQ(what, "Dataset::load_csv: " + path + ":1: Dataset: duplicate column name 'a'");
}

TEST(Dataset, RowIsAViewOfOneRow) {
  Dataset ds(make_experiment(), {"a", "b"});
  ds.reserve(2);
  ds.add_row({1.0, 2.0});
  const std::vector<double> second = {3.0, 4.0};
  ds.add_row(second);
  ASSERT_EQ(ds.rows(), 2u);
  EXPECT_EQ(ds.row(1).size(), 2u);
  EXPECT_EQ(ds.row(1)[0], 3.0);
  EXPECT_EQ(ds.row(0)[1], 2.0);
  EXPECT_THROW((void)ds.row(2), std::out_of_range);
}

TEST(Dataset, RejectsColumnNamesThatBreakCsv) {
  EXPECT_THROW(Dataset(make_experiment(), {"a,b"}), std::invalid_argument);
  EXPECT_THROW(Dataset(make_experiment(), {"a\nb"}), std::invalid_argument);
}

TEST(HeaderEscaping, RoundTripsControlCharacters) {
  const std::string nasty = "path\\x, with, commas\nand a\rCR";
  EXPECT_EQ(unescape_header_text(escape_header_text(nasty)), nasty);
  EXPECT_EQ(escape_header_text(nasty).find('\n'), std::string::npos);
  EXPECT_EQ(escape_header_text(nasty).find('\r'), std::string::npos);
  EXPECT_EQ(escape_header_text("plain"), "plain");
}

TEST(HeaderEscaping, EnvValuesWithNewlinesSurviveCsvRoundTrip) {
  Experiment e;
  e.name = "escaped";
  // Once upon a time this newline spilled into an unprefixed CSV line
  // and the file came back unreadable.
  e.set("cmdline", "./bench --flags=a,b\n--second-line");
  const std::string path = ::testing::TempDir() + "/scibench_escaped.csv";
  {
    Dataset ds(e, {"v"});
    ds.add_row({1.0});
    ds.save_csv(path);
  }
  // Every header line is '#'-prefixed; the data parses.
  std::ifstream is(path);
  std::string line;
  std::size_t header_lines = 0;
  while (std::getline(is, line)) {
    if (!line.empty() && line[0] == '#') ++header_lines;
    EXPECT_TRUE(line.empty() || line[0] == '#' || line.find("cmdline") == std::string::npos)
        << "unescaped header spill: " << line;
  }
  EXPECT_GT(header_lines, 0u);
  const auto loaded = Dataset::load_csv(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.rows(), 1u);
  EXPECT_NE(loaded.experiment().description.find("\\n--second-line"), std::string::npos)
      << loaded.experiment().description;
}

TEST(Dataset, SaveCsvToUnwritablePathThrows) {
  Dataset ds(make_experiment(), {"v"});
  ds.add_row({1.0});
  EXPECT_THROW(ds.save_csv("/nonexistent-dir/out.csv"), std::runtime_error);
}

}  // namespace
}  // namespace sci::core
