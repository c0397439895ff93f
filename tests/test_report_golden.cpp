// Pins scibench_report's stdout byte for byte, in text and --markdown
// mode, on two campaign exports: tests/golden/campaign_samples.csv.golden
// (failed cells, small series) and a generated multimodal export of
// 1000 cells x 32 samples, large enough that the density plot's kernel
// windows, the plots' sorts and the loader's integer-cell path all run
// at the scale of a real campaign. The expected bytes were captured
// from the tool before its report path was rewritten; they are never
// regenerated from the code under test.
//
// The tool runs with the CSV's bare file name from inside a temporary
// directory, so the file name it prints is the same on every host.
// The same binary also checks that the tools refuse malformed numeric
// flags with their usage exit code before any work starts, and that
// `scibench_submit --local` answers like the daemon it stands in for.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "golden_file.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/exec_policy.hpp"

namespace sci {
namespace {

namespace fs = std::filesystem;

struct ToolRun {
  int exit_code = -1;
  std::string out;  ///< stdout only; stderr is discarded
};

/// Runs `tool args` with `dir` as the working directory.
ToolRun run_tool(const fs::path& dir, const std::string& tool, const std::string& args) {
  const std::string command =
      "cd '" + dir.string() + "' && exec '" + tool + "' " + args + " 2>/dev/null";
  ToolRun run;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[65536];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0) run.out.append(buf, got);
  const int status = ::pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

/// A fresh temporary directory per test, removed afterwards.
class ScratchDir {
 public:
  ScratchDir() {
    std::string tmpl = ::testing::TempDir() + "scibench_report_XXXXXX";
    if (::mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    if (!path_.empty()) fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// 1000 cells (250 configs x 4 reps) x 32 samples, values from exact
/// arithmetic on Xoshiro256 draws (no libm). Most cells mix three modes
/// around 1.0, 1.35 and 2.2; every tenth config holds integer "tick"
/// counts 1..3, which take the loader's digits-only path, and one rep
/// of every tenth config is constant (a deterministic series). Every
/// 50th config writes its reps 0 and 1 interleaved row by row, so the
/// regrouping sees keys that do not repeat from one row to the next.
void write_multimodal_export(const fs::path& path) {
  core::Experiment e;
  e.name = "multimodal_grid";
  e.add_factor("kernel", {"a", "b", "c", "d", "e"});
  e.add_factor("size", {"0", "1", "2", "3", "4", "5", "6", "7", "8", "9"});
  core::Dataset ds(e, {"config", "rep", "f_kernel", "f_size", "sample", "value"});
  constexpr std::size_t kConfigs = 250, kReps = 4, kSamples = 32;
  constexpr double kModes[] = {1.0, 1.35, 2.2};
  rng::Xoshiro256 gen(20151115);
  ds.reserve(kConfigs * kReps * kSamples);
  for (std::size_t config = 0; config < kConfigs; ++config) {
    std::vector<std::vector<double>> cells(kReps, std::vector<double>(kSamples));
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      for (double& v : cells[rep]) {
        if (config % 10 == 7) {
          v = 1.0 + static_cast<double>(rng::uniform_below(gen, 3));
        } else if (config % 10 == 9 && rep == 0) {
          v = 2.0;
        } else {
          const double mode = kModes[rng::uniform_below(gen, 3)];
          // One draw per statement: operand evaluation order is unspecified.
          double noise = rng::uniform01(gen);
          noise += rng::uniform01(gen);
          noise += rng::uniform01(gen);
          noise -= 1.5;
          v = (mode + 0.08 * noise) * (1.0 + 0.002 * static_cast<double>(config));
        }
      }
    }
    const auto add = [&](std::size_t rep, std::size_t s) {
      ds.add_row({static_cast<double>(config), static_cast<double>(rep),
                  static_cast<double>(config % 5), static_cast<double>(config / 5 % 10),
                  static_cast<double>(s), cells[rep][s]});
    };
    const bool interleave = config % 50 == 13;
    for (std::size_t rep = interleave ? 2 : 0; rep < kReps; ++rep) {
      for (std::size_t s = 0; s < kSamples; ++s) add(rep, s);
    }
    if (interleave) {
      for (std::size_t s = 0; s < kSamples; ++s) {
        add(0, s);
        add(1, s);
      }
    }
  }
  ds.save_csv(path.string());
}

void copy_golden_csv(const fs::path& to) {
  std::ofstream(to, std::ios::binary) << golden::read_golden("campaign_samples.csv.golden");
}

TEST(ReportGolden, CampaignSamplesText) {
  ScratchDir dir;
  copy_golden_csv(dir.path() / "campaign_samples.csv");
  for (const char* threads : {"1", "4"}) {
    const ToolRun run = run_tool(dir.path(), SCIBENCH_REPORT_PATH,
                                 std::string("--threads ") + threads + " campaign_samples.csv");
    EXPECT_EQ(run.exit_code, 0);
    golden::expect_golden("report_campaign_samples.txt.golden", run.out);
  }
}

TEST(ReportGolden, CampaignSamplesMarkdown) {
  ScratchDir dir;
  copy_golden_csv(dir.path() / "campaign_samples.csv");
  const ToolRun run =
      run_tool(dir.path(), SCIBENCH_REPORT_PATH, "--markdown campaign_samples.csv");
  EXPECT_EQ(run.exit_code, 0);
  golden::expect_golden("report_campaign_samples.md.golden", run.out);
}

TEST(ReportGolden, MultimodalText) {
  ScratchDir dir;
  write_multimodal_export(dir.path() / "multimodal.csv");
  for (const char* threads : {"1", "4"}) {
    const ToolRun run = run_tool(dir.path(), SCIBENCH_REPORT_PATH,
                                 std::string("--threads ") + threads + " multimodal.csv");
    EXPECT_EQ(run.exit_code, 0);
    golden::expect_golden("report_multimodal.txt.golden", run.out);
  }
}

TEST(ReportGolden, MultimodalMarkdown) {
  ScratchDir dir;
  write_multimodal_export(dir.path() / "multimodal.csv");
  const ToolRun run = run_tool(dir.path(), SCIBENCH_REPORT_PATH, "--markdown multimodal.csv");
  EXPECT_EQ(run.exit_code, 0);
  golden::expect_golden("report_multimodal.md.golden", run.out);
}

/// A data file as an older release wrote it with per-sample provenance
/// columns (Dataset::enable_provenance, since removed): the measured
/// columns, then five prov_* counter columns.
constexpr const char* kLegacyProvenanceCsv =
    "# experiment: legacy-provenance\n"
    "# description: a dataset written with Dataset::enable_provenance\n"
    "# env.system: dora\n"
    "rep,value,prov_trace_id,prov_messages,prov_bytes,prov_noise_draws,"
    "prov_harness_overhead_s\n"
    "0,1.25,100,1,64,3,9.9999999999999995e-07\n"
    "1,1.5,101,3,128,3,1.9999999999999999e-06\n"
    "2,1.375,102,5,192,3,3.0000000000000001e-06\n"
    "3,2,103,7,256,3,3.9999999999999998e-06\n"
    "4,1.125,104,9,320,3,4.9999999999999996e-06\n"
    "5,1.75,105,11,384,3,6.0000000000000002e-06\n"
    "6,1.3125,106,13,448,3,6.9999999999999999e-06\n"
    "7,1.625,107,15,512,3,7.9999999999999996e-06\n"
    "8,1.4375,108,17,576,3,9.0000000000000002e-06\n"
    "9,1.5625,109,19,640,3,9.9999999999999991e-06\n";

/// The same file without its prov_* columns.
constexpr const char* kLegacyPlainCsv =
    "# experiment: legacy-provenance\n"
    "# description: a dataset written with Dataset::enable_provenance\n"
    "# env.system: dora\n"
    "rep,value\n"
    "0,1.25\n1,1.5\n2,1.375\n3,2\n4,1.125\n5,1.75\n6,1.3125\n7,1.625\n8,1.4375\n"
    "9,1.5625\n";

TEST(ReportGolden, LegacyProvenanceColumnsStillLoadAndRender) {
  // The prov_* columns are plain data now: the file loads, plain and
  // --strict, and the value column's report is the one the file without
  // them gets (same path, so the printed name is the same too).
  ScratchDir dir;
  const fs::path csv = dir.path() / "legacy.csv";
  std::ofstream(csv, std::ios::binary) << kLegacyPlainCsv;
  const ToolRun plain = run_tool(dir.path(), SCIBENCH_REPORT_PATH, "legacy.csv value");
  ASSERT_EQ(plain.exit_code, 0);
  ASSERT_NE(plain.out.find("column 'value', 10 observations"), std::string::npos)
      << plain.out;

  std::ofstream(csv, std::ios::binary | std::ios::trunc) << kLegacyProvenanceCsv;
  for (const char* args : {"legacy.csv value", "--strict legacy.csv value"}) {
    const ToolRun run = run_tool(dir.path(), SCIBENCH_REPORT_PATH, args);
    EXPECT_EQ(run.exit_code, 0) << args;
    EXPECT_EQ(run.out, plain.out) << args;
  }
  // Without a column argument the last column (a prov_* one) is read.
  const ToolRun last = run_tool(dir.path(), SCIBENCH_REPORT_PATH, "--strict legacy.csv");
  EXPECT_EQ(last.exit_code, 0);
  EXPECT_NE(last.out.find("column 'prov_harness_overhead_s', 10 observations"),
            std::string::npos)
      << last.out;
}

/// Values no numeric flag may take: a negative value, trailing junk, no
/// digits at all, a leading '+' or space.
const std::vector<std::string> kMalformed = {"-1", "4x", "abc", "", "+4", " 4"};
/// Valid doubles that are still no count: an exponent, a fraction, and
/// one past the largest std::size_t.
const std::vector<std::string> kNotACount = {"1e3", "2.5", "18446744073709551616"};

TEST(ToolFlags, ReportRefusesMalformedThreadsBeforeWork) {
  ScratchDir dir;
  copy_golden_csv(dir.path() / "campaign_samples.csv");
  std::vector<std::string> bad = kMalformed;
  bad.insert(bad.end(), kNotACount.begin(), kNotACount.end());
  bad.push_back(std::to_string(stats::kMaxThreads + 1));
  for (const std::string& value : bad) {
    const ToolRun run = run_tool(dir.path(), SCIBENCH_REPORT_PATH,
                                 "--threads '" + value + "' campaign_samples.csv");
    EXPECT_EQ(run.exit_code, 1) << "--threads '" << value << "'";
    EXPECT_EQ(run.out, "") << "--threads '" << value << "' started the report";
  }
}

TEST(ToolFlags, ReportFallsBackOnJunkStoppingPolicyValues) {
  // A hand-edited campaign.stopping line whose quantile or confidence is
  // not in (0, 1), or whose max_reps is no whole count, reports as if
  // the value were the default (0.5, 0.95, 0): it neither aborts nor
  // prints a wrapped cap.
  ScratchDir dir;
  const std::string csv = golden::read_golden("campaign_samples.csv.golden");
  const std::size_t first_line = csv.find('\n') + 1;
  const auto report = [&](const std::string& values) {
    const std::string stopping = "sequential " + values;
    std::ofstream(dir.path() / "edited.csv", std::ios::binary)
        << csv.substr(0, first_line) << "# env.campaign.stopping: " << stopping << "\n"
        << csv.substr(first_line);
    ToolRun run = run_tool(dir.path(), SCIBENCH_REPORT_PATH, "edited.csv");
    // Only what the report derives from the policy text is compared.
    for (std::size_t at; (at = run.out.find(stopping)) != std::string::npos;) {
      run.out.replace(at, stopping.size(), "<policy>");
    }
    return run;
  };
  const ToolRun want = report("quantile=0.5 confidence=0.95 max_reps=0");
  ASSERT_EQ(want.exit_code, 0);
  ASSERT_NE(want.out.find("measurement control: <policy>"), std::string::npos);
  for (const std::string values :
       {"quantile=7 confidence=1 max_reps=-1", "quantile=0 confidence=-0.5 max_reps=3x",
        "quantile=nan confidence=inf max_reps=1e3",
        "quantile=0.5x confidence=+0.95 max_reps=18446744073709551616"}) {
    const ToolRun run = report(values);
    EXPECT_EQ(run.exit_code, 0) << values;
    EXPECT_EQ(run.out, want.out) << values;
  }
}

TEST(ToolFlags, CiRefusesMalformedNumbersBeforeWork) {
  ScratchDir dir;
  const std::string check = "check --history history.jsonl ";
  // Without a bad flag the same command succeeds, so exit 1 below is
  // the refusal and not, say, the missing history file.
  const ToolRun ok = run_tool(dir.path(), SCIBENCH_CI_PATH, check);
  ASSERT_EQ(ok.exit_code, 0) << "an empty history checks clean";
  std::vector<std::string> args;
  for (const std::string flag : {"--threads", "--baseline-window", "--min-points"}) {
    for (const auto* values : {&kMalformed, &kNotACount}) {
      for (const std::string& value : *values) args.push_back(flag + " '" + value + "'");
    }
  }
  for (const std::string flag : {"--min-effect", "--alpha"}) {
    for (const std::string& value : kMalformed) args.push_back(flag + " '" + value + "'");
    args.push_back(flag + " nan");
    args.push_back(flag + " inf");
  }
  args.push_back("--alpha 1.5");
  args.push_back("--threads " + std::to_string(stats::kMaxThreads + 1));
  for (const std::string& arg : args) {
    const ToolRun run = run_tool(dir.path(), SCIBENCH_CI_PATH, check + arg);
    EXPECT_EQ(run.exit_code, 1) << arg;
    EXPECT_EQ(run.out, "") << arg << " started the check";
  }
}

TEST(ToolFlags, TraceRefusesMalformedNumbersBeforeWork) {
  ScratchDir dir;
  std::vector<std::string> args;
  for (const std::string flag : {"--ranks", "--seed"}) {
    for (const auto* values : {&kMalformed, &kNotACount}) {
      for (const std::string& value : *values) args.push_back(flag + " '" + value + "'");
    }
  }
  args.push_back("--ranks 0");
  args.push_back("--ranks 4097");
  for (const std::string& arg : args) {
    const ToolRun run =
        run_tool(dir.path(), SCIBENCH_TRACE_PATH, "--emit-demo demo.trace.json " + arg);
    EXPECT_EQ(run.exit_code, 2) << arg;
    EXPECT_EQ(run.out, "") << arg;
    EXPECT_FALSE(fs::exists(dir.path() / "demo.trace.json")) << arg << " ran the demo";
  }
}

TEST(ToolFlags, DaemonRefusesMalformedWorkersBeforeListening) {
  // An accepted value would start a daemon that runs until killed: the
  // timeout turns that into a failure here instead of a hang.
  ScratchDir dir;
  std::vector<std::string> values = kMalformed;
  values.insert(values.end(), kNotACount.begin(), kNotACount.end());
  values.push_back("0");
  values.push_back("257");
  for (const std::string& value : values) {
    const ToolRun run = run_tool(dir.path(), "timeout",
                                 std::string("10 '") + SCIBENCHD_PATH +
                                     "' --socket d.sock --workers '" + value + "'");
    EXPECT_EQ(run.exit_code, 2) << "--workers '" << value << "'";
    EXPECT_FALSE(fs::exists(dir.path() / "d.sock")) << "--workers '" << value << "' listened";
  }
}

/// Writes the `--emit-demo pingpong` envelope, its "replications" set
/// to `replications`, to `dir`/`file`.
void write_pingpong_envelope(const fs::path& dir, const std::string& file,
                             const std::string& replications) {
  std::string envelope = run_tool(dir, SCIBENCH_SUBMIT_PATH, "--emit-demo pingpong").out;
  const std::string member = "\"replications\": 5,";
  const std::size_t at = envelope.find(member);
  ASSERT_NE(at, std::string::npos) << envelope;
  envelope.replace(at, member.size(), "\"replications\": " + replications + ",");
  std::ofstream(dir / file, std::ios::binary) << envelope;
}

TEST(ToolFlags, SubmitLocalRejectsAnInvalidSpecLikeTheDaemon) {
  // The daemon answers a spec its Campaign refuses with one "rejected"
  // event and scibench_submit exits 2; --local runs the same job body.
  ScratchDir dir;
  write_pingpong_envelope(dir.path(), "r0.line", "0");
  const ToolRun run = run_tool(dir.path(), SCIBENCH_SUBMIT_PATH, "--local --campaign r0.line");
  EXPECT_EQ(run.exit_code, 2);
  ASSERT_EQ(std::count(run.out.begin(), run.out.end(), '\n'), 1) << run.out;
  EXPECT_EQ(run.out.rfind("{\"event\": \"rejected\", \"job\": 1, ", 0), 0u) << run.out;
}

TEST(ToolFlags, SubmitLocalHonoursHeartbeat) {
  // 600 cells of 200 samples run for well over a millisecond, so a
  // 1 ms heartbeat fires at least once before the terminal event.
  ScratchDir dir;
  write_pingpong_envelope(dir.path(), "big.line", "200");
  const ToolRun run = run_tool(dir.path(), SCIBENCH_SUBMIT_PATH,
                               "--local --heartbeat 0.001 --campaign big.line");
  EXPECT_EQ(run.exit_code, 0);
  const std::size_t progress = run.out.find("\"event\": \"progress\"");
  const std::size_t done = run.out.find("\"event\": \"done\"");
  ASSERT_NE(done, std::string::npos) << run.out.substr(0, 400);
  EXPECT_LT(progress, done) << "no progress event before done";
}

}  // namespace
}  // namespace sci
