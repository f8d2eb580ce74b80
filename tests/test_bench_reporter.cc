// BenchReporter: machine-readable report round-trip. The emitted JSON is
// validated by running tools/compare_bench.py against it (the tool's
// loader enforces the schema), which also exercises the regression-gate
// verdicts end to end: self-compare passes, a current-only case fails
// without --allow-missing-baseline.

#include "bench/bench_common.h"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace atmx::bench {
namespace {

#if !defined(ATMX_TOOLS_DIR)
#error "tests/CMakeLists.txt must define ATMX_TOOLS_DIR"
#endif

bool Python3Available() {
  static const bool available =
      std::system("python3 -c 'pass' > /dev/null 2>&1") == 0;
  return available;
}

int RunCompareBench(const std::string& args) {
  const std::string command = std::string("python3 ") + ATMX_TOOLS_DIR +
                              "/compare_bench.py " + args +
                              " > /dev/null 2>&1";
  const int status = std::system(command.c_str());
  return status < 0 ? status : WEXITSTATUS(status);
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(BenchReporterTest, UnarmedFallsBackToPlainMeasurement) {
  BenchReporter& reporter = BenchReporter::Global();
  reporter.Clear();
  ASSERT_FALSE(reporter.armed()) << "another test armed the reporter first";
  int calls = 0;
  const double seconds = reporter.MeasureCase("unarmed.case", [&] {
    ++calls;
  });
  EXPECT_GE(seconds, 0.0);
  EXPECT_GE(calls, 1);
  reporter.AddSample("unarmed.sample", 0.25);
  // Nothing was recorded: the report has no cases.
  EXPECT_NE(reporter.ToJson().find("\"cases\":[]"), std::string::npos);
}

TEST(BenchReporterTest, ReportContainsSchemaConfigAndCases) {
  BenchReporter& reporter = BenchReporter::Global();
  reporter.Clear();
  BenchEnv env;
  env.scale = 0.5;
  reporter.Configure("unit_bench", env);
  reporter.ArmOutput(TempPath("bench_reporter_unit.json"));

  reporter.MeasureCase("case.measured", [] {
    volatile int x = 0;
    for (int i = 0; i < 1000; ++i) x = x + i;
    (void)x;
  });
  reporter.AddSample("case.oneshot", 0.125);

  const std::string json = reporter.ToJson();
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"bench\":\"unit_bench\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\":"), std::string::npos);
  EXPECT_NE(json.find("\"scale\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"case.measured\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"case.oneshot\""), std::string::npos);
  EXPECT_NE(json.find("\"median\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  // The one-shot sample is recorded verbatim.
  EXPECT_NE(json.find("\"samples\":[0.125]"), std::string::npos);
  reporter.Clear();
}

TEST(BenchReporterTest, CompareBenchAcceptsAndGatesTheReport) {
  if (!Python3Available()) GTEST_SKIP() << "python3 not on PATH";

  BenchReporter& reporter = BenchReporter::Global();
  reporter.Clear();
  BenchEnv env;
  reporter.Configure("gate_bench", env);
  const std::string baseline = TempPath("bench_gate_baseline.json");
  const std::string current = TempPath("bench_gate_current.json");
  reporter.ArmOutput(baseline);

  reporter.AddSample("shared.case", 0.100);
  ASSERT_TRUE(reporter.WriteJson(baseline));

  // Self-compare: schema accepted, every case OK, exit 0.
  EXPECT_EQ(RunCompareBench(baseline + " " + baseline), 0);

  // A current-only case: rejected by default, tolerated with the flag.
  reporter.AddSample("current.only", 0.050);
  ASSERT_TRUE(reporter.WriteJson(current));
  EXPECT_EQ(RunCompareBench(baseline + " " + current), 1);
  EXPECT_EQ(RunCompareBench(baseline + " " + current +
                            " --allow-missing-baseline"),
            0);
  // The reverse direction is a missing case: always an error.
  EXPECT_EQ(RunCompareBench(current + " " + baseline +
                            " --allow-missing-baseline"),
            1);

  // A corrupted report is a usage error (exit 2), not a crash.
  const std::string broken = TempPath("bench_gate_broken.json");
  {
    std::ofstream out(broken);
    out << "{\"schema_version\": 99}";
  }
  EXPECT_EQ(RunCompareBench(baseline + " " + broken), 2);

  EXPECT_FALSE(ReadFile(baseline).empty());
  reporter.Clear();
}

}  // namespace
}  // namespace atmx::bench
