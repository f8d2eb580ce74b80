// Flight recorder dump format, exercised through the DumpNow test hook
// (the fatal-signal path itself is covered end-to-end by
// tools/check_metrics_endpoint.py flight in CI — a unit test can't
// SIGSEGV its own process and keep running).

#include "obs/flight_recorder.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>

#include "obs/audit_ledger.h"
#include "obs/json_util.h"
#include "obs/metrics.h"

namespace atmx {
namespace {

using obs::FlightRecorder;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(FlightRecorderTest, DumpNowWithoutInstallFails) {
  FlightRecorder& recorder = FlightRecorder::Global();
  ASSERT_FALSE(recorder.installed());
  EXPECT_FALSE(recorder.DumpNow("too early").ok());
}

TEST(FlightRecorderTest, InstallRejectsOverlongPathAndDoubleInstall) {
  FlightRecorder& recorder = FlightRecorder::Global();
  FlightRecorder::Options options;
  options.output_dir = std::string(600, 'x');
  EXPECT_FALSE(recorder.Install(options).ok());
  EXPECT_FALSE(recorder.installed());

  options.output_dir = ::testing::TempDir();
  ASSERT_TRUE(recorder.Install(options).ok());
  EXPECT_TRUE(recorder.installed());
  EXPECT_FALSE(recorder.Install(options).ok());  // already installed
  recorder.Uninstall();
  recorder.Uninstall();  // idempotent
  EXPECT_FALSE(recorder.installed());
}

TEST(FlightRecorderTest, DumpNowWritesParseableSchemaCompleteJson) {
  FlightRecorder& recorder = FlightRecorder::Global();
  FlightRecorder::Options options;
  options.output_dir = ::testing::TempDir();
  ASSERT_TRUE(recorder.Install(options).ok());

  // Give the dump something to carry: a metric and a decision record.
  obs::MetricsRegistry::Global()
      .GetCounter("flight_test.events")
      .Add(7);
  obs::AuditLedger& ledger = obs::AuditLedger::Global();
  obs::ReprAuditRecord record;
  record.op = ledger.NextOpId();
  record.ti = 3;
  ledger.RecordRepr(record);

  const std::string path = recorder.DumpPath();
  EXPECT_NE(path.find("atmx_flight_"), std::string::npos);
  EXPECT_NE(path.find(std::to_string(::getpid())), std::string::npos);

  ASSERT_TRUE(recorder.DumpNow("unit \"test\"").ok());
  const std::string dump = ReadFile(path);
  ASSERT_FALSE(dump.empty());
  std::string error;
  EXPECT_TRUE(obs::JsonWellFormed(dump, &error)) << error;
  EXPECT_NE(dump.find("\"flight_schema\":1"), std::string::npos);
  EXPECT_NE(dump.find("\"signal\":0"), std::string::npos);
  // The reason round-trips JSON-escaped.
  EXPECT_NE(dump.find("\"reason\":\"unit \\\"test\\\"\""),
            std::string::npos);
  EXPECT_NE(dump.find("\"mem_high_water_bytes\":"), std::string::npos);
  EXPECT_NE(dump.find("\"flight_test.events\""), std::string::npos);
  EXPECT_NE(dump.find("\"decisions\":[{\"op\":"), std::string::npos);
  EXPECT_NE(dump.find("\"ti\":3,"), std::string::npos);
  EXPECT_NE(dump.find("\"traceEvents\""), std::string::npos);

  recorder.Uninstall();
  ledger.Clear();
}

TEST(FlightRecorderTest, RefreshIsANoOpBeforeInstall) {
  FlightRecorder& recorder = FlightRecorder::Global();
  ASSERT_FALSE(recorder.installed());
  recorder.Refresh();  // must not crash or allocate a dump path
  EXPECT_FALSE(recorder.DumpNow("still not installed").ok());
}

}  // namespace
}  // namespace atmx
