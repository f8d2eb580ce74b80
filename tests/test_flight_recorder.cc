// Flight recorder dump format, exercised through the DumpNow test hook,
// and the crash path: calling the installed check-failure hook writes the
// published body exactly as a fatal signal or failed ATMX_CHECK does.
// Signal delivery itself is covered end to end by
// tools/check_metrics_endpoint.py flight.

#include "obs/flight_recorder.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/check.h"
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
  options.refresh_period = std::chrono::milliseconds(0);
  EXPECT_FALSE(recorder.Install(options).ok());
  EXPECT_FALSE(recorder.installed());

  options.refresh_period = std::chrono::milliseconds(10);
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
  ReprAuditRecord record;
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

TEST(FlightRecorderTest, RefreshKeepsDumpFreshWithoutStatsPort) {
  FlightRecorder& recorder = FlightRecorder::Global();
  FlightRecorder::Options options;
  options.output_dir = ::testing::TempDir();
  options.refresh_period = std::chrono::milliseconds(10);
  ASSERT_TRUE(recorder.Install(options).ok());

  // State that appears after Install: only a refresh can carry it.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& bumped = registry.GetCounter("flight_test.after_install");
  bumped.Add(5);
  obs::Counter& refreshes = registry.GetCounter("flight.refreshes");
  const std::uint64_t start = refreshes.Value();
  // Two ticks past the bump guarantee one full render after it; the
  // deadline only guards a stalled host.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (refreshes.Value() < start + 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(options.refresh_period);
  }

  // Write the dump the way a crash does: the installed check-failure hook
  // writes the published body without re-rendering.
  const internal::CheckFailureHook hook =
      internal::SetCheckFailureHook(nullptr);
  internal::SetCheckFailureHook(hook);
  ASSERT_NE(hook, nullptr);
  hook();
  recorder.Uninstall();

  Result<obs::JsonValue> dump = obs::ParseJson(ReadFile(recorder.DumpPath()));
  ASSERT_TRUE(dump.ok()) << dump.status().message();
  EXPECT_EQ(dump.value().StringOr("reason", ""), "check");
  const obs::JsonValue* metrics = dump.value().Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_DOUBLE_EQ(metrics->NumberOr("flight_test.after_install", 0.0),
                   static_cast<double>(bumped.Value()));
  EXPECT_GE(metrics->NumberOr("flight.refreshes", 0.0), 1.0);
}

TEST(FlightRecorderTest, RefreshIsANoOpBeforeInstall) {
  FlightRecorder& recorder = FlightRecorder::Global();
  ASSERT_FALSE(recorder.installed());
  recorder.Refresh();  // must not crash or allocate a dump path
  EXPECT_FALSE(recorder.DumpNow("still not installed").ok());
}

}  // namespace
}  // namespace atmx
