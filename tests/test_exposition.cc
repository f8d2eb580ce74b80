// Exposition layer: OpenMetrics name mangling and rendering, and the flat
// JSON metrics document (MetricsRegistry::ToJson delegate, read back by
// `atmx watch` through ParseJson).

#include "obs/exposition.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/json_util.h"
#include "obs/metrics.h"

namespace atmx {
namespace {

using obs::MangleMetricName;
using obs::MetricsRegistry;
using obs::RenderMetricsJson;
using obs::RenderOpenMetrics;

// --- Name mangling. -------------------------------------------------------

TEST(MangleMetricNameTest, CleanNamesPassThrough) {
  EXPECT_EQ(MangleMetricName("threadpool_steals"), "threadpool_steals");
  EXPECT_EQ(MangleMetricName("a:b_C9"), "a:b_C9");
}

TEST(MangleMetricNameTest, DotsBecomeUnderscores) {
  EXPECT_EQ(MangleMetricName("atmult.kernel.spspd_gemm.invocations"),
            "atmult_kernel_spspd_gemm_invocations");
}

TEST(MangleMetricNameTest, ForeignCharsAndLeadingDigit) {
  EXPECT_EQ(MangleMetricName("1st.pass-rate %"), "_1st_pass_rate__");
  EXPECT_EQ(MangleMetricName(""), "");
}

// --- OpenMetrics rendering. -----------------------------------------------

TEST(RenderOpenMetricsTest, CounterAndGaugeLines) {
  MetricsRegistry registry;
  registry.GetCounter("test.ops").Add(42);
  registry.GetGauge("test.level").Set(2.5);
  const std::string text = RenderOpenMetrics(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE test_level gauge\ntest_level 2.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_ops counter\ntest_ops_total 42\n"),
            std::string::npos);
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
}

TEST(RenderOpenMetricsTest, HistogramBucketsAreCumulativeEndingAtCount) {
  MetricsRegistry registry;
  obs::Histogram& hist =
      registry.GetHistogram("test.hist", {1.0, 10.0, 100.0});
  hist.Observe(0.5);    // bucket 0
  hist.Observe(5.0);    // bucket 1
  hist.Observe(50.0);   // bucket 2
  hist.Observe(500.0);  // overflow
  const std::string text = RenderOpenMetrics(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE test_hist histogram\n"), std::string::npos);
  EXPECT_NE(text.find("test_hist_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("test_hist_bucket{le=\"10\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("test_hist_bucket{le=\"100\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_hist_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_hist_count 4\n"), std::string::npos);
  EXPECT_NE(text.find("test_hist_sum 555.5\n"), std::string::npos);
}

TEST(RenderOpenMetricsTest, EmptySnapshotIsJustEof) {
  EXPECT_EQ(RenderOpenMetrics({}), "# EOF\n");
}

// --- Flat JSON rendering (ToJson delegate). -------------------------------

TEST(RenderMetricsJsonTest, EmptyRegistryRendersEmptyObject) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.ToJson(), "{}");
}

TEST(RenderMetricsJsonTest, NamesAreJsonEscaped) {
  MetricsRegistry registry;
  registry.GetCounter("weird\"name\\with.quotes").Add(7);
  const std::string json = registry.ToJson();
  std::string error;
  EXPECT_TRUE(obs::JsonWellFormed(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"weird\\\"name\\\\with.quotes\":7"),
            std::string::npos);
}

TEST(RenderMetricsJsonTest, ZeroObservationHistogramIsWellFormed) {
  MetricsRegistry registry;
  registry.GetHistogram("test.empty_hist", {1.0, 2.0});
  const std::string json = registry.ToJson();
  std::string error;
  EXPECT_TRUE(obs::JsonWellFormed(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"test.empty_hist\":{\"count\":0,\"sum\":0,"
                      "\"bounds\":[1,2],\"buckets\":[0,0,0]}"),
            std::string::npos);
  // The OpenMetrics view of the same snapshot must also hold together:
  // an all-zero cumulative series ending at +Inf == 0.
  const std::string text = RenderOpenMetrics(registry.Snapshot());
  EXPECT_NE(text.find("test_empty_hist_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_empty_hist_count 0\n"), std::string::npos);
}

TEST(RenderMetricsJsonTest, MatchesRegistryToJson) {
  MetricsRegistry registry;
  registry.GetCounter("a.count").Add(3);
  registry.GetGauge("b.gauge").Set(-0.125);
  registry.GetHistogram("c.hist", {1.0}).Observe(0.5);
  const std::string json = RenderMetricsJson(registry.Snapshot());
  EXPECT_EQ(registry.ToJson(), json);

  // `atmx watch` reads the same document back with ParseJson: every
  // counter and gauge value survives, the histogram stays an object.
  Result<obs::JsonValue> doc = obs::ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().message();
  EXPECT_DOUBLE_EQ(doc.value().NumberOr("a.count", -1.0), 3.0);
  EXPECT_DOUBLE_EQ(doc.value().NumberOr("b.gauge", -1.0), -0.125);
  const obs::JsonValue* hist = doc.value().Find("c.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_TRUE(hist->is_object());
  EXPECT_DOUBLE_EQ(hist->NumberOr("count", -1.0), 1.0);
}

}  // namespace
}  // namespace atmx
