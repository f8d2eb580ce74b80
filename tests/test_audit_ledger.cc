// Prediction-vs-outcome audit ledger: symmetric-error edge cases (the
// all-dense exact-zero and hypersparse round-to-zero-nnz regimes), JSON
// round-trips, counterfactual regret when predictions are fed back as
// measurements, the calibration-drift gate, and the end-to-end path where
// a real ATMULT execution populates the global ledger and the
// estimator.err.* histograms.

#include "obs/audit_ledger.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "gen/synthetic.h"
#include "kernels/kernel_common.h"
#include "kernels/sparse_accumulator.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "ops/atmult.h"
#include "ops/optimizer.h"
#include "tests/test_util.h"
#include "tile/partitioner.h"

namespace atmx {
namespace {

using atmx::testing::RandomCoo;
using obs::AuditGateResult;
using obs::AuditLedger;
using obs::AuditLedgerDoc;
using obs::AuditReport;
using obs::BuildAuditReport;
using obs::ChainAuditRecord;
using obs::CostAuditRecord;
using obs::DensityAuditRecord;
using obs::EvaluateAuditGate;
using obs::InjectDensityMisestimate;
using obs::JsonValue;
using obs::JsonWellFormed;
using obs::LoadAuditLedger;
using obs::MetricsRegistry;
using obs::ParseAuditLedgerJson;
using obs::ParseJson;
using obs::Percentile;
using obs::RenderAuditEnvelopeJson;
using obs::RenderAuditLedgerJson;
using obs::RenderAuditReportText;
using obs::SpaModeAuditRecord;
using obs::SymmetricRelError;
using obs::WaterLevelAuditRecord;

AtmConfig TestConfig() {
  AtmConfig config;
  config.b_atomic = 16;
  config.llc_bytes = 1 << 20;
  config.num_sockets = 2;
  config.cores_per_socket = 2;
  return config;
}

JsonValue MustParse(const std::string& text) {
  auto parsed = ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().message();
  return parsed.value();
}

// ---- SymmetricRelError / Percentile semantics ----

TEST(SymmetricRelError, ExactlyZeroWhenPredictionMatches) {
  // The all-dense matrix case: estimator says 1.0, measurement is 1.0 —
  // the error must be exactly 0.0, not an epsilon.
  EXPECT_EQ(0.0, SymmetricRelError(1.0, 1.0));
  EXPECT_EQ(0.0, SymmetricRelError(0.73, 0.73));
  EXPECT_EQ(0.0, SymmetricRelError(0.0, 0.0));
}

TEST(SymmetricRelError, HypersparseZeroEstimateSaturatesAtOne) {
  // A hypersparse tile whose nnz estimate rounds to zero predicts
  // density 0; any nonzero measurement is a total miss (err == 1), and
  // an actually-empty tile is a perfect prediction (err == 0).
  EXPECT_EQ(1.0, SymmetricRelError(0.0, 1e-9));
  EXPECT_EQ(1.0, SymmetricRelError(1e-9, 0.0));
  EXPECT_EQ(0.0, SymmetricRelError(0.0, 0.0));
  // Bounded and symmetric.
  EXPECT_DOUBLE_EQ(0.5, SymmetricRelError(0.5, 1.0));
  EXPECT_DOUBLE_EQ(0.5, SymmetricRelError(1.0, 0.5));
  EXPECT_LE(SymmetricRelError(0.001, 0.9), 1.0);
}

TEST(SymmetricRelError, NegativeDenominatorGuard) {
  // Non-positive denominators (shouldn't happen for densities, but the
  // guard exists) report 0 rather than a negative or infinite error.
  EXPECT_EQ(0.0, SymmetricRelError(-1.0, -2.0));
}

TEST(Percentile, NearestRank) {
  std::vector<double> v = {0.4, 0.1, 0.3, 0.2};
  EXPECT_DOUBLE_EQ(0.2, Percentile(v, 0.5));   // ceil(2) - 1 = idx 1
  EXPECT_DOUBLE_EQ(0.4, Percentile(v, 0.95));  // ceil(3.8) - 1 = idx 3
  EXPECT_DOUBLE_EQ(0.1, Percentile(v, 0.0));
  EXPECT_DOUBLE_EQ(0.4, Percentile(v, 1.0));
  EXPECT_EQ(0.0, Percentile({}, 0.5));
  EXPECT_DOUBLE_EQ(7.0, Percentile({7.0}, 0.5));
}

// ---- Report construction ----

TEST(AuditReport, EmptyLedgerProducesZeroCountsAndGateSkips) {
  // A minimal ledger file loads with every class empty.
  auto parsed = ParseAuditLedgerJson(
      "{\"kind\":\"atmx_audit_ledger\",\"schema_version\":1,\"density\":[]}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const AuditLedgerDoc& doc = parsed.value();
  EXPECT_TRUE(doc.empty());
  const AuditReport rep = BuildAuditReport(doc, 10);
  EXPECT_EQ(0u, rep.density.count);
  EXPECT_EQ(0u, rep.cost.count);
  EXPECT_EQ(0u, rep.waterlevel.count);
  EXPECT_EQ(0u, rep.spa_mode.count);
  EXPECT_EQ(0u, rep.repr.count);
  EXPECT_EQ(0u, rep.chain.count);
  EXPECT_EQ(0u, rep.repr_considered);
  EXPECT_EQ(0u, rep.spa_considered);
  EXPECT_TRUE(rep.worst.empty());
  EXPECT_EQ(0.0, rep.cost_scale);

  const JsonValue baseline = MustParse(
      "{\"schema_version\":1,\"kind\":\"atmx_audit_baseline\","
      "\"classes\":{\"density\":{\"p50\":0.1,\"p95\":0.2,\"max\":0.3}},"
      "\"max_repr_regret_fraction\":0.05,\"max_spa_regret_fraction\":0.05}");
  const AuditGateResult gate = EvaluateAuditGate(rep, baseline);
  EXPECT_TRUE(gate.ok);
  EXPECT_EQ(0, gate.regressions);
  EXPECT_NE(std::string::npos, gate.text.find("density SKIP (no records)"));
  EXPECT_NE(std::string::npos,
            gate.text.find("repr_regret_fraction SKIP (no decisions)"));
}

TEST(AuditReport, AllDenseMatrixReportsExactZeroError) {
  AuditLedgerDoc doc;
  for (int i = 0; i < 8; ++i) {
    DensityAuditRecord r;
    r.op = 1;
    r.bi = i;
    r.bj = i;
    r.predicted = 1.0;
    r.actual = 1.0;
    doc.density.push_back(r);
  }
  const AuditReport rep = BuildAuditReport(doc, 4);
  EXPECT_EQ(8u, rep.density.count);
  EXPECT_EQ(0.0, rep.density.p50);
  EXPECT_EQ(0.0, rep.density.p95);
  EXPECT_EQ(0.0, rep.density.max);
  EXPECT_EQ(0.0, rep.density.mean);
  ASSERT_EQ(4u, rep.worst.size());
  EXPECT_EQ(0.0, rep.worst[0].err);
}

TEST(AuditReport, HypersparseZeroEstimatesDominateWorstList) {
  AuditLedgerDoc doc;
  // Two perfect blocks and one hypersparse block whose estimate rounded
  // to zero nnz while the measurement found a stray element.
  DensityAuditRecord good;
  good.predicted = good.actual = 0.25;
  doc.density.push_back(good);
  doc.density.push_back(good);
  DensityAuditRecord miss;
  miss.op = 3;
  miss.bi = 5;
  miss.bj = 7;
  miss.predicted = 0.0;
  miss.actual = 1.0 / (1 << 20);
  doc.density.push_back(miss);
  const AuditReport rep = BuildAuditReport(doc, 2);
  EXPECT_EQ(3u, rep.density.count);
  EXPECT_EQ(1.0, rep.density.max);
  ASSERT_FALSE(rep.worst.empty());
  EXPECT_EQ("density", rep.worst[0].decision_class);
  EXPECT_EQ(1.0, rep.worst[0].err);
  EXPECT_EQ(5, rep.worst[0].ti);
  EXPECT_EQ(7, rep.worst[0].tj);
}

TEST(AuditReport, CostClassFitsScaleAcrossLedger) {
  AuditLedgerDoc doc;
  // Two tasks whose wall time is exactly 1e-9 s per cost unit: after the
  // global fit the scaled predictions match the measurements exactly.
  for (int i = 0; i < 2; ++i) {
    CostAuditRecord r;
    r.ti = i;
    r.predicted_cost = (i + 1) * 1000.0;
    r.measured_seconds = (i + 1) * 1000.0 * 1e-9;
    doc.cost.push_back(r);
  }
  const AuditReport rep = BuildAuditReport(doc, 0);
  EXPECT_EQ(2u, rep.cost.count);
  EXPECT_DOUBLE_EQ(1e-9, rep.cost_scale);
  EXPECT_NEAR(0.0, rep.cost.max, 1e-12);
  // Zero-duration records are excluded from the fit, not divided by.
  CostAuditRecord degenerate;
  doc.cost.push_back(degenerate);
  const AuditReport rep2 = BuildAuditReport(doc, 0);
  EXPECT_EQ(2u, rep2.cost.count);
}

// ---- Counterfactual regret ----

TEST(AuditReport, RegretIsZeroWhenPredictionsFedBackAsMeasurements) {
  // Build repr records straight from DecidePairRepresentations decisions
  // and then claim the measured density equalled the prediction: the
  // counterfactual replay must reproduce every logged choice, so regret
  // is identically zero.
  AuditLedgerDoc doc;
  doc.cost_params = CostParams{};
  doc.have_cost_params = true;
  const CostModel model(doc.cost_params);
  const double rho_w = 0.03;
  const double densities[] = {0.001, 0.01, 0.05, 0.3, 0.9};
  std::uint64_t op = 0;
  for (double rho_a : densities) {
    for (double rho_b : densities) {
      for (double rho_c : densities) {
        for (int stored = 0; stored < 4; ++stored) {
          MultiplyShape shape;
          shape.m = 64;
          shape.k = 48;
          shape.n = 64;
          shape.rho_a = rho_a;
          shape.rho_b = rho_b;
          shape.rho_c = rho_c;
          const bool a_dense = (stored & 1) != 0;
          const bool b_dense = (stored & 2) != 0;
          const bool c_dense = rho_c >= rho_w;
          const PairDecision d = DecidePairRepresentations(
              model, shape, a_dense, b_dense, /*a_cached=*/false,
              /*b_cached=*/false, c_dense, /*allow_conversion=*/true);
          ReprAuditRecord r;
          r.op = ++op;
          r.m = shape.m;
          r.k = shape.k;
          r.n = shape.n;
          r.rho_a = rho_a;
          r.rho_b = rho_b;
          r.rho_c_pred = rho_c;
          r.rho_c_actual = rho_c;  // prediction fed back as measurement
          r.rho_w = rho_w;
          r.a_stored_dense = a_dense;
          r.b_stored_dense = b_dense;
          r.allow_conversion = true;
          r.c_dense = c_dense;
          r.kernel =
              static_cast<int>(MakeKernelType(d.a_dense, d.b_dense, c_dense));
          r.stored_cost = d.stored_cost;
          r.chosen_cost = d.projected_cost;
          doc.repr.push_back(r);
        }
      }
    }
  }
  const AuditReport rep = BuildAuditReport(doc, 0);
  EXPECT_EQ(doc.repr.size(), rep.repr_considered);
  EXPECT_EQ(0u, rep.repr_regret);
  EXPECT_EQ(0.0, rep.repr_regret_cost);
  EXPECT_EQ(0.0, rep.repr.max);
}

TEST(AuditReport, SpaRegretZeroWhenRowNnzFedBack) {
  AuditLedgerDoc doc;
  const double row_nnz[] = {0.5, 3.0, 17.0, 200.0};
  const index_t widths[] = {64, 256, 4096};
  for (index_t width : widths) {
    for (double nnz : row_nnz) {
      SpaModeAuditRecord r;
      r.width = width;
      r.predicted_row_nnz = nnz;
      r.actual_row_nnz = nnz;
      r.chosen_mode =
          static_cast<int>(SparseAccumulator::ChooseMode(width, nnz));
      doc.spa_mode.push_back(r);
    }
  }
  const AuditReport rep = BuildAuditReport(doc, 0);
  EXPECT_EQ(doc.spa_mode.size(), rep.spa_considered);
  EXPECT_EQ(0u, rep.spa_regret);
  EXPECT_EQ(0.0, rep.spa_mode.max);
}

TEST(AuditReport, MeasuredDensityAcrossWaterLevelFlipsKernel) {
  // A prediction below the water level with a measurement above it must
  // flip the counterfactual C representation and register regret.
  AuditLedgerDoc doc;
  doc.cost_params = CostParams{};
  doc.have_cost_params = true;
  const CostModel model(doc.cost_params);
  MultiplyShape shape;
  shape.m = shape.k = shape.n = 64;
  shape.rho_a = 0.5;
  shape.rho_b = 0.5;
  shape.rho_c = 0.001;  // predicted: sparse C
  const PairDecision d = DecidePairRepresentations(
      model, shape, true, true, false, false, /*c_dense=*/false, true);
  ReprAuditRecord r;
  r.m = shape.m;
  r.k = shape.k;
  r.n = shape.n;
  r.rho_a = shape.rho_a;
  r.rho_b = shape.rho_b;
  r.rho_c_pred = shape.rho_c;
  r.rho_c_actual = 0.9;  // measured: far above rho_w
  r.rho_w = 0.03;
  r.a_stored_dense = true;
  r.b_stored_dense = true;
  r.allow_conversion = true;
  r.c_dense = false;
  r.kernel = static_cast<int>(MakeKernelType(d.a_dense, d.b_dense, false));
  doc.repr.push_back(r);
  // The same decision made without an estimate, or with conversions off,
  // has no counterfactual: the replay skips both.
  ReprAuditRecord no_estimate = r;
  no_estimate.rho_c_pred = -1.0;
  doc.repr.push_back(no_estimate);
  ReprAuditRecord no_conversion = r;
  no_conversion.allow_conversion = false;
  doc.repr.push_back(no_conversion);
  const AuditReport rep = BuildAuditReport(doc, 0);
  EXPECT_EQ(1u, rep.repr_considered);
  EXPECT_EQ(1u, rep.repr_regret);
  EXPECT_EQ(1u, rep.repr.count);
  // Injection has no estimate to worsen on the first of them.
  InjectDensityMisestimate(&doc, 2.0);
  EXPECT_EQ(-1.0, doc.repr[1].rho_c_pred);
}

// ---- Serialization round-trips ----

AuditLedgerDoc OneOfEachDoc() {
  AuditLedgerDoc doc;
  doc.git_sha = "abc123";
  doc.dropped = 2;
  doc.cost_params = CostParams{};
  doc.cost_params.c_sdd = 5.125;  // exactly representable, survives %.17g
  doc.have_cost_params = true;
  DensityAuditRecord d;
  d.op = 7;
  d.bi = 1;
  d.bj = 2;
  d.predicted = 0.1 + 0.2;  // deliberately non-round double
  d.actual = 1.0 / 3.0;
  doc.density.push_back(d);
  CostAuditRecord c;
  c.op = 7;
  c.ti = 3;
  c.tj = 4;
  c.predicted_cost = 12345.678;
  c.measured_seconds = 1e-4;
  c.measured_cpu_ns = 99000.0;
  c.measured_cycles = 424242;
  c.kernel = static_cast<int>(KernelType::kSSD);
  doc.cost.push_back(c);
  WaterLevelAuditRecord w;
  w.op = 7;
  w.rho_w = 0.03;
  w.projected_bytes = 1 << 20;
  w.result_bytes = (1 << 20) + 17;
  w.high_water_bytes = 1 << 22;
  w.feasible = false;
  doc.waterlevel.push_back(w);
  SpaModeAuditRecord s;
  s.op = 7;
  s.ti = 5;
  s.tj = 6;
  s.width = 256;
  s.predicted_row_nnz = 3.5;
  s.actual_row_nnz = 4.25;
  s.chosen_mode = static_cast<int>(SparseAccumulator::Mode::kHash);
  doc.spa_mode.push_back(s);
  ReprAuditRecord r;
  r.op = 7;
  r.ti = 0;
  r.tj = 1;
  r.k0 = 2;
  r.k1 = 5;
  r.m = 64;
  r.k = 48;
  r.n = 32;
  r.rho_a = 0.7;
  r.rho_b = 0.01;
  r.rho_c_pred = 0.2;
  r.rho_c_actual = 0.25;
  r.rho_w = 0.03;
  r.a_stored_dense = true;
  r.b_cached = true;
  r.allow_conversion = true;
  r.c_dense = true;
  r.kernel = static_cast<int>(KernelType::kDSD);
  r.stored_cost = 100.5;
  r.chosen_cost = 88.25;
  doc.repr.push_back(r);
  ChainAuditRecord ch;
  ch.op = 8;
  ch.plan = "((A0*A1)*\"A2\")";  // quotes survive escaping
  ch.length = 3;
  ch.planned_cost = 500.0;
  ch.alternative_cost = 750.0;
  ch.fused = false;
  ch.fallback_reason = "budget_infeasible";
  ch.fused_tasks = 12;
  ch.measured_seconds = 0.0125;
  ch.budget_bytes = 1 << 21;
  ch.projected_peak_bytes = (1 << 21) + 512;
  ch.resident_peak_bytes = (1 << 21) - 4096;
  ch.rho_w = {0.03, 0.5, 1.0 / 3.0};
  ch.products = {"pairs=4 kernels=4", "pairs=9 kernels=9"};
  doc.chain.push_back(ch);
  return doc;
}

TEST(AuditLedgerJson, RoundTripPreservesEveryField) {
  const AuditLedgerDoc doc = OneOfEachDoc();
  const std::string json = RenderAuditLedgerJson(doc);
  std::string error;
  EXPECT_TRUE(JsonWellFormed(json, &error)) << error;
  auto parsed = ParseAuditLedgerJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const AuditLedgerDoc& back = parsed.value();
  EXPECT_EQ(doc.git_sha, back.git_sha);
  EXPECT_EQ(doc.dropped, back.dropped);
  ASSERT_TRUE(back.have_cost_params);
  EXPECT_EQ(doc.cost_params.c_sdd, back.cost_params.c_sdd);
  ASSERT_EQ(1u, back.density.size());
  // %.17g serialization: doubles survive the trip bit-for-bit.
  EXPECT_EQ(doc.density[0].predicted, back.density[0].predicted);
  EXPECT_EQ(doc.density[0].actual, back.density[0].actual);
  EXPECT_EQ(doc.density[0].bi, back.density[0].bi);
  ASSERT_EQ(1u, back.cost.size());
  EXPECT_EQ(doc.cost[0].predicted_cost, back.cost[0].predicted_cost);
  EXPECT_EQ(doc.cost[0].measured_cycles, back.cost[0].measured_cycles);
  EXPECT_EQ(doc.cost[0].kernel, back.cost[0].kernel);
  ASSERT_EQ(1u, back.waterlevel.size());
  EXPECT_EQ(doc.waterlevel[0].projected_bytes,
            back.waterlevel[0].projected_bytes);
  EXPECT_EQ(doc.waterlevel[0].feasible, back.waterlevel[0].feasible);
  ASSERT_EQ(1u, back.spa_mode.size());
  EXPECT_EQ(doc.spa_mode[0].chosen_mode, back.spa_mode[0].chosen_mode);
  EXPECT_EQ(doc.spa_mode[0].predicted_row_nnz,
            back.spa_mode[0].predicted_row_nnz);
  ASSERT_EQ(1u, back.repr.size());
  EXPECT_EQ(doc.repr[0].kernel, back.repr[0].kernel);
  EXPECT_EQ(doc.repr[0].a_stored_dense, back.repr[0].a_stored_dense);
  EXPECT_EQ(doc.repr[0].b_cached, back.repr[0].b_cached);
  EXPECT_EQ(doc.repr[0].rho_c_actual, back.repr[0].rho_c_actual);
  ASSERT_EQ(1u, back.chain.size());
  EXPECT_EQ(doc.chain[0].fused, back.chain[0].fused);
  EXPECT_EQ(doc.chain[0].measured_seconds, back.chain[0].measured_seconds);
  EXPECT_EQ(doc.chain[0].budget_bytes, back.chain[0].budget_bytes);
  EXPECT_EQ(doc.chain[0].resident_peak_bytes,
            back.chain[0].resident_peak_bytes);
  EXPECT_EQ(doc.chain[0].rho_w, back.chain[0].rho_w);
  EXPECT_EQ(doc.chain[0].plan, back.chain[0].plan);
  EXPECT_EQ(doc.chain[0].length, back.chain[0].length);
  EXPECT_EQ(doc.chain[0].fallback_reason, back.chain[0].fallback_reason);
  EXPECT_EQ(doc.chain[0].fused_tasks, back.chain[0].fused_tasks);
  EXPECT_EQ(doc.chain[0].projected_peak_bytes,
            back.chain[0].projected_peak_bytes);
  EXPECT_EQ(doc.chain[0].products, back.chain[0].products);
}

TEST(AuditLedgerJson, ReplayIsDeterministic) {
  const AuditLedgerDoc doc = OneOfEachDoc();
  const std::string json = RenderAuditLedgerJson(doc);
  auto a = ParseAuditLedgerJson(json);
  ASSERT_TRUE(a.ok());
  const std::string text1 =
      RenderAuditReportText(BuildAuditReport(a.value(), 10));
  const std::string text2 =
      RenderAuditReportText(BuildAuditReport(a.value(), 10));
  EXPECT_EQ(text1, text2);
  // Render → parse → render is a fixed point.
  EXPECT_EQ(json, RenderAuditLedgerJson(a.value()));
  // The render stamps the document's own time, never the clock, so a
  // replay is byte-identical across a second boundary.
  auto stamped = ParseAuditLedgerJson(
      "{\"kind\":\"atmx_audit_ledger\",\"schema_version\":1,"
      "\"unix_time\":12345}");
  ASSERT_TRUE(stamped.ok()) << stamped.status().message();
  EXPECT_NE(std::string::npos, RenderAuditLedgerJson(stamped.value())
                                   .find("\"unix_time\":12345,"));

  // Hand-written ledger: an infeasible water level is counted and
  // rendered; a chain record written before the chain fields existed
  // loads with defaults.
  auto b = ParseAuditLedgerJson(
      "{\"kind\":\"atmx_audit_ledger\",\"schema_version\":1,"
      "\"waterlevel\":[{\"op\":0,\"projected_bytes\":100,"
      "\"result_bytes\":100,\"feasible\":false},"
      "{\"op\":1,\"projected_bytes\":100,\"result_bytes\":100}],"
      "\"chain\":[{\"op\":2,\"planned_cost\":5,\"fused\":true}]}");
  ASSERT_TRUE(b.ok()) << b.status().message();
  const AuditReport rep = BuildAuditReport(b.value(), 0);
  EXPECT_EQ(1u, rep.waterlevel_infeasible);
  EXPECT_NE(std::string::npos,
            RenderAuditReportText(rep).find(
                "waterlevel: 1/2 records under an infeasible memory SLA"));
  ASSERT_EQ(1u, b.value().chain.size());
  EXPECT_TRUE(b.value().chain[0].fused);
  EXPECT_EQ("", b.value().chain[0].plan);
  EXPECT_TRUE(b.value().chain[0].products.empty());
}

TEST(AuditLedgerJson, ParseRejectsWrongKind) {
  EXPECT_FALSE(ParseAuditLedgerJson("{\"kind\":\"something_else\"}").ok());
  EXPECT_FALSE(ParseAuditLedgerJson("not json").ok());
  EXPECT_FALSE(ParseAuditLedgerJson(
                   "{\"kind\":\"atmx_audit_ledger\",\"schema_version\":999}")
                   .ok());
}

TEST(AuditLedgerJson, RejectsOutOfRangeIntegerFields) {
  // A ledger file is outside input: an integer field its type cannot hold
  // is an InvalidArgument naming the field, never an undefined cast.
  const std::pair<std::string, std::string> cases[] = {
      {"\"schema_version\":1,\"density\":[{\"op\":0,\"bi\":1e300}]",
       "\"bi\""},
      {"\"schema_version\":1,\"density\":[{\"op\":-5,\"bi\":0}]",
       "\"op\""},
      {"\"schema_version\":1e300", "\"schema_version\""},
  };
  for (const auto& [fields, name] : cases) {
    auto parsed =
        ParseAuditLedgerJson("{\"kind\":\"atmx_audit_ledger\"," + fields + "}");
    ASSERT_FALSE(parsed.ok()) << fields;
    EXPECT_EQ(StatusCode::kInvalidArgument, parsed.status().code());
    EXPECT_NE(std::string::npos, parsed.status().message().find(name))
        << parsed.status().message();
  }
}

TEST(AuditLedgerGlobal, WriteJsonAndLoadFromDisk) {
  AuditLedger& ledger = AuditLedger::Global();
  ledger.Clear();
  ledger.SetEnabled(true);
  DensityAuditRecord d;
  d.predicted = 0.5;
  d.actual = 0.5;
  ledger.RecordDensity(d);
  WaterLevelAuditRecord w;
  w.projected_bytes = 100;
  w.result_bytes = 110;
  ledger.RecordWaterLevel(w);
  ledger.SetEnabled(false);

  const std::string path =
      ::testing::TempDir() + "/atmx_audit_ledger_test.json";
  const Status st = ledger.WriteJson(path);
  ASSERT_TRUE(st.ok()) << st.message();
  auto loaded = LoadAuditLedger(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(1u, loaded.value().density.size());
  EXPECT_EQ(1u, loaded.value().waterlevel.size());
  EXPECT_EQ(0.5, loaded.value().density[0].predicted);
  std::remove(path.c_str());
  ledger.Clear();
}

// ---- Gate + misestimate injection ----

TEST(AuditGate, EnvelopePassesThenFailsUnderInjectedMisestimate) {
  // An under-predicting estimator: pred = 0.8 * actual everywhere.
  AuditLedgerDoc doc;
  for (int i = 0; i < 16; ++i) {
    DensityAuditRecord r;
    r.bi = i;
    r.predicted = 0.4;
    r.actual = 0.5;
    doc.density.push_back(r);
  }
  const AuditReport rep = BuildAuditReport(doc, 0);
  EXPECT_NEAR(0.2, rep.density.p50, 1e-12);

  const std::string envelope_json = RenderAuditEnvelopeJson(rep, 1.5);
  std::string error;
  EXPECT_TRUE(JsonWellFormed(envelope_json, &error)) << error;
  const JsonValue envelope = MustParse(envelope_json);
  const AuditGateResult pass = EvaluateAuditGate(rep, envelope);
  EXPECT_TRUE(pass.ok) << pass.text;
  EXPECT_EQ(0, pass.regressions);
  EXPECT_NE(std::string::npos, pass.text.find("density p50 0.2000"));

  // Injection pushes predictions away from the measurements; the same
  // envelope must now fail (this estimator under-predicts, so a blind
  // multiply would have *helped* it — the push-away contract is what
  // makes the negative test meaningful).
  InjectDensityMisestimate(&doc, 2.0);
  EXPECT_DOUBLE_EQ(0.2, doc.density[0].predicted);  // 0.4 / 2
  const AuditReport worse = BuildAuditReport(doc, 0);
  EXPECT_GT(worse.density.p50, rep.density.p50);
  const AuditGateResult fail = EvaluateAuditGate(worse, envelope);
  EXPECT_FALSE(fail.ok);
  EXPECT_GE(fail.regressions, 1);
  EXPECT_NE(std::string::npos, fail.text.find("REGRESSION"));
}

TEST(AuditGate, InjectionWorsensOverPredictionsToo) {
  AuditLedgerDoc doc;
  DensityAuditRecord over;
  over.predicted = 0.5;
  over.actual = 0.25;
  doc.density.push_back(over);
  const double before =
      SymmetricRelError(over.predicted, over.actual);
  InjectDensityMisestimate(&doc, 2.0);
  EXPECT_DOUBLE_EQ(1.0, doc.density[0].predicted);  // 0.5 * 2, capped
  EXPECT_GT(SymmetricRelError(doc.density[0].predicted,
                              doc.density[0].actual),
            before);
}

TEST(AuditGate, RejectsInvalidBaselineDocument) {
  const AuditReport rep;
  const AuditGateResult gate =
      EvaluateAuditGate(rep, MustParse("{\"kind\":\"wrong\"}"));
  EXPECT_FALSE(gate.ok);
  EXPECT_EQ(1, gate.regressions);
}

// ---- End to end: a real multiplication populates the global ledger ----

TEST(AuditLedgerEndToEnd, MultiplyRecordsDecisionsAndHistograms) {
  AuditLedger& ledger = AuditLedger::Global();
  ledger.Clear();
  ledger.SetEnabled(true);
  // Registering via a record first pins the histogram before we read the
  // baseline count.
  DensityAuditRecord warm;
  ledger.RecordDensity(warm);
  ledger.Clear();
  obs::Histogram& density_hist =
      MetricsRegistry::Global().GetHistogram("estimator.err.density");
  const std::uint64_t hist_before = density_hist.TotalCount();

  const AtmConfig config = TestConfig();
  CooMatrix a_coo = GenerateDiagonalDenseBlocks(128, 4, 24, 0.9, 500, 21);
  CooMatrix b_coo = RandomCoo(128, 128, 1200, 22);
  ATMatrix a = PartitionToAtm(std::move(a_coo), config);
  ATMatrix b = PartitionToAtm(std::move(b_coo), config);
  AtMult op(config);
  AtMultStats stats;
  ATMatrix c = op.Multiply(a, b, &stats);
  ledger.SetEnabled(false);

  const AuditLedgerDoc doc = ledger.Snapshot();
  EXPECT_FALSE(doc.density.empty());
  EXPECT_FALSE(doc.cost.empty());
  EXPECT_TRUE(doc.have_cost_params);
  EXPECT_GE(density_hist.TotalCount(), hist_before + doc.density.size());

  // The ledger feeds the offline report end to end.
  const AuditReport rep = BuildAuditReport(doc, 5);
  EXPECT_EQ(doc.density.size(), rep.density.count);
  const std::string text = RenderAuditReportText(rep);
  EXPECT_NE(std::string::npos, text.find("prediction audit"));
  EXPECT_NE(std::string::npos, text.find("counterfactual"));
  ledger.Clear();
}

}  // namespace
}  // namespace atmx
