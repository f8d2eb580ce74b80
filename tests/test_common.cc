#include <gtest/gtest.h>

#include <set>

#include "common/config.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/timer.h"

namespace atmx {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dims");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dims");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dims");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kResourceExhausted,
        StatusCode::kIoError, StatusCode::kUnimplemented,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(MathUtilTest, PowerOfTwoHelpers) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(1024));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_EQ(NextPowerOfTwo(1), 1);
  EXPECT_EQ(NextPowerOfTwo(5), 8);
  EXPECT_EQ(NextPowerOfTwo(1024), 1024);
  EXPECT_EQ(PrevPowerOfTwo(1023), 512);
  EXPECT_EQ(PrevPowerOfTwo(1024), 1024);
  EXPECT_EQ(FloorLog2(1), 0);
  EXPECT_EQ(FloorLog2(1024), 10);
  EXPECT_EQ(CeilLog2(1025), 11);
  EXPECT_EQ(CeilDiv(10, 3), 4);
  EXPECT_EQ(CeilDiv(9, 3), 3);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  double min = 1.0, max = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    min = std::min(min, d);
    max = std::max(max, d);
  }
  EXPECT_LT(min, 0.05);
  EXPECT_GT(max, 0.95);
}

TEST(ConfigTest, PaperDefaultsDeriveAtomicBlock) {
  AtmConfig config;
  config.llc_bytes = 24LL * 1024 * 1024;  // paper's machine
  config.alpha = 3;
  // sqrt(24 MB / 24 B) = 1024 exactly — the paper's b_atomic (k = 10).
  EXPECT_EQ(config.MaxDenseTileSize(), 1024);
  EXPECT_EQ(config.AtomicBlockSize(), 1024);
}

TEST(ConfigTest, ExplicitAtomicBlockWins) {
  AtmConfig config;
  config.b_atomic = 64;
  EXPECT_EQ(config.AtomicBlockSize(), 64);
}

TEST(ConfigTest, EffectiveParallelismDefaults) {
  AtmConfig config;
  config.num_sockets = 4;
  config.cores_per_socket = 10;
  EXPECT_EQ(config.EffectiveTeams(), 4);
  EXPECT_EQ(config.EffectiveThreadsPerTeam(), 10);
}

TEST(ConfigTest, ToStringMentionsKeyFields) {
  AtmConfig config;
  const std::string s = config.ToString();
  EXPECT_NE(s.find("rho_read"), std::string::npos);
  EXPECT_NE(s.find("adaptive"), std::string::npos);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"id", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer", "2.5"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("id"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Header and separator and two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(TablePrinter::Fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::FmtBytes(2048), "2.00 KB");
  EXPECT_EQ(TablePrinter::FmtBytes(3 * 1024 * 1024), "3.00 MB");
}

TEST(TimerTest, AccumulatesIntervals) {
  AccumulatingTimer timer;
  timer.Add(0.5);
  timer.Add(0.25);
  EXPECT_DOUBLE_EQ(timer.TotalSeconds(), 0.75);
  timer.Reset();
  EXPECT_DOUBLE_EQ(timer.TotalSeconds(), 0.0);
}

}  // namespace
}  // namespace atmx
