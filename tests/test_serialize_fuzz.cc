// Robustness fuzzing for the binary serialization format: every
// deserializer must return a Status error (or, for benign bit flips, a
// structurally valid matrix) on truncated or corrupted input — never
// crash, abort, or make an absurd allocation.

#include "storage/serialize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen/synthetic.h"
#include "storage/convert.h"
#include "tests/test_util.h"
#include "tile/partitioner.h"
#include "validate/validate.h"

namespace atmx {
namespace {

using ::atmx::testing::RandomCoo;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<char> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

enum class Kind { kCoo, kCsr, kDense, kAtm };

// Loads `path` as `kind`; returns true when the loader reported a clean
// Status (ok or error). For ok results, the payload must validate — a
// loader must never hand back a corrupt structure.
::testing::AssertionResult LoadIsWellBehaved(Kind kind,
                                             const std::string& path) {
  switch (kind) {
    case Kind::kCoo: {
      Result<CooMatrix> r = LoadCooMatrix(path);
      if (r.ok()) {
        // Bit-flipped value bytes may legitimately decode to NaN/Inf, so
        // only the structural guarantee (in-bounds coordinates) applies.
        const CooMatrix& m = r.value();
        for (const CooEntry& e : m.entries()) {
          if (e.row < 0 || e.row >= m.rows() || e.col < 0 ||
              e.col >= m.cols()) {
            return ::testing::AssertionFailure()
                   << "loader accepted an out-of-bounds COO entry";
          }
        }
      }
      break;
    }
    case Kind::kCsr: {
      Result<CsrMatrix> r = LoadCsrMatrix(path);
      if (r.ok()) {
        const Status s = ValidateCsr(r.value());
        if (!s.ok()) {
          return ::testing::AssertionFailure()
                 << "loader accepted a corrupt CSR: " << s.ToString();
        }
      }
      break;
    }
    case Kind::kDense: {
      Result<DenseMatrix> r = LoadDenseMatrix(path);
      if (r.ok()) {
        // NaN payloads are representable bytes; structural validity here
        // means the shape/allocation is sane, which the load guarantees.
        if (r.value().rows() < 0 || r.value().cols() < 0) {
          return ::testing::AssertionFailure() << "negative dense shape";
        }
      }
      break;
    }
    case Kind::kAtm: {
      Result<ATMatrix> r = LoadATMatrix(path);
      if (r.ok()) {
        AtmValidateOptions options;
        // Values may legitimately be bit-flipped to NaN without breaking
        // structure; the deep checks' finiteness test would flag those, so
        // verify geometry/accounting only.
        options.deep = false;
        const Status s = ValidateAtMatrix(r.value(), options);
        if (!s.ok()) {
          return ::testing::AssertionFailure()
                 << "loader accepted a corrupt AT MATRIX: " << s.ToString();
        }
      }
      break;
    }
  }
  return ::testing::AssertionSuccess();
}

struct Subject {
  Kind kind;
  std::string path;
};

// Writes one file per format, named `<prefix>.<format>.bin`. Each test
// passes its own prefix: ctest runs the cases as separate processes, which
// may share the temp directory and run at once.
std::vector<Subject> WriteSubjects(const std::string& prefix) {
  std::vector<Subject> subjects;

  CooMatrix coo = RandomCoo(23, 31, 140, /*seed=*/1);
  const std::string coo_path = TempPath(prefix + ".coo.bin");
  EXPECT_TRUE(SaveMatrix(coo, coo_path).ok());
  subjects.push_back({Kind::kCoo, coo_path});

  CsrMatrix csr = CooToCsr(RandomCoo(28, 19, 120, /*seed=*/2));
  const std::string csr_path = TempPath(prefix + ".csr.bin");
  EXPECT_TRUE(SaveMatrix(csr, csr_path).ok());
  subjects.push_back({Kind::kCsr, csr_path});

  DenseMatrix dense = GenerateFullDense(13, 17, /*seed=*/3);
  const std::string dense_path = TempPath(prefix + ".dense.bin");
  EXPECT_TRUE(SaveMatrix(dense, dense_path).ok());
  subjects.push_back({Kind::kDense, dense_path});

  AtmConfig config;
  config.b_atomic = 16;
  ATMatrix atm =
      PartitionToAtm(GenerateDiagonalDenseBlocks(80, 3, 16, 0.9, 200,
                                                 /*seed=*/4),
                     config);
  const std::string atm_path = TempPath(prefix + ".atm.bin");
  EXPECT_TRUE(SaveMatrix(atm, atm_path).ok());
  subjects.push_back({Kind::kAtm, atm_path});

  return subjects;
}

TEST(SerializeFuzzTest, RoundTripThenValidate) {
  AtmConfig config;
  config.b_atomic = 16;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed * 53 + 5);
    const index_t rows = 8 + static_cast<index_t>(rng.NextBounded(64));
    const index_t cols = 8 + static_cast<index_t>(rng.NextBounded(64));
    const index_t nnz = 1 + static_cast<index_t>(rng.NextBounded(
                                static_cast<std::uint64_t>(rows * cols / 3)));
    CooMatrix coo = RandomCoo(rows, cols, nnz, rng.Next());

    const std::string csr_path = TempPath("rt.csr.bin");
    ASSERT_TRUE(SaveMatrix(CooToCsr(coo), csr_path).ok());
    Result<CsrMatrix> csr = LoadCsrMatrix(csr_path);
    ASSERT_TRUE(csr.ok()) << csr.status().ToString();
    EXPECT_TRUE(ValidateCsr(csr.value()).ok());

    const std::string atm_path = TempPath("rt.atm.bin");
    ATMatrix atm = PartitionToAtm(coo, config);
    ASSERT_TRUE(SaveMatrix(atm, atm_path).ok());
    Result<ATMatrix> loaded = LoadATMatrix(atm_path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const Status deep = ValidateAtMatrix(loaded.value());
    EXPECT_TRUE(deep.ok()) << deep.ToString();
    EXPECT_EQ(loaded.value().nnz(), atm.nnz());
  }
}

TEST(SerializeFuzzTest, TruncationAtEveryBoundaryReturnsStatus) {
  const std::vector<Subject> subjects = WriteSubjects("fuzz_truncation");
  const std::string path = TempPath("truncated.bin");
  for (const Subject& subject : subjects) {
    const std::vector<char> bytes = ReadFile(subject.path);
    ASSERT_FALSE(bytes.empty());
    // Cut at every 8-byte boundary (the format's word size) plus a few
    // unaligned offsets; every prefix must load without crashing and —
    // being a strict prefix — must actually fail.
    std::vector<std::size_t> cuts;
    for (std::size_t cut = 0; cut < bytes.size(); cut += 8) {
      cuts.push_back(cut);
    }
    cuts.push_back(1);
    cuts.push_back(bytes.size() - 1);
    for (std::size_t cut : cuts) {
      WriteFile(path, std::vector<char>(bytes.begin(),
                                        bytes.begin() +
                                            static_cast<std::ptrdiff_t>(cut)));
      EXPECT_TRUE(LoadIsWellBehaved(subject.kind, path));
      switch (subject.kind) {
        case Kind::kCoo:
          EXPECT_FALSE(LoadCooMatrix(path).ok()) << "cut at " << cut;
          break;
        case Kind::kCsr:
          EXPECT_FALSE(LoadCsrMatrix(path).ok()) << "cut at " << cut;
          break;
        case Kind::kDense:
          EXPECT_FALSE(LoadDenseMatrix(path).ok()) << "cut at " << cut;
          break;
        case Kind::kAtm:
          EXPECT_FALSE(LoadATMatrix(path).ok()) << "cut at " << cut;
          break;
      }
    }
  }
}

TEST(SerializeFuzzTest, RandomByteCorruptionNeverCrashes) {
  const std::vector<Subject> subjects = WriteSubjects("fuzz_corruption");
  const std::string path = TempPath("corrupt.bin");
  Rng rng(1234);
  for (const Subject& subject : subjects) {
    const std::vector<char> original = ReadFile(subject.path);
    ASSERT_FALSE(original.empty());
    for (int round = 0; round < 200; ++round) {
      std::vector<char> bytes = original;
      // Flip 1-4 random bytes anywhere in the file.
      const int flips = 1 + static_cast<int>(rng.NextBounded(4));
      for (int f = 0; f < flips; ++f) {
        const std::size_t pos = static_cast<std::size_t>(
            rng.NextBounded(static_cast<std::uint64_t>(bytes.size())));
        bytes[pos] = static_cast<char>(rng.Next());
      }
      WriteFile(path, bytes);
      EXPECT_TRUE(LoadIsWellBehaved(subject.kind, path))
          << "round " << round;
    }
  }
}

TEST(SerializeFuzzTest, DeclaredLengthBeyondFileIsRejected) {
  // A huge declared array length in a small file must be rejected before
  // any allocation is attempted.
  CsrMatrix csr = CooToCsr(RandomCoo(10, 10, 30, /*seed=*/6));
  const std::string path = TempPath("hugelen.csr.bin");
  ASSERT_TRUE(SaveMatrix(csr, path).ok());
  std::vector<char> bytes = ReadFile(path);
  // Layout: magic(8) tag(8) rows(8) cols(8) row_ptr_len(8) ...
  const std::uint64_t huge = 1ULL << 62;
  std::memcpy(bytes.data() + 32, &huge, sizeof(huge));
  WriteFile(path, bytes);
  Result<CsrMatrix> r = LoadCsrMatrix(path);
  ASSERT_FALSE(r.ok());
}

TEST(SerializeFuzzTest, WrongTypeTagIsRejected) {
  CooMatrix coo = RandomCoo(6, 6, 10, /*seed=*/7);
  const std::string path = TempPath("wrongtag.bin");
  ASSERT_TRUE(SaveMatrix(coo, path).ok());
  EXPECT_FALSE(LoadCsrMatrix(path).ok());
  EXPECT_FALSE(LoadDenseMatrix(path).ok());
  EXPECT_FALSE(LoadATMatrix(path).ok());
  EXPECT_TRUE(LoadCooMatrix(path).ok());
}

}  // namespace
}  // namespace atmx
