#include "reference.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <thread>

#include "common/check.h"

namespace perfbench {

namespace {

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t Bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

RefCsr RefFromCoo(const atmx::CooMatrix& coo) {
  RefCsr m;
  m.rows = coo.rows();
  m.cols = coo.cols();
  ATMX_CHECK(m.cols <= static_cast<index_t>(UINT32_MAX));
  std::vector<atmx::CooEntry> entries = coo.entries();
  std::sort(entries.begin(), entries.end(),
            [](const atmx::CooEntry& x, const atmx::CooEntry& y) {
              return x.row != y.row ? x.row < y.row : x.col < y.col;
            });
  m.row_ptr.assign(static_cast<std::size_t>(m.rows) + 1, 0);
  for (std::size_t p = 0; p < entries.size(); ++p) {
    const atmx::CooEntry& e = entries[p];
    if (p > 0 && e.row == entries[p - 1].row && e.col == entries[p - 1].col) {
      m.val.back() += e.value;
      continue;
    }
    m.col.push_back(static_cast<std::uint32_t>(e.col));
    m.val.push_back(e.value);
    m.row_ptr[static_cast<std::size_t>(e.row) + 1]++;
  }
  for (index_t i = 0; i < m.rows; ++i) m.row_ptr[i + 1] += m.row_ptr[i];
  return m;
}

RefCsr RefMultiply(const RefCsr& a, const RefCsr& b, int threads) {
  ATMX_CHECK_EQ(a.cols, b.rows);
  threads = std::max(1, threads);
  struct Part {
    std::vector<std::int64_t> row_nnz;
    std::vector<std::uint32_t> col;
    std::vector<double> val;
  };
  std::vector<Part> parts(static_cast<std::size_t>(threads));
  auto work = [&](int t) {
    const index_t i0 = a.rows * t / threads;
    const index_t i1 = a.rows * (t + 1) / threads;
    Part& part = parts[static_cast<std::size_t>(t)];
    std::vector<double> acc(static_cast<std::size_t>(b.cols), 0.0);
    std::vector<char> seen(static_cast<std::size_t>(b.cols), 0);
    std::vector<std::uint32_t> touched;
    for (index_t i = i0; i < i1; ++i) {
      touched.clear();
      for (std::int64_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
        const std::uint32_t k = a.col[p];
        const double av = a.val[p];
        for (std::int64_t q = b.row_ptr[k]; q < b.row_ptr[k + 1]; ++q) {
          const std::uint32_t j = b.col[q];
          if (!seen[j]) {
            seen[j] = 1;
            touched.push_back(j);
          }
          acc[j] += av * b.val[q];
        }
      }
      std::sort(touched.begin(), touched.end());
      for (std::uint32_t j : touched) {
        part.col.push_back(j);
        part.val.push_back(acc[j]);
        acc[j] = 0.0;
        seen[j] = 0;
      }
      part.row_nnz.push_back(static_cast<std::int64_t>(touched.size()));
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(work, t);
  work(0);
  for (std::thread& th : pool) th.join();

  RefCsr c;
  c.rows = a.rows;
  c.cols = b.cols;
  c.row_ptr.reserve(static_cast<std::size_t>(c.rows) + 1);
  c.row_ptr.push_back(0);
  std::size_t total = 0;
  for (const Part& part : parts) total += part.val.size();
  c.col.reserve(total);
  c.val.reserve(total);
  for (Part& part : parts) {
    for (std::int64_t n : part.row_nnz) c.row_ptr.push_back(c.row_ptr.back() + n);
    c.col.insert(c.col.end(), part.col.begin(), part.col.end());
    c.val.insert(c.val.end(), part.val.begin(), part.val.end());
    part = Part();
  }
  return c;
}

double RefFlops(const RefCsr& a, const RefCsr& b) {
  std::vector<double> col_count(static_cast<std::size_t>(a.cols), 0.0);
  for (std::uint32_t k : a.col) col_count[k] += 1.0;
  double flops = 0.0;
  for (index_t k = 0; k < b.rows; ++k) {
    flops += col_count[static_cast<std::size_t>(k)] *
             static_cast<double>(b.row_ptr[k + 1] - b.row_ptr[k]);
  }
  return flops;
}

CheckResult CheckProduct(const atmx::ATMatrix& c, const RefCsr& a,
                         const RefCsr& b, int threads) {
  if (c.rows() != a.rows || c.cols() != b.cols || a.cols != b.rows) {
    CheckResult bad;
    bad.ok = false;
    return bad;
  }
  threads = std::max(1, threads);
  std::vector<CheckResult> parts(static_cast<std::size_t>(threads));
  std::atomic<index_t> next_band{0};
  const std::uint64_t ncols = static_cast<std::uint64_t>(c.cols());

  auto work = [&](int w) {
    CheckResult& r = parts[static_cast<std::size_t>(w)];
    auto compare = [&](index_t i, index_t j, double got, double want) {
      const double err = std::fabs(got - want);
      if (!(err <= kRelTol * std::fabs(want))) r.mismatches++;
      if (want != 0.0) {
        r.max_rel_err = std::max(r.max_rel_err, err / std::fabs(want));
      }
      if (got != 0.0) {
        r.checksum += Mix(Mix(static_cast<std::uint64_t>(i) * ncols +
                              static_cast<std::uint64_t>(j)) ^
                          Bits(got));
      }
    };
    // Reference row i: dense accumulator plus its touched columns. mark[j]
    // is tag when row i's reference touches column j, tag + 1 once C's
    // element (i, j) was compared; tags grow by 2 per row, so no reset.
    std::vector<double> acc(static_cast<std::size_t>(b.cols), 0.0);
    std::vector<std::uint32_t> mark(static_cast<std::size_t>(b.cols), 0);
    std::vector<std::uint32_t> cols;
    std::uint32_t tag = 0;
    auto compare_stored = [&](index_t i, index_t j, double got) {
      std::uint32_t& m = mark[static_cast<std::size_t>(j)];
      const bool referenced = m >= tag;
      compare(i, j, got, referenced ? acc[static_cast<std::size_t>(j)] : 0.0);
      if (referenced) m = tag + 1;
    };
    for (index_t band; (band = next_band++) < c.num_row_bands();) {
      const auto tiles = c.TilesInRowBand(band);
      for (index_t i = c.row_bounds()[band]; i < c.row_bounds()[band + 1];
           ++i) {
        tag += 2;
        cols.clear();
        for (std::int64_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
          const std::uint32_t k = a.col[p];
          for (std::int64_t q = b.row_ptr[k]; q < b.row_ptr[k + 1]; ++q) {
            const std::uint32_t j = b.col[q];
            if (mark[j] != tag) {
              mark[j] = tag;
              acc[j] = 0.0;
              cols.push_back(j);
            }
            acc[j] += a.val[p] * b.val[q];
          }
        }
        for (index_t idx : tiles) {
          const atmx::Tile& t = c.tiles()[static_cast<std::size_t>(idx)];
          const index_t li = i - t.row0();
          if (t.is_dense()) {
            const double* row = t.dense().data() + li * t.dense().ld();
            for (index_t j = 0; j < t.cols(); ++j) {
              compare_stored(i, t.col0() + j, row[j]);
            }
          } else {
            const auto tc = t.sparse().RowCols(li);
            const auto tv = t.sparse().RowValues(li);
            for (std::size_t q = 0; q < tc.size(); ++q) {
              compare_stored(i, t.col0() + tc[q], tv[q]);
            }
          }
        }
        // Reference elements C does not store.
        for (std::uint32_t j : cols) {
          if (mark[j] == tag) compare(i, j, 0.0, acc[j]);
        }
      }
    }
  };
  std::vector<std::thread> pool;
  for (int w = 1; w < threads; ++w) pool.emplace_back(work, w);
  work(0);
  for (std::thread& th : pool) th.join();

  CheckResult result;
  for (const CheckResult& r : parts) {
    result.mismatches += r.mismatches;
    result.max_rel_err = std::max(result.max_rel_err, r.max_rel_err);
    result.checksum += r.checksum;
  }
  result.ok = result.mismatches == 0;
  return result;
}

std::uint64_t Checksum(const atmx::ATMatrix& m) {
  std::uint64_t sum = 0;
  const std::uint64_t cols = static_cast<std::uint64_t>(m.cols());
  ForEachStored(m, [&](index_t i, index_t j, double v) {
    if (v == 0.0) return;
    sum += Mix(Mix(static_cast<std::uint64_t>(i) * cols +
                   static_cast<std::uint64_t>(j)) ^
               Bits(v));
  });
  return sum;
}

bool BitwiseEqual(const atmx::ATMatrix& a, const atmx::ATMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const atmx::CsrMatrix x = a.ToCsr();
  const atmx::CsrMatrix y = b.ToCsr();
  // Equal column arrays imply equally long value arrays.
  return x.row_ptr() == y.row_ptr() && x.col_idx() == y.col_idx() &&
         std::memcmp(x.values().data(), y.values().data(),
                     x.values().size() * sizeof(double)) == 0;
}

std::vector<index_t> RefBfsDiscoveries(const RefCsr& adj,
                                       const std::vector<index_t>& sources) {
  std::vector<index_t> per_level;
  std::vector<int> level(static_cast<std::size_t>(adj.rows));
  std::deque<index_t> queue;
  for (index_t s : sources) {
    std::fill(level.begin(), level.end(), -1);
    level[static_cast<std::size_t>(s)] = 0;
    queue.assign(1, s);
    while (!queue.empty()) {
      const index_t u = queue.front();
      queue.pop_front();
      const int next = level[static_cast<std::size_t>(u)] + 1;
      for (std::int64_t p = adj.row_ptr[u]; p < adj.row_ptr[u + 1]; ++p) {
        const std::uint32_t v = adj.col[p];
        if (level[v] >= 0) continue;
        level[v] = next;
        queue.push_back(v);
        if (per_level.size() < static_cast<std::size_t>(next)) {
          per_level.resize(static_cast<std::size_t>(next), 0);
        }
        per_level[static_cast<std::size_t>(next - 1)]++;
      }
    }
  }
  return per_level;
}

}  // namespace perfbench
