#include "validate/validate.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "topology/tile_size_policy.h"

namespace atmx {

namespace {

template <typename... Args>
std::string Cat(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

std::string TileLabel(index_t idx, const Tile& t) {
  return Cat("tile #", idx, " [", t.row0(), ",", t.row_end(), ")x[", t.col0(),
             ",", t.col_end(), ") ", TileKindName(t.kind()));
}

}  // namespace

Status ValidateCsr(const CsrMatrix& m) {
  if (m.rows() < 0 || m.cols() < 0) {
    return Status::InvalidArgument(
        Cat("csr: negative shape ", m.rows(), "x", m.cols()));
  }
  const auto& row_ptr = m.row_ptr();
  const auto& col_idx = m.col_idx();
  const auto& values = m.values();
  if (static_cast<index_t>(row_ptr.size()) != m.rows() + 1) {
    return Status::InvalidArgument(Cat("csr: row_ptr has ", row_ptr.size(),
                                       " entries, want rows+1 = ",
                                       m.rows() + 1));
  }
  if (row_ptr.front() != 0) {
    return Status::InvalidArgument(
        Cat("csr: row_ptr[0] = ", row_ptr.front(), ", want 0"));
  }
  if (col_idx.size() != values.size()) {
    return Status::InvalidArgument(Cat("csr: ", col_idx.size(),
                                       " column ids vs ", values.size(),
                                       " values"));
  }
  if (row_ptr.back() != static_cast<index_t>(values.size())) {
    return Status::InvalidArgument(Cat("csr: row_ptr ends at ",
                                       row_ptr.back(), ", want nnz = ",
                                       values.size()));
  }
  for (index_t i = 0; i < m.rows(); ++i) {
    const index_t begin = row_ptr[i];
    const index_t end = row_ptr[i + 1];
    if (begin > end) {
      return Status::InvalidArgument(Cat("csr: non-monotone row_ptr at row ",
                                         i, ": ", begin, " > ", end));
    }
    if (begin < 0 || end > static_cast<index_t>(values.size())) {
      return Status::InvalidArgument(
          Cat("csr: row_ptr range [", begin, ",", end,
              ") of row ", i, " outside [0,", values.size(), "]"));
    }
    for (index_t p = begin; p < end; ++p) {
      if (col_idx[p] < 0 || col_idx[p] >= m.cols()) {
        return Status::OutOfRange(Cat("csr: column id ", col_idx[p],
                                      " at row ", i, " outside [0,",
                                      m.cols(), ")"));
      }
      if (p > begin && col_idx[p - 1] >= col_idx[p]) {
        return Status::InvalidArgument(
            Cat("csr: row ", i, " columns not strictly increasing: ",
                col_idx[p - 1], " then ", col_idx[p]));
      }
      if (!std::isfinite(values[p])) {
        return Status::InvalidArgument(
            Cat("csr: non-finite value at row ", i, ", col ", col_idx[p]));
      }
    }
  }
  return Status::Ok();
}

Status ValidateCoo(const CooMatrix& m, bool allow_duplicates) {
  if (m.rows() < 0 || m.cols() < 0) {
    return Status::InvalidArgument(
        Cat("coo: negative shape ", m.rows(), "x", m.cols()));
  }
  for (std::size_t e = 0; e < m.entries().size(); ++e) {
    const CooEntry& entry = m.entries()[e];
    if (entry.row < 0 || entry.row >= m.rows() || entry.col < 0 ||
        entry.col >= m.cols()) {
      return Status::OutOfRange(Cat("coo: entry #", e, " at (", entry.row,
                                    ",", entry.col, ") outside ", m.rows(),
                                    "x", m.cols()));
    }
    if (!std::isfinite(entry.value)) {
      return Status::InvalidArgument(Cat("coo: non-finite value at (",
                                         entry.row, ",", entry.col, ")"));
    }
  }
  if (!allow_duplicates && m.nnz() > 1) {
    std::vector<std::pair<index_t, index_t>> coords;
    coords.reserve(m.entries().size());
    for (const CooEntry& entry : m.entries()) {
      coords.emplace_back(entry.row, entry.col);
    }
    std::sort(coords.begin(), coords.end());
    const auto dup = std::adjacent_find(coords.begin(), coords.end());
    if (dup != coords.end()) {
      return Status::InvalidArgument(Cat("coo: duplicate coordinate (",
                                         dup->first, ",", dup->second, ")"));
    }
  }
  return Status::Ok();
}

Status ValidateDense(const DenseMatrix& m) {
  if (m.rows() < 0 || m.cols() < 0) {
    return Status::InvalidArgument(
        Cat("dense: negative shape ", m.rows(), "x", m.cols()));
  }
  const value_t* data = m.data();
  const std::size_t n =
      static_cast<std::size_t>(m.rows()) * static_cast<std::size_t>(m.cols());
  for (std::size_t p = 0; p < n; ++p) {
    if (!std::isfinite(data[p])) {
      return Status::InvalidArgument(
          Cat("dense: non-finite value at (", p / m.cols(), ",", p % m.cols(),
              ")"));
    }
  }
  return Status::Ok();
}

Status ValidateDensityMap(const DensityMap& map) {
  if (map.rows() < 0 || map.cols() < 0) {
    return Status::InvalidArgument(
        Cat("density map: negative shape ", map.rows(), "x", map.cols()));
  }
  if (map.block() < 1) {
    return Status::InvalidArgument(
        Cat("density map: block size ", map.block(), " < 1"));
  }
  const index_t want_rows =
      map.rows() > 0 ? CeilDiv(map.rows(), map.block()) : 0;
  const index_t want_cols =
      map.cols() > 0 ? CeilDiv(map.cols(), map.block()) : 0;
  if (map.grid_rows() != want_rows || map.grid_cols() != want_cols) {
    return Status::InvalidArgument(
        Cat("density map: grid ", map.grid_rows(), "x", map.grid_cols(),
            ", want ", want_rows, "x", want_cols, " for ", map.rows(), "x",
            map.cols(), " at block ", map.block()));
  }
  if (static_cast<index_t>(map.values().size()) != want_rows * want_cols) {
    return Status::InvalidArgument(Cat("density map: ", map.values().size(),
                                       " cells, want ",
                                       want_rows * want_cols));
  }
  for (index_t bi = 0; bi < map.grid_rows(); ++bi) {
    for (index_t bj = 0; bj < map.grid_cols(); ++bj) {
      const double d = map.At(bi, bj);
      if (!std::isfinite(d) || d < 0.0 || d > 1.0 + 1e-9) {
        return Status::OutOfRange(Cat("density map: cell (", bi, ",", bj,
                                      ") = ", d, " outside [0, 1]"));
      }
    }
  }
  return Status::Ok();
}

namespace {

// Per-tile payload checks (shape match, deep payload validity, nnz
// bookkeeping).
Status ValidateTilePayload(index_t idx, const Tile& t, bool deep) {
  if (t.is_dense()) {
    const DenseMatrix& d = t.dense();
    if (d.rows() != t.rows() || d.cols() != t.cols()) {
      return Status::InvalidArgument(
          Cat(TileLabel(idx, t), ": payload shape ", d.rows(), "x", d.cols(),
              " != tile extent"));
    }
    if (deep) {
      ATMX_RETURN_IF_ERROR(ValidateDense(d));
      const index_t actual = d.CountNonZeros();
      if (actual != t.nnz()) {
        return Status::InvalidArgument(Cat(TileLabel(idx, t), ": stored nnz ",
                                           t.nnz(), " != payload nnz ",
                                           actual));
      }
    }
  } else {
    const CsrMatrix& s = t.sparse();
    if (s.rows() != t.rows() || s.cols() != t.cols()) {
      return Status::InvalidArgument(
          Cat(TileLabel(idx, t), ": payload shape ", s.rows(), "x", s.cols(),
              " != tile extent"));
    }
    if (s.nnz() != t.nnz()) {
      return Status::InvalidArgument(Cat(TileLabel(idx, t), ": stored nnz ",
                                         t.nnz(), " != payload nnz ",
                                         s.nnz()));
    }
    if (deep) ATMX_RETURN_IF_ERROR(ValidateCsr(s));
  }
  return Status::Ok();
}

// Exact cover: between every pair of consecutive row boundaries the
// intersecting tiles must tile [0, cols) contiguously. Boundaries are
// derived from the tiles themselves so stale band bookkeeping inside the
// ATMatrix cannot mask a gap or an overlap.
Status ValidateCoverage(const ATMatrix& m) {
  if (m.rows() == 0 || m.cols() == 0) {
    if (m.num_tiles() != 0) {
      return Status::InvalidArgument(
          Cat("atm: ", m.num_tiles(), " tiles on an empty ", m.rows(), "x",
              m.cols(), " matrix"));
    }
    return Status::Ok();
  }
  std::vector<index_t> bounds = {0, m.rows()};
  for (const Tile& t : m.tiles()) {
    bounds.push_back(t.row0());
    bounds.push_back(t.row_end());
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  struct Span {
    index_t col0, col_end, idx;
  };
  std::vector<Span> spans;
  for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
    const index_t y0 = bounds[b];
    const index_t y1 = bounds[b + 1];
    spans.clear();
    for (index_t ti = 0; ti < m.num_tiles(); ++ti) {
      const Tile& t = m.tiles()[ti];
      if (t.row0() <= y0 && t.row_end() >= y1) {
        spans.push_back({t.col0(), t.col_end(), ti});
      } else if (t.row0() < y1 && t.row_end() > y0) {
        return Status::Internal(
            Cat(TileLabel(ti, t), ": partially covers row band [", y0, ",",
                y1, ") despite boundary derivation"));
      }
    }
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.col0 < b.col0; });
    index_t expected = 0;
    for (const Span& s : spans) {
      if (s.col0 < expected) {
        return Status::InvalidArgument(
            Cat(TileLabel(s.idx, m.tiles()[s.idx]),
                ": overlaps a neighbor in row band [", y0, ",", y1, ")"));
      }
      if (s.col0 > expected) {
        return Status::InvalidArgument(Cat("atm: row band [", y0, ",", y1,
                                           ") uncovered in columns [",
                                           expected, ",", s.col0, ")"));
      }
      expected = s.col_end;
    }
    if (expected != m.cols()) {
      return Status::InvalidArgument(Cat("atm: row band [", y0, ",", y1,
                                         ") uncovered in columns [", expected,
                                         ",", m.cols(), ")"));
    }
  }

  // The ATMatrix's own band index must agree with the derived boundaries
  // (it goes stale when tiles are mutated without reconstruction).
  if (bounds != m.row_bounds()) {
    return Status::InvalidArgument(
        "atm: row band bookkeeping out of sync with tile extents");
  }
  return Status::Ok();
}

// Density-map cell counts must equal the recounted per-block non-zeros.
Status ValidateDensityCounts(const ATMatrix& m, double tolerance) {
  const DensityMap& map = m.density_map();
  const index_t b = m.b_atomic();
  std::vector<index_t> counts(
      static_cast<std::size_t>(map.grid_rows()) * map.grid_cols(), 0);
  const auto bump = [&](index_t row, index_t col) {
    counts[(row / b) * map.grid_cols() + col / b]++;
  };
  for (const Tile& t : m.tiles()) {
    if (t.is_dense()) {
      const DenseMatrix& d = t.dense();
      for (index_t i = 0; i < d.rows(); ++i) {
        for (index_t j = 0; j < d.cols(); ++j) {
          if (d.At(i, j) != 0.0) bump(t.row0() + i, t.col0() + j);
        }
      }
    } else {
      const CsrMatrix& s = t.sparse();
      for (index_t i = 0; i < s.rows(); ++i) {
        for (index_t col : s.RowCols(i)) bump(t.row0() + i, t.col0() + col);
      }
    }
  }
  for (index_t bi = 0; bi < map.grid_rows(); ++bi) {
    for (index_t bj = 0; bj < map.grid_cols(); ++bj) {
      const double expected =
          map.At(bi, bj) * static_cast<double>(map.BlockArea(bi, bj));
      const double actual =
          static_cast<double>(counts[bi * map.grid_cols() + bj]);
      if (std::abs(expected - actual) >
          tolerance * std::max(1.0, actual)) {
        return Status::InvalidArgument(
            Cat("atm: density map cell (", bi, ",", bj, ") implies ",
                expected, " non-zeros, tiles hold ", actual));
      }
    }
  }
  return Status::Ok();
}

// Quadtree geometry: each tile is the boundary clip of a square,
// power-of-two block region aligned to its own (unclipped) side.
Status ValidateQuadtreeGeometry(const ATMatrix& m) {
  const index_t b = m.b_atomic();
  for (index_t ti = 0; ti < m.num_tiles(); ++ti) {
    const Tile& t = m.tiles()[ti];
    const index_t extent = std::max(t.rows(), t.cols());
    const index_t side = NextPowerOfTwo(CeilDiv(extent, b)) * b;
    if (t.row0() % side != 0 || t.col0() % side != 0) {
      return Status::InvalidArgument(
          Cat(TileLabel(ti, t), ": origin not aligned to quadtree side ",
              side));
    }
    if (t.rows() != std::min(side, m.rows() - t.row0()) ||
        t.cols() != std::min(side, m.cols() - t.col0())) {
      return Status::InvalidArgument(
          Cat(TileLabel(ti, t),
              ": extent is not the boundary clip of a square side-", side,
              " quadtree region"));
    }
  }
  return Status::Ok();
}

// Config-derived invariants: Eq. 1 & 2 maximum tile bounds for melted
// (multi-block) tiles and the dense/sparse kind vs rho0_R.
Status ValidateConfigBounds(const ATMatrix& m, const AtmConfig& config) {
  const TileSizePolicy policy(config);
  for (index_t ti = 0; ti < m.num_tiles(); ++ti) {
    const Tile& t = m.tiles()[ti];
    const index_t side = std::max(t.rows(), t.cols());
    if (side > m.b_atomic()) {
      // Single atomic blocks are materialized unconditionally; only melted
      // regions were admitted under the Eq. 1 & 2 bounds.
      if (t.is_dense() && !policy.DenseTileFits(side)) {
        return Status::InvalidArgument(
            Cat(TileLabel(ti, t), ": dense side ", side,
                " exceeds Eq. 1 maximum ", policy.max_dense_tile()));
      }
      if (!t.is_dense() && !policy.SparseTileFits(side, t.nnz())) {
        return Status::InvalidArgument(
            Cat(TileLabel(ti, t), ": sparse tile (side ", side, ", nnz ",
                t.nnz(), ") exceeds the Eq. 2 bounds (max side ",
                policy.max_sparse_dim(), ", max bytes ",
                policy.max_sparse_bytes(), ")"));
      }
    }
    if (config.mixed_tiles && t.rows() > 0 && t.cols() > 0) {
      const double rho = t.Density();
      if (t.is_dense() && rho < config.rho_read - 1e-12) {
        return Status::InvalidArgument(
            Cat(TileLabel(ti, t), ": dense storage but density ", rho,
                " < rho_read ", config.rho_read));
      }
      if (!t.is_dense() && rho >= config.rho_read + 1e-12) {
        return Status::InvalidArgument(
            Cat(TileLabel(ti, t), ": sparse storage but density ", rho,
                " >= rho_read ", config.rho_read));
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Status ValidateAtMatrix(const ATMatrix& m, const AtmValidateOptions& options) {
  if (m.rows() < 0 || m.cols() < 0) {
    return Status::InvalidArgument(
        Cat("atm: negative shape ", m.rows(), "x", m.cols()));
  }
  if (!IsPowerOfTwo(m.b_atomic())) {
    return Status::InvalidArgument(
        Cat("atm: b_atomic ", m.b_atomic(), " is not a power of two"));
  }

  ATMX_RETURN_IF_ERROR(ValidateDensityMap(m.density_map()));
  if (m.density_map().rows() != m.rows() ||
      m.density_map().cols() != m.cols() ||
      m.density_map().block() != m.b_atomic()) {
    return Status::InvalidArgument(
        Cat("atm: density map covers ", m.density_map().rows(), "x",
            m.density_map().cols(), " at block ", m.density_map().block(),
            ", matrix is ", m.rows(), "x", m.cols(), " at block ",
            m.b_atomic()));
  }

  index_t total_nnz = 0;
  for (index_t ti = 0; ti < m.num_tiles(); ++ti) {
    const Tile& t = m.tiles()[ti];
    if (t.rows() <= 0 || t.cols() <= 0) {
      return Status::InvalidArgument(
          Cat(TileLabel(ti, t), ": empty extent"));
    }
    if (t.row0() < 0 || t.col0() < 0 || t.row_end() > m.rows() ||
        t.col_end() > m.cols()) {
      return Status::OutOfRange(
          Cat(TileLabel(ti, t), ": outside the ", m.rows(), "x", m.cols(),
              " matrix"));
    }
    ATMX_RETURN_IF_ERROR(ValidateTilePayload(ti, t, options.deep));
    total_nnz += t.nnz();
  }
  if (total_nnz != m.nnz()) {
    return Status::InvalidArgument(Cat("atm: tile nnz sums to ", total_nnz,
                                       ", matrix records ", m.nnz()));
  }

  ATMX_RETURN_IF_ERROR(ValidateCoverage(m));

  if (options.deep) {
    ATMX_RETURN_IF_ERROR(
        ValidateDensityCounts(m, options.density_count_tolerance));
  }
  if (options.quadtree_geometry) {
    ATMX_RETURN_IF_ERROR(ValidateQuadtreeGeometry(m));
  }
  if (options.config != nullptr) {
    ATMX_RETURN_IF_ERROR(ValidateConfigBounds(m, *options.config));
  }
  return Status::Ok();
}

Status ValidateColumnSlices(const CsrMatrix& whole,
                            std::span<const CsrMatrix> slices,
                            std::span<const index_t> bounds, index_t origin) {
  if (bounds.size() != slices.size() + 1 || bounds.front() != origin ||
      bounds.back() != origin + whole.cols()) {
    return Status::InvalidArgument(
        Cat("slices: ", slices.size(), " slices over ", bounds.size(),
            " bounds do not cover the ", whole.cols(), " columns"));
  }
  for (std::size_t s = 0; s < slices.size(); ++s) {
    if (slices[s].rows() != whole.rows() ||
        slices[s].cols() != bounds[s + 1] - bounds[s]) {
      return Status::InvalidArgument(
          Cat("slice ", s, ": shape ", slices[s].rows(), "x",
              slices[s].cols(), ", want ", whole.rows(), "x",
              bounds[s + 1] - bounds[s]));
    }
  }
  const auto bits = [](value_t v) { return std::bit_cast<std::uint64_t>(v); };
  for (index_t i = 0; i < whole.rows(); ++i) {
    const auto cols = whole.RowCols(i);
    const auto vals = whole.RowValues(i);
    std::size_t p = 0;
    for (std::size_t s = 0; s < slices.size(); ++s) {
      const index_t shift = bounds[s] - origin;
      const auto slice_cols = slices[s].RowCols(i);
      const auto slice_vals = slices[s].RowValues(i);
      for (std::size_t q = 0; q < slice_cols.size(); ++q, ++p) {
        if (p >= cols.size()) {
          return Status::InvalidArgument(
              Cat("slice ", s, " row ", i, ": entry ", q, " (column ",
                  slice_cols[q] + shift, ") is past the row's ", cols.size(),
                  " entries"));
        }
        if (cols[p] != slice_cols[q] + shift ||
            bits(vals[p]) != bits(slice_vals[q])) {
          return Status::InvalidArgument(
              Cat("slice ", s, " row ", i, ": entry ", q, " (column ",
                  slice_cols[q] + shift, ", value ", slice_vals[q],
                  ") differs from the row's entry ", p, " (column ", cols[p],
                  ", value ", vals[p], ")"));
        }
      }
    }
    if (p != cols.size()) {
      return Status::InvalidArgument(Cat("slices of row ", i, " hold ", p,
                                         " of its ", cols.size(),
                                         " entries"));
    }
  }
  return Status::Ok();
}

}  // namespace atmx
