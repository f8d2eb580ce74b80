// Versioned binary serialization of the matrix representations, so that
// partitioned AT MATRICES can be persisted and reloaded without paying the
// Z-ordering + quadtree partitioning again — the restructuring cost of Fig. 7
// is a one-time cost per matrix in a database setting.
//
// Format: 8-byte magic "ATMXBIN1", a type tag, then type-specific payload.
// All integers are little-endian 64-bit. Files are self-describing and
// validated on load (bounds, monotone row pointers, tile coverage).

#ifndef ATMX_STORAGE_SERIALIZE_H_
#define ATMX_STORAGE_SERIALIZE_H_

#include <string>

#include "common/status.h"
#include "storage/coo_matrix.h"
#include "storage/csr_matrix.h"
#include "storage/dense_matrix.h"
#include "tile/at_matrix.h"

namespace atmx {

[[nodiscard]] Status SaveMatrix(const CooMatrix& m, const std::string& path);
[[nodiscard]] Status SaveMatrix(const CsrMatrix& m, const std::string& path);
[[nodiscard]] Status SaveMatrix(const DenseMatrix& m, const std::string& path);
[[nodiscard]] Status SaveMatrix(const ATMatrix& m, const std::string& path);

[[nodiscard]] Result<CooMatrix> LoadCooMatrix(const std::string& path);
[[nodiscard]] Result<CsrMatrix> LoadCsrMatrix(const std::string& path);
[[nodiscard]] Result<DenseMatrix> LoadDenseMatrix(const std::string& path);
[[nodiscard]] Result<ATMatrix> LoadATMatrix(const std::string& path);

// Peeks at the type tag of a saved file: "coo", "csr", "dense", "atm".
[[nodiscard]] Result<std::string> PeekMatrixType(const std::string& path);

}  // namespace atmx

#endif  // ATMX_STORAGE_SERIALIZE_H_
