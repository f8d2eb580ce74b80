// Debug wiring for the structural validators: when the library is compiled
// with ATMX_VALIDATE_DEBUG (a CMake option, ON by default in Debug builds),
// the construction paths — ATMatrix assembly, Retile, the CSR conversions,
// and the ATMULT result — re-validate their outputs and abort with the
// precise violation on failure. Release builds compile the hooks away.
//
// Tests that intentionally build corrupt structures (the validator fuzz
// harness, serialization error paths) suspend the hooks on their thread
// with ScopedDisableValidation.

#ifndef ATMX_VALIDATE_DEBUG_HOOKS_H_
#define ATMX_VALIDATE_DEBUG_HOOKS_H_

#include <span>

#include "common/types.h"

namespace atmx {

class ATMatrix;
class CsrMatrix;

namespace validate_debug {

// True when the library was compiled with the debug-validation hooks.
bool CompiledIn();

// True when hooks are active on this thread (compiled in and not
// suspended).
bool Enabled();

// Suspends the debug-validation hooks on the current thread for the
// guard's lifetime. Nestable.
class ScopedDisableValidation {
 public:
  ScopedDisableValidation();
  ~ScopedDisableValidation();

  ScopedDisableValidation(const ScopedDisableValidation&) = delete;
  ScopedDisableValidation& operator=(const ScopedDisableValidation&) = delete;
};

// Hook bodies: validate and abort (via ATMX_CHECK machinery) on violation.
// `where` names the construction path for the failure message.
void CheckAtm(const ATMatrix& m, const char* where);
void CheckCsr(const CsrMatrix& m, const char* where);
// Column slices of `whole` (see ValidateColumnSlices).
void CheckColumnSlices(const CsrMatrix& whole,
                       std::span<const CsrMatrix> slices,
                       std::span<const index_t> bounds, index_t origin,
                       const char* where);

}  // namespace validate_debug
}  // namespace atmx

#ifdef ATMX_VALIDATE_DEBUG
#define ATMX_VALIDATE_ATM(m, where) ::atmx::validate_debug::CheckAtm(m, where)
#define ATMX_VALIDATE_CSR(m, where) ::atmx::validate_debug::CheckCsr(m, where)
#define ATMX_VALIDATE_COLUMN_SLICES(whole, slices, bounds, origin, where) \
  ::atmx::validate_debug::CheckColumnSlices(whole, slices, bounds, origin, \
                                            where)
#else
#define ATMX_VALIDATE_ATM(m, where) \
  do {                              \
  } while (false)
#define ATMX_VALIDATE_CSR(m, where) \
  do {                              \
  } while (false)
#define ATMX_VALIDATE_COLUMN_SLICES(whole, slices, bounds, origin, where) \
  do {                                                                  \
  } while (false)
#endif

#endif  // ATMX_VALIDATE_DEBUG_HOOKS_H_
