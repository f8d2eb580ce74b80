#include "validate/debug_hooks.h"

#include <cstdio>
#include <cstdlib>

#include "validate/validate.h"

namespace atmx::validate_debug {

namespace {

thread_local int disable_depth = 0;

[[noreturn]] void HookFailed(const char* what, const char* where,
                             const Status& status) {
  std::fprintf(stderr, "ATMX_VALIDATE_DEBUG: %s invalid after %s: %s\n", what,
               where, status.ToString().c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace

bool CompiledIn() {
#ifdef ATMX_VALIDATE_DEBUG
  return true;
#else
  return false;
#endif
}

bool Enabled() { return CompiledIn() && disable_depth == 0; }

ScopedDisableValidation::ScopedDisableValidation() { ++disable_depth; }

ScopedDisableValidation::~ScopedDisableValidation() { --disable_depth; }

void CheckAtm(const ATMatrix& m, const char* where) {
  if (!Enabled()) return;
  // The hook itself builds temporaries; never re-enter.
  ScopedDisableValidation guard;
  const Status status = ValidateAtMatrix(m);
  if (!status.ok()) HookFailed("ATMatrix", where, status);
}

void CheckCsr(const CsrMatrix& m, const char* where) {
  if (!Enabled()) return;
  ScopedDisableValidation guard;
  const Status status = ValidateCsr(m);
  if (!status.ok()) HookFailed("CsrMatrix", where, status);
}

void CheckColumnSlices(const CsrMatrix& whole,
                       std::span<const CsrMatrix> slices,
                       std::span<const index_t> bounds, index_t origin,
                       const char* where) {
  if (!Enabled()) return;
  ScopedDisableValidation guard;
  const Status status = ValidateColumnSlices(whole, slices, bounds, origin);
  if (!status.ok()) HookFailed("column slices", where, status);
}

}  // namespace atmx::validate_debug
