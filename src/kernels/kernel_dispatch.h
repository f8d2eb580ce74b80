// Uniform dispatch over the eight multiplication kernels based on the
// representations of A, B and the target. The ATMULT operator and its
// optimizer (section III) only talk to this interface, which keeps the
// optimization logic decoupled from the kernel implementations — the
// paper's plug-in property.

#ifndef ATMX_KERNELS_KERNEL_DISPATCH_H_
#define ATMX_KERNELS_KERNEL_DISPATCH_H_

#include "kernels/kernel_common.h"
#include "kernels/sparse_accumulator.h"
#include "storage/dense_matrix.h"

namespace atmx {

// Dense-target dispatch: C[i0:i1, :] += (A * B)[i0:i1, :]. Shapes must
// agree: a.rows()==c.rows, b.cols()==c.cols, a.cols()==b.rows().
void MultiplyIntoDense(const Operand& a, const Operand& b,
                       const DenseMutView& c, index_t i0, index_t i1);

// Sparse-target dispatch: accumulate result row i into the SPA (width must
// equal b.cols()).
void AccumulateRowInto(const Operand& a, const Operand& b, index_t i,
                       SparseAccumulator* spa);

// Kernel variant implied by the operand/target representations.
KernelType DispatchKernelType(const Operand& a, const Operand& b,
                              bool c_dense);

// Stable metrics-registry counter name of one kernel variant
// ("atmult.kernel.<variant>.invocations"); a static literal, safe to hold.
// One invocation = one tile-pair multiplication executed in that variant,
// regardless of how many row chunks the worker team splits it into.
const char* KernelMetricName(KernelType type);

// Stable metric-name prefix for the hardware-counter telemetry of one
// kernel variant ("kernel.<variant>"); the perf layer appends ".cycles",
// ".llc_misses", ... to it. A static literal, safe to hold.
const char* KernelPerfMetricPrefix(KernelType type);

}  // namespace atmx

#endif  // ATMX_KERNELS_KERNEL_DISPATCH_H_
