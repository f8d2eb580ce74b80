// Hardware-counter profiling via perf_event_open: cycles, instructions,
// LLC loads/misses, dTLB misses, and task-clock, read per-thread with RAII
// scoped attribution. Counter deltas are attached as args to the trace
// spans the rest of the obs layer already emits, and accumulated into
// per-kernel-variant counters (`kernel.<variant>.cycles`,
// `kernel.<variant>.llc_misses`, ...), turning the paper's hardware
// claims — LLC-capacity-derived tile sizes, cache-friendly Morton layouts,
// NUMA-local stealing — into measurable quantities. Ratios (IPC, LLC miss
// rate) are left to readers, which divide the counters (`atmx profile`).
//
// Availability is probed exactly ONCE per process (first use): each
// counter is opened individually, so a virtualized host without a PMU can
// still deliver the software task-clock while the hardware events degrade
// to absent. The probe result is published as the metrics gauge
// `perf.available` (any counter usable) and `perf.hw_available` (hardware
// events usable); a restrictive `perf_event_paranoid` or a seccomp filter
// therefore costs one gauge, never a per-span failure. `ATMX_PERF=0`
// disables collection outright. When nothing is available every API below
// degrades to a deterministic stub: snapshots/deltas are invalid-and-zero
// and ScopedPerfSpan behaves exactly like a plain ScopedSpan.
//
// This header is only compiled under -DATMX_OBS=ON (it is pulled in via
// obs/obs.h's enabled branch); an OFF build carries no perf symbols.

#ifndef ATMX_OBS_PERF_COUNTERS_H_
#define ATMX_OBS_PERF_COUNTERS_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "obs/trace.h"

namespace atmx::obs {

// Counter slots. Values index the arrays below; the names double as the
// trace-arg keys and the metric-name suffixes.
enum class PerfCounterId : int {
  kCycles = 0,
  kInstructions,
  kLlcLoads,
  kLlcMisses,
  kDtlbMisses,
  kTaskClockNs,
};
inline constexpr int kNumPerfCounters = 6;

// Stable lower-case name: "cycles", "instructions", "llc_loads",
// "llc_misses", "dtlb_misses", "task_clock_ns".
const char* PerfCounterName(PerfCounterId id);

inline constexpr std::uint32_t PerfCounterBit(PerfCounterId id) {
  return 1u << static_cast<int>(id);
}

// Multiplex-scaled counter values at one point in time. `present` flags
// which slots have an open counter behind them; absent slots stay 0.
struct PerfSnapshot {
  bool valid = false;
  std::uint32_t present = 0;
  std::array<double, kNumPerfCounters> scaled{};
};

// Difference of two snapshots, clamped to >= 0 per counter (multiplex
// scaling can jitter slightly backwards) so trace args are always
// non-negative integers.
struct PerfDelta {
  bool valid = false;
  std::uint32_t present = 0;
  std::array<std::uint64_t, kNumPerfCounters> value{};

  bool has(PerfCounterId id) const {
    return (present & PerfCounterBit(id)) != 0;
  }
  std::uint64_t operator[](PerfCounterId id) const {
    return value[static_cast<std::size_t>(id)];
  }
};

// One thread's set of counter fds (each counter opened individually, so
// unsupported events degrade per-slot). Thread-affine: counts follow the
// opening thread. Not copyable; closed on destruction.
class PerfCounterSet {
 public:
  PerfCounterSet();
  ~PerfCounterSet();
  PerfCounterSet(const PerfCounterSet&) = delete;
  PerfCounterSet& operator=(const PerfCounterSet&) = delete;

  // Any counter open on this thread?
  bool valid() const { return present_ != 0; }
  std::uint32_t present() const { return present_; }

  // Current multiplex-scaled totals; invalid snapshot when nothing is
  // open (or collection is disabled).
  PerfSnapshot ReadNow() const;

 private:
  std::array<int, kNumPerfCounters> fds_;
  std::uint32_t present_ = 0;
};

// Process-wide one-time probe. Publishes `perf.available` and
// `perf.hw_available` gauges on the first call; honours ATMX_PERF=0.
bool PerfCountersAvailable();

// Runtime kill switch layered over the probe (used by tests to force the
// stub path and by ATMX_PERF=0). Collection happens only when the probe
// succeeded AND the switch is on (default on).
void SetPerfCollectionEnabled(bool enabled);
bool PerfCollectionActive();

// The calling thread's lazily-opened counter set, or nullptr when
// collection is inactive.
PerfCounterSet* ThreadPerfCounters();

// Snapshot of the calling thread's counters; deterministic invalid-zero
// stub when collection is inactive.
PerfSnapshot PerfBeginSnapshot();

// Delta from `begin` to now on the calling thread. Invalid (all zero) if
// `begin` is invalid or collection became inactive.
PerfDelta PerfDeltaSince(const PerfSnapshot& begin);

// Appends one TraceArg per present counter ("cycles": n, ...). No-op on
// an invalid delta.
void AppendPerfArgs(const PerfDelta& delta, std::vector<TraceArg>* args);

// Accumulates a delta under `metric_prefix` (e.g. "kernel.spspd_gemm"):
// one counter per present slot (`<prefix>.cycles`, ...). `metric_prefix`
// must outlive the call (it is only read, not stored). No-op on an
// invalid delta.
void AccumulatePerfMetrics(const char* metric_prefix, const PerfDelta& delta);

// RAII span with counter attribution: records the same complete trace
// event a ScopedSpan would (when the recorder is enabled), with the
// counter deltas of the enclosed scope appended to its args, and
// accumulates the delta under `metric_prefix` (pass nullptr to skip the
// metrics side). Nests freely — outer spans include inner ones, exactly
// like wall time. With counters unavailable this is bit-for-bit a plain
// timing span.
class ScopedPerfSpan {
 public:
  ScopedPerfSpan(const char* category, const char* name,
                 const char* metric_prefix,
                 std::initializer_list<TraceArg> args = {});
  ScopedPerfSpan(const ScopedPerfSpan&) = delete;
  ScopedPerfSpan& operator=(const ScopedPerfSpan&) = delete;
  ~ScopedPerfSpan();

 private:
  static constexpr std::int64_t kDisabled = -1;

  const char* category_;
  const char* name_;
  const char* metric_prefix_;
  std::int64_t start_ns_;
  PerfSnapshot begin_;
  std::vector<TraceArg> args_;
};

}  // namespace atmx::obs

#endif  // ATMX_OBS_PERF_COUNTERS_H_
