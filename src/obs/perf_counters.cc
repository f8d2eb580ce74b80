#include "obs/perf_counters.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "obs/metrics.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace atmx::obs {

namespace {

constexpr const char* kCounterNames[kNumPerfCounters] = {
    "cycles",      "instructions", "llc_loads",
    "llc_misses",  "dtlb_misses",  "task_clock_ns",
};

// Hardware events occupy the low bits; used to derive perf.hw_available.
constexpr std::uint32_t kHardwareMask =
    PerfCounterBit(PerfCounterId::kCycles) |
    PerfCounterBit(PerfCounterId::kInstructions) |
    PerfCounterBit(PerfCounterId::kLlcLoads) |
    PerfCounterBit(PerfCounterId::kLlcMisses) |
    PerfCounterBit(PerfCounterId::kDtlbMisses);

std::atomic<bool> g_collection_enabled{true};

#if defined(__linux__)

struct EventSpec {
  std::uint32_t type;
  std::uint64_t config;
};

constexpr std::uint64_t CacheConfig(std::uint64_t cache, std::uint64_t op,
                                    std::uint64_t result) {
  return cache | (op << 8) | (result << 16);
}

const EventSpec kEventSpecs[kNumPerfCounters] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HW_CACHE,
     CacheConfig(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_OP_READ,
                 PERF_COUNT_HW_CACHE_RESULT_ACCESS)},
    {PERF_TYPE_HW_CACHE,
     CacheConfig(PERF_COUNT_HW_CACHE_LL, PERF_COUNT_HW_CACHE_OP_READ,
                 PERF_COUNT_HW_CACHE_RESULT_MISS)},
    {PERF_TYPE_HW_CACHE,
     CacheConfig(PERF_COUNT_HW_CACHE_DTLB, PERF_COUNT_HW_CACHE_OP_READ,
                 PERF_COUNT_HW_CACHE_RESULT_MISS)},
    {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK},
};

// Opens one counter for the calling thread (pid=0, any cpu). Returns the
// fd or -1. exclude_kernel/hv keeps the open legal under
// perf_event_paranoid=2 (user-space-only measurement of own process).
int OpenCounter(int slot) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = kEventSpecs[slot].type;
  attr.config = kEventSpecs[slot].config;
  attr.disabled = 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format =
      PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  const long fd = syscall(SYS_perf_event_open, &attr, /*pid=*/0,
                          /*cpu=*/-1, /*group_fd=*/-1, /*flags=*/0UL);
  return fd < 0 ? -1 : static_cast<int>(fd);
}

#endif  // __linux__

// Probes each counter once on the first calling thread; publishes the
// availability gauges. The mask is what later per-thread opens attempt.
std::uint32_t ProbeOnce() {
  static const std::uint32_t mask = [] {
    std::uint32_t m = 0;
    const char* env = std::getenv("ATMX_PERF");
    const bool env_off = env != nullptr && env[0] == '0' && env[1] == '\0';
#if defined(__linux__)
    if (!env_off) {
      for (int slot = 0; slot < kNumPerfCounters; ++slot) {
        const int fd = OpenCounter(slot);
        if (fd >= 0) {
          m |= 1u << slot;
          close(fd);
        }
      }
    }
#else
    (void)env_off;
#endif
    MetricsRegistry::Global().GetGauge("perf.available").Set(m != 0 ? 1 : 0);
    MetricsRegistry::Global()
        .GetGauge("perf.hw_available")
        .Set((m & kHardwareMask) != 0 ? 1 : 0);
    return m;
  }();
  return mask;
}

}  // namespace

const char* PerfCounterName(PerfCounterId id) {
  return kCounterNames[static_cast<int>(id)];
}

bool PerfCountersAvailable() { return ProbeOnce() != 0; }

void SetPerfCollectionEnabled(bool enabled) {
  g_collection_enabled.store(enabled, std::memory_order_relaxed);
}

bool PerfCollectionActive() {
  return g_collection_enabled.load(std::memory_order_relaxed) &&
         PerfCountersAvailable();
}

PerfCounterSet::PerfCounterSet() {
  fds_.fill(-1);
#if defined(__linux__)
  const std::uint32_t mask = ProbeOnce();
  for (int slot = 0; slot < kNumPerfCounters; ++slot) {
    if ((mask & (1u << slot)) == 0) continue;
    fds_[static_cast<std::size_t>(slot)] = OpenCounter(slot);
    if (fds_[static_cast<std::size_t>(slot)] >= 0) {
      present_ |= 1u << slot;
    }
  }
#endif
}

PerfCounterSet::~PerfCounterSet() {
#if defined(__linux__)
  for (int fd : fds_) {
    if (fd >= 0) close(fd);
  }
#endif
}

PerfSnapshot PerfCounterSet::ReadNow() const {
  PerfSnapshot snap;
  if (present_ == 0) return snap;
#if defined(__linux__)
  for (int slot = 0; slot < kNumPerfCounters; ++slot) {
    const int fd = fds_[static_cast<std::size_t>(slot)];
    if (fd < 0) continue;
    // read_format: value, time_enabled, time_running.
    std::uint64_t buf[3] = {0, 0, 0};
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n != static_cast<ssize_t>(sizeof(buf))) continue;
    // Multiplex scaling: extrapolate to the full enabled window when the
    // PMU timeshared this counter with others.
    double value = static_cast<double>(buf[0]);
    if (buf[2] > 0 && buf[1] > buf[2]) {
      value *= static_cast<double>(buf[1]) / static_cast<double>(buf[2]);
    }
    snap.scaled[static_cast<std::size_t>(slot)] = value;
    snap.present |= 1u << slot;
  }
#endif
  snap.valid = snap.present != 0;
  return snap;
}

PerfCounterSet* ThreadPerfCounters() {
  if (!PerfCollectionActive()) return nullptr;
  thread_local std::unique_ptr<PerfCounterSet> set;
  if (set == nullptr) set = std::make_unique<PerfCounterSet>();
  return set->valid() ? set.get() : nullptr;
}

PerfSnapshot PerfBeginSnapshot() {
  PerfCounterSet* set = ThreadPerfCounters();
  return set != nullptr ? set->ReadNow() : PerfSnapshot{};
}

PerfDelta PerfDeltaSince(const PerfSnapshot& begin) {
  PerfDelta delta;
  if (!begin.valid) return delta;
  PerfCounterSet* set = ThreadPerfCounters();
  if (set == nullptr) return delta;
  const PerfSnapshot end = set->ReadNow();
  delta.present = begin.present & end.present;
  if (delta.present == 0) return delta;
  for (int slot = 0; slot < kNumPerfCounters; ++slot) {
    if ((delta.present & (1u << slot)) == 0) continue;
    const double d = end.scaled[static_cast<std::size_t>(slot)] -
                     begin.scaled[static_cast<std::size_t>(slot)];
    delta.value[static_cast<std::size_t>(slot)] =
        d > 0.0 ? static_cast<std::uint64_t>(d) : 0;
  }
  delta.valid = true;
  return delta;
}

void AppendPerfArgs(const PerfDelta& delta, std::vector<TraceArg>* args) {
  if (!delta.valid) return;
  for (int slot = 0; slot < kNumPerfCounters; ++slot) {
    if ((delta.present & (1u << slot)) == 0) continue;
    args->emplace_back(kCounterNames[slot],
                       delta.value[static_cast<std::size_t>(slot)]);
  }
}

void AccumulatePerfMetrics(const char* metric_prefix,
                           const PerfDelta& delta) {
  if (!delta.valid || metric_prefix == nullptr) return;
  MetricsRegistry& registry = MetricsRegistry::Global();
  const std::string prefix(metric_prefix);
  for (int slot = 0; slot < kNumPerfCounters; ++slot) {
    if ((delta.present & (1u << slot)) == 0) continue;
    registry.GetCounter(prefix + "." + kCounterNames[slot])
        .Add(delta.value[static_cast<std::size_t>(slot)]);
  }
}

ScopedPerfSpan::ScopedPerfSpan(const char* category, const char* name,
                               const char* metric_prefix,
                               std::initializer_list<TraceArg> args)
    : category_(category),
      name_(name),
      metric_prefix_(metric_prefix),
      start_ns_(TraceRecorder::Global().enabled() ? TraceRecorder::NowNanos()
                                                  : kDisabled) {
  // Counters are read even with tracing off: the per-variant metrics are
  // independent of the trace recorder (atmx profile runs without a trace).
  if (metric_prefix_ != nullptr || start_ns_ != kDisabled) {
    begin_ = PerfBeginSnapshot();
  }
  if (start_ns_ != kDisabled) {
    args_.assign(args.begin(), args.end());
  }
}

ScopedPerfSpan::~ScopedPerfSpan() {
  const PerfDelta delta = PerfDeltaSince(begin_);
  if (metric_prefix_ != nullptr) {
    AccumulatePerfMetrics(metric_prefix_, delta);
  }
  if (start_ns_ == kDisabled) return;
  TraceRecorder& recorder = TraceRecorder::Global();
  if (!recorder.enabled()) return;  // disabled mid-span: drop, like ScopedSpan
  const std::int64_t end_ns = TraceRecorder::NowNanos();
  AppendPerfArgs(delta, &args_);
  recorder.RecordComplete(category_, name_, start_ns_, end_ns - start_ns_,
                          args_);
}

}  // namespace atmx::obs
