// Umbrella header of the observability layer. Instrumented code includes
// ONLY this header and uses the macros below; under -DATMX_OBS=OFF the
// macros expand to nothing, the obs sources are not compiled, and the
// binary carries zero references to any atmx::obs symbol.
//
// Macros (all no-ops when ATMX_OBS_ENABLED is not defined):
//   ATMX_TRACE_SPAN(cat, name)              RAII span over the enclosing
//                                           scope
//   ATMX_TRACE_SPAN_ARGS(cat, name, ...)    same, ... = {"key", value}
//                                           initializer pairs
//   ATMX_TRACE_INSTANT(cat, name)           zero-duration marker
//   ATMX_COUNTER_ADD(name, delta)           registry counter += delta
//   ATMX_COUNTER_INC(name)                  registry counter += 1
//   ATMX_GAUGE_SET(name, value)             registry gauge = value
//   ATMX_HISTOGRAM_OBSERVE(name, value)     default-bucket histogram
//   ATMX_HISTOGRAM_OBSERVE_WITH(name, value, b0, b1, ...)
//                                           custom upper bucket bounds
//                                           (used on first registration)
//   ATMX_PERF_SPAN(cat, name, prefix)       RAII span with hardware-counter
//                                           deltas attached as args and
//                                           accumulated under `prefix`
//                                           (nullptr = trace-only); plain
//                                           timing span when counters are
//                                           unavailable
//   ATMX_PERF_SPAN_ARGS(cat, name, prefix, ...)
//                                           same, ... = {"key", value} pairs
//
// Metric/span name arguments must be string literals: the counter macros
// cache the registry lookup in a function-local static, and the trace
// recorder stores the name pointer.
//
// Heavier instrumentation (audit-ledger records, per-node placement
// gauges) does not fit a one-line macro; such blocks are guarded with
// `#if defined(ATMX_OBS_ENABLED)` at the call site.

#ifndef ATMX_OBS_OBS_H_
#define ATMX_OBS_OBS_H_

#if defined(ATMX_OBS_ENABLED)

#include "obs/mem_tracker.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"

#define ATMX_OBS_CONCAT_INNER(a, b) a##b
#define ATMX_OBS_CONCAT(a, b) ATMX_OBS_CONCAT_INNER(a, b)

#define ATMX_TRACE_SPAN(cat, name)                                        \
  ::atmx::obs::ScopedSpan ATMX_OBS_CONCAT(atmx_trace_span_, __COUNTER__)( \
      cat, name)

#define ATMX_TRACE_SPAN_ARGS(cat, name, ...)                              \
  ::atmx::obs::ScopedSpan ATMX_OBS_CONCAT(atmx_trace_span_, __COUNTER__)( \
      cat, name, {__VA_ARGS__})

#define ATMX_TRACE_INSTANT(cat, name) \
  ::atmx::obs::TraceRecorder::Global().RecordInstant(cat, name)

#define ATMX_PERF_SPAN(cat, name, prefix)        \
  ::atmx::obs::ScopedPerfSpan ATMX_OBS_CONCAT(   \
      atmx_perf_span_, __COUNTER__)(cat, name, prefix)

#define ATMX_PERF_SPAN_ARGS(cat, name, prefix, ...) \
  ::atmx::obs::ScopedPerfSpan ATMX_OBS_CONCAT(      \
      atmx_perf_span_, __COUNTER__)(cat, name, prefix, {__VA_ARGS__})

#define ATMX_COUNTER_ADD(name, delta)                                  \
  do {                                                                 \
    static ::atmx::obs::Counter& atmx_obs_counter =                    \
        ::atmx::obs::MetricsRegistry::Global().GetCounter(name);       \
    atmx_obs_counter.Add(static_cast<std::uint64_t>(delta));           \
  } while (0)

#define ATMX_COUNTER_INC(name) ATMX_COUNTER_ADD(name, 1)

#define ATMX_GAUGE_SET(name, value)                              \
  do {                                                           \
    static ::atmx::obs::Gauge& atmx_obs_gauge =                  \
        ::atmx::obs::MetricsRegistry::Global().GetGauge(name);   \
    atmx_obs_gauge.Set(static_cast<double>(value));              \
  } while (0)

#define ATMX_HISTOGRAM_OBSERVE(name, value)                          \
  do {                                                               \
    static ::atmx::obs::Histogram& atmx_obs_hist =                   \
        ::atmx::obs::MetricsRegistry::Global().GetHistogram(name);   \
    atmx_obs_hist.Observe(static_cast<double>(value));               \
  } while (0)

#define ATMX_HISTOGRAM_OBSERVE_WITH(name, value, ...)              \
  do {                                                             \
    static ::atmx::obs::Histogram& atmx_obs_hist =                 \
        ::atmx::obs::MetricsRegistry::Global().GetHistogram(       \
            name, std::vector<double>{__VA_ARGS__});               \
    atmx_obs_hist.Observe(static_cast<double>(value));             \
  } while (0)

#else  // !defined(ATMX_OBS_ENABLED)

#define ATMX_TRACE_SPAN(cat, name) \
  do {                             \
  } while (0)
#define ATMX_TRACE_SPAN_ARGS(cat, name, ...) \
  do {                                       \
  } while (0)
#define ATMX_TRACE_INSTANT(cat, name) \
  do {                                \
  } while (0)
#define ATMX_PERF_SPAN(cat, name, prefix) \
  do {                                    \
  } while (0)
#define ATMX_PERF_SPAN_ARGS(cat, name, prefix, ...) \
  do {                                              \
  } while (0)
#define ATMX_COUNTER_ADD(name, delta) \
  do {                                \
  } while (0)
#define ATMX_COUNTER_INC(name) \
  do {                         \
  } while (0)
#define ATMX_GAUGE_SET(name, value) \
  do {                              \
  } while (0)
#define ATMX_HISTOGRAM_OBSERVE(name, value) \
  do {                                      \
  } while (0)
#define ATMX_HISTOGRAM_OBSERVE_WITH(name, value, ...) \
  do {                                                \
  } while (0)

#endif  // ATMX_OBS_ENABLED

#endif  // ATMX_OBS_OBS_H_
