// Exposition of a MetricsRegistry snapshot for live scraping: the
// Prometheus/OpenMetrics text format (what `/metrics` serves and what
// `tools/check_metrics_endpoint.py` validates) and the flat JSON variant
// (`/metrics.json`, also backing `MetricsRegistry::ToJson`).
//
// Name mangling: registry names are dot-separated lower-case identifiers
// (`atmult.kernel.spspd_gemm.invocations`); OpenMetrics names admit only
// [a-zA-Z0-9_:], so dots — and any other foreign character — become
// underscores, and a leading digit gains a '_' prefix. Counters gain the
// conventional `_total` suffix; histograms render cumulative
// `_bucket{le="..."}` series ending in `+Inf`, plus `_sum` and `_count`.
//
// Compiled only under -DATMX_OBS=ON like the rest of the layer.

#ifndef ATMX_OBS_EXPOSITION_H_
#define ATMX_OBS_EXPOSITION_H_

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace atmx::obs {

// Maps a registry metric name onto the OpenMetrics charset: [a-zA-Z0-9_:]
// kept, everything else (dots included) replaced by '_', a leading digit
// prefixed with '_'. Empty input stays empty (callers never register
// empty names; ATMX_CHECKed in the registry).
std::string MangleMetricName(std::string_view name);

// Renders `samples` (one registry Snapshot) as OpenMetrics text:
// `# TYPE` line per metric, counter samples as `<name>_total <v>`,
// gauges as `<name> <v>`, histograms as cumulative buckets + sum + count,
// terminated by `# EOF`.
std::string RenderOpenMetrics(const std::vector<MetricSample>& samples);

// Renders `samples` as the flat JSON object
// {"metric.name": value | {"count":..,"sum":..,"bounds":[..],
//  "buckets":[..]}, ...} — original (unmangled) names, keys escaped via
// EscapeJson. MetricsRegistry::ToJson delegates here.
std::string RenderMetricsJson(const std::vector<MetricSample>& samples);

}  // namespace atmx::obs

#endif  // ATMX_OBS_EXPOSITION_H_
