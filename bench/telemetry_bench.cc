// Telemetry-overhead micro-bench: what the live observability layer costs
// the process being observed. Cases (reported via --bench-out, gated in CI
// against bench/baselines/BENCH_telemetry_bench.json):
//
//   counter_hot_loop_unsampled  relaxed Counter::Increment loop, flight
//                               recorder off
//   counter_hot_loop_sampled    same loop with the flight recorder
//                               refreshing every 5 ms — the headline
//                               number: refreshing must not tax
//                               instrumented hot paths
//   registry_snapshot           MetricsRegistry::Snapshot of a realistic
//                               registry shape (counters+gauges+histogram)
//   render_openmetrics          OpenMetrics text rendering of that snapshot
//   handle_metrics_request      full GET /metrics request -> response

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "obs/obs.h"
#if defined(ATMX_OBS_ENABLED)
#include <chrono>

#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/stats_server.h"
#endif

int main(int argc, char** argv) {
  atmx::bench::InitBenchTelemetry("telemetry_bench", argc, argv);
#if !defined(ATMX_OBS_ENABLED)
  std::printf(
      "telemetry_bench: built with -DATMX_OBS=OFF, nothing to measure\n");
  return 0;
#else
  atmx::bench::BenchEnv env = atmx::bench::BenchEnv::FromEnvironment();
  atmx::bench::BenchReporter::Global().Configure("telemetry_bench", env);
  atmx::bench::BenchReporter& reporter = atmx::bench::BenchReporter::Global();
  std::printf("=== Telemetry overhead ===\n%s\n\n", env.Describe().c_str());

  atmx::obs::MetricsRegistry& registry =
      atmx::obs::MetricsRegistry::Global();
  // A realistic registry shape, so snapshot/render costs are not measured
  // on a near-empty map.
  for (int i = 0; i < 32; ++i) {
    registry.GetCounter("telemetry_bench.counter." + std::to_string(i))
        .Add(static_cast<std::uint64_t>(i));
    registry.GetGauge("telemetry_bench.gauge." + std::to_string(i))
        .Set(i * 0.5);
  }
  atmx::obs::Histogram& hist = registry.GetHistogram("telemetry_bench.hist");
  for (int i = 0; i < 1000; ++i) hist.Observe(i * 1e-4);

  constexpr int kOps = 1 << 24;
  atmx::obs::Counter& hot = registry.GetCounter("telemetry_bench.hot");
  const auto hot_loop = [&] {
    for (int i = 0; i < kOps; ++i) hot.Increment();
  };

  const double unsampled =
      reporter.MeasureCase("counter_hot_loop_unsampled", hot_loop);

  // A recorder installed from the environment is replaced for the timed
  // window, so the refresh period is the one measured here.
  atmx::obs::FlightRecorder& flight = atmx::obs::FlightRecorder::Global();
  flight.Uninstall();
  atmx::obs::FlightRecorder::Options flight_options;
  flight_options.refresh_period = std::chrono::milliseconds(5);
  atmx::Status status = flight.Install(flight_options);
  if (!status.ok()) {
    std::fprintf(stderr, "telemetry_bench: %s\n", status.ToString().c_str());
    return 1;
  }
  atmx::obs::Counter& refreshes = registry.GetCounter("flight.refreshes");
  const std::uint64_t refreshes_before = refreshes.Value();
  const double sampled =
      reporter.MeasureCase("counter_hot_loop_sampled", hot_loop);
  flight.Uninstall();
  const std::uint64_t refreshes_during = refreshes.Value() - refreshes_before;

  const double snapshot_seconds =
      reporter.MeasureCase("registry_snapshot", [&] {
        for (int i = 0; i < 100; ++i) {
          const auto samples = registry.Snapshot();
          (void)samples;
        }
      });
  const auto samples = registry.Snapshot();
  const double render_seconds =
      reporter.MeasureCase("render_openmetrics", [&] {
        for (int i = 0; i < 100; ++i) {
          const std::string text = atmx::obs::RenderOpenMetrics(samples);
          (void)text;
        }
      });
  const double handle_seconds =
      reporter.MeasureCase("handle_metrics_request", [&] {
        for (int i = 0; i < 100; ++i) {
          const std::string response = atmx::obs::StatsServer::HandleRequest(
              "GET /metrics HTTP/1.0\r\n\r\n", registry);
          (void)response;
        }
      });

  std::printf("counter increment, flight off  : %8.3f ns/op\n",
              unsampled / kOps * 1e9);
  std::printf("counter increment, flight 5ms  : %8.3f ns/op  (%+.1f%%)\n",
              sampled / kOps * 1e9,
              unsampled > 0.0 ? 100.0 * (sampled / unsampled - 1.0) : 0.0);
  std::printf("registry snapshot              : %8.3f us\n",
              snapshot_seconds / 100 * 1e6);
  std::printf("render /metrics (OpenMetrics)  : %8.3f us\n",
              render_seconds / 100 * 1e6);
  std::printf("serve  /metrics (request path) : %8.3f us\n",
              handle_seconds / 100 * 1e6);
  std::printf(
      "\nShape check: the sampled hot loop should run within noise of the "
      "unsampled one — the flight recorder's per-tick cost is a dump "
      "render on its own thread, never a tax on update paths.\n");
  std::printf("flight refreshes during the timed window: %llu\n",
              static_cast<unsigned long long>(refreshes_during));
  return 0;
#endif
}
