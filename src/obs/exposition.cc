#include "obs/exposition.h"

#include <cstdio>
#include <sstream>

#include "obs/json_util.h"

namespace atmx::obs {

namespace {

std::string FmtDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf);
}

bool IsMetricChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

}  // namespace

std::string MangleMetricName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (!name.empty() && name.front() >= '0' && name.front() <= '9') {
    out.push_back('_');
  }
  for (char c : name) {
    out.push_back(IsMetricChar(c) ? c : '_');
  }
  return out;
}

std::string RenderOpenMetrics(const std::vector<MetricSample>& samples) {
  std::ostringstream os;
  for (const MetricSample& s : samples) {
    const std::string name = MangleMetricName(s.name);
    switch (s.type) {
      case MetricSample::Type::kCounter:
        os << "# TYPE " << name << " counter\n";
        os << name << "_total " << s.counter_value << '\n';
        break;
      case MetricSample::Type::kGauge:
        os << "# TYPE " << name << " gauge\n";
        os << name << ' ' << FmtDouble(s.gauge_value) << '\n';
        break;
      case MetricSample::Type::kHistogram: {
        os << "# TYPE " << name << " histogram\n";
        // Cumulative buckets over the per-bucket counts; the +Inf bucket
        // is the coherently snapshotted total count, which the Observe
        // ordering guarantees is >= the sum of the per-bucket counts (see
        // Histogram::TakeSnapshot), so the series stays non-decreasing
        // and +Inf == _count as OpenMetrics requires.
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < s.bounds.size(); ++i) {
          if (i < s.buckets.size()) cumulative += s.buckets[i];
          os << name << "_bucket{le=\"" << FmtDouble(s.bounds[i]) << "\"} "
             << cumulative << '\n';
        }
        os << name << "_bucket{le=\"+Inf\"} " << s.count << '\n';
        os << name << "_sum " << FmtDouble(s.sum) << '\n';
        os << name << "_count " << s.count << '\n';
        break;
      }
    }
  }
  os << "# EOF\n";
  return os.str();
}

std::string RenderMetricsJson(const std::vector<MetricSample>& samples) {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const MetricSample& s : samples) {
    if (!first) os << ",\n";
    first = false;
    os << '"' << EscapeJson(s.name) << "\":";
    switch (s.type) {
      case MetricSample::Type::kCounter:
        os << s.counter_value;
        break;
      case MetricSample::Type::kGauge:
        os << FmtDouble(s.gauge_value);
        break;
      case MetricSample::Type::kHistogram: {
        os << "{\"count\":" << s.count << ",\"sum\":" << FmtDouble(s.sum)
           << ",\"bounds\":[";
        for (std::size_t i = 0; i < s.bounds.size(); ++i) {
          if (i > 0) os << ',';
          os << FmtDouble(s.bounds[i]);
        }
        os << "],\"buckets\":[";
        for (std::size_t i = 0; i < s.buckets.size(); ++i) {
          if (i > 0) os << ',';
          os << s.buckets[i];
        }
        os << "]}";
        break;
      }
    }
  }
  os << '}';
  return os.str();
}

}  // namespace atmx::obs
