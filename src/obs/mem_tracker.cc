#include "obs/mem_tracker.h"

#include "obs/metrics.h"

namespace atmx::obs {

MemTracker& MemTracker::Global() {
  static MemTracker* tracker = new MemTracker();
  return *tracker;
}

void MemTracker::PublishGauges() {
  // Gauge references are stable for the registry's lifetime; cache them.
  static Gauge& current_gauge =
      MetricsRegistry::Global().GetGauge("mem.current_bytes");
  static Gauge& high_water_gauge =
      MetricsRegistry::Global().GetGauge("mem.high_water_bytes");
  current_gauge.Set(static_cast<double>(current_bytes()));
  high_water_gauge.Set(static_cast<double>(high_water_bytes()));
}

void MemTracker::RecordAlloc(std::size_t bytes) {
  if (bytes == 0) return;
  const std::uint64_t now =
      current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::uint64_t peak = high_water_.load(std::memory_order_relaxed);
  while (now > peak && !high_water_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  PublishGauges();
}

void MemTracker::RecordFree(std::size_t bytes) {
  if (bytes == 0) return;
  std::uint64_t cur = current_.load(std::memory_order_relaxed);
  std::uint64_t next;
  do {
    next = cur >= bytes ? cur - bytes : 0;
  } while (!current_.compare_exchange_weak(cur, next,
                                           std::memory_order_relaxed));
  PublishGauges();
}

void MemTracker::ResetForTesting() {
  current_.store(0, std::memory_order_relaxed);
  high_water_.store(0, std::memory_order_relaxed);
  PublishGauges();
}

}  // namespace atmx::obs
