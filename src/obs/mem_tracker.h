// Process-wide memory telemetry: a logical allocation tracker with a
// monotonic high-water mark. Process RSS is the kernel's number, not the
// library's: readers take it from getrusage (`atmx profile` does).
//
// The logical tracker follows the *operator-transient* footprint: ATMULT
// records each produced result tile and every JIT-converted tile copy as
// it appears, and releases the operation's contribution when the operation
// ends (the result's ownership passes to the caller; the conversion cache
// dies with the operation). `mem.current_bytes` therefore ramps up and
// back down across an operation while `mem.high_water_bytes` ratchets to
// the peak — the number the water-level optimizer's projection
// (`atmult.waterlevel.predicted_bytes`, Eq. of section III-E) has to stay
// honest against.
//
// All update paths are a handful of relaxed atomics; gauges are published
// on every update so dashboards track live.
//
// Compiled only under -DATMX_OBS=ON; call sites are guarded like the rest
// of the obs layer.

#ifndef ATMX_OBS_MEM_TRACKER_H_
#define ATMX_OBS_MEM_TRACKER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace atmx::obs {

class MemTracker {
 public:
  static MemTracker& Global();

  // Adds `bytes` to the tracked-live total, ratcheting the high-water
  // mark; publishes mem.current_bytes / mem.high_water_bytes.
  void RecordAlloc(std::size_t bytes);

  // Subtracts `bytes`, clamping at zero (mismatched accounting must never
  // underflow into a huge unsigned value).
  void RecordFree(std::size_t bytes);

  std::uint64_t current_bytes() const {
    return current_.load(std::memory_order_relaxed);
  }
  // Never decreases (except via ResetForTesting).
  std::uint64_t high_water_bytes() const {
    return high_water_.load(std::memory_order_relaxed);
  }

  // Zeroes both values and republishes the gauges. Testing only.
  void ResetForTesting();

 private:
  MemTracker() = default;

  void PublishGauges();

  std::atomic<std::uint64_t> current_{0};
  std::atomic<std::uint64_t> high_water_{0};
};

}  // namespace atmx::obs

#endif  // ATMX_OBS_MEM_TRACKER_H_
