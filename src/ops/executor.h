// The worker teams the operators run on. The paper forms its worker teams
// once (section III-F); here every product graph (ops/chain_exec.h) and
// SpMVParallel borrows a TeamScheduler of its config's (teams,
// threads-per-team) shape from a process-wide pool instead of forming
// teams per call. A scheduler serves one caller at a time: a caller takes
// an idle scheduler of its shape, or builds a new one when every
// scheduler of the shape is busy, and hands it back when its graph has
// run. Repeated callers reuse the same teams and driver threads, and
// concurrent callers run side by side, each on its own scheduler.

#ifndef ATMX_OPS_EXECUTOR_H_
#define ATMX_OPS_EXECUTOR_H_

#include <memory>
#include <utility>

#include "common/config.h"
#include "topology/thread_pool.h"

namespace atmx::internal {

// An idle scheduler of config's shape (EffectiveTeams() x
// EffectiveThreadsPerTeam()) lent to the holder until it goes out of
// scope. Pooled schedulers are never destroyed: joining their threads
// during static destruction would race the metrics and trace registries
// they use. Thread-safe.
class SchedulerLease {
 public:
  explicit SchedulerLease(const AtmConfig& config);
  // Returns the scheduler to its shape's idle list.
  ~SchedulerLease();

  SchedulerLease(const SchedulerLease&) = delete;
  SchedulerLease& operator=(const SchedulerLease&) = delete;

  TeamScheduler& operator*() const { return *scheduler_; }
  TeamScheduler* operator->() const { return scheduler_.get(); }

 private:
  std::pair<int, int> shape_;
  std::unique_ptr<TeamScheduler> scheduler_;
};

}  // namespace atmx::internal

#endif  // ATMX_OPS_EXECUTOR_H_
