#include "ops/executor.h"

#include <map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace atmx::internal {
namespace {

struct SchedulerPool {
  Mutex mu;
  std::map<std::pair<int, int>, std::vector<std::unique_ptr<TeamScheduler>>>
      idle ATMX_GUARDED_BY(mu);
};

SchedulerPool& Pool() {
  static SchedulerPool* const pool = new SchedulerPool();  // never destroyed
  return *pool;
}

}  // namespace

SchedulerLease::SchedulerLease(const AtmConfig& config)
    : shape_(config.EffectiveTeams(), config.EffectiveThreadsPerTeam()) {
  SchedulerPool& pool = Pool();
  {
    MutexLock lock(pool.mu);
    std::vector<std::unique_ptr<TeamScheduler>>& idle = pool.idle[shape_];
    if (!idle.empty()) {
      scheduler_ = std::move(idle.back());
      idle.pop_back();
      return;
    }
  }
  // Every scheduler of the shape is lent out (or none exists yet): form
  // new teams outside the lock, so other callers do not wait on it.
  scheduler_ = std::make_unique<TeamScheduler>(shape_.first, shape_.second);
}

SchedulerLease::~SchedulerLease() {
  SchedulerPool& pool = Pool();
  MutexLock lock(pool.mu);
  pool.idle[shape_].push_back(std::move(scheduler_));
}

}  // namespace atmx::internal
