// Two-level parallel execution (section III-F): worker *teams* — one per
// NUMA socket — each consisting of several threads. Inter-tile parallelism
// runs different (tile-row, tile-col) pairs on different teams; intra-tile
// parallelism splits one tile multiplication across a team's threads.
//
// Beyond the paper's static per-team queues, TeamScheduler implements
// locality-first work stealing (see docs/SCHEDULER.md): each team drains
// its home queue front-to-back in longest-processing-time-first order, and
// an idle team steals from the *tail* of the NUMA-nearest victim's deque —
// home tasks keep their first-touch locality and stolen tasks are the cold
// cheap tail, not the hot expensive head.

#ifndef ATMX_TOPOLOGY_THREAD_POOL_H_
#define ATMX_TOPOLOGY_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace atmx {

// A fixed group of persistent threads that execute broadcast jobs. On real
// NUMA hardware the team would be pinned to one socket; this reproduction
// records the socket id so placement decisions and locality accounting work
// identically.
class WorkerTeam {
 public:
  // team_id doubles as the NUMA node the team is (logically) pinned to.
  WorkerTeam(int team_id, int num_threads);
  ~WorkerTeam();

  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

  int team_id() const { return team_id_; }
  int size() const { return static_cast<int>(threads_.size()) + 1; }

  // Runs fn(thread_index) on every team thread (including the calling
  // thread as index 0) and returns when all are done. Not reentrant.
  void ParallelRun(const std::function<void(int)>& fn);

  // Dynamic parallel-for over [0, n) in chunks of `grain`:
  // fn(begin, end) with end - begin <= grain.
  void ParallelFor(index_t n, index_t grain,
                   const std::function<void(index_t, index_t)>& fn);

 private:
  void WorkerLoop(int thread_index);

  const int team_id_;
  std::vector<std::thread> threads_;

  Mutex mutex_;
  CondVar job_ready_;
  CondVar job_done_;
  const std::function<void(int)>* job_ ATMX_GUARDED_BY(mutex_) = nullptr;
  // Atomic so WorkerLoop can spin briefly on a new generation without the
  // mutex before falling back to the condvar wait (small-tile wake
  // latency). Both are still only *written* under mutex_.
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<bool> shutdown_{false};
  int pending_ ATMX_GUARDED_BY(mutex_) = 0;
};

// Scheduling policy of one TeamScheduler batch.
struct ScheduleOptions {
  // When true, an idle team steals tasks from the tail of the NUMA-nearest
  // non-empty victim queue instead of going idle. When false the scheduler
  // is the paper's static one: every task runs on its home team, in
  // submission order.
  bool work_stealing = true;
  // Optional per-task cost estimate (abstract units; only relative
  // magnitudes matter). When set and work_stealing is on, each home queue
  // is drained longest-processing-time-first, so the expensive head stays
  // home-local and thieves take the cheap cold tail. Evaluated once per
  // initially-ready task before execution starts (released successors
  // jump the queue instead).
  std::function<double(index_t)> cost_of;
  // Optional admission gate: a dependency-ready task is offered to
  // `admit` before it runs (outside any scheduler lock). Returning false
  // parks the task; it is offered again after the next task completion
  // (at most one retry per parked task per completion). When every queue
  // is empty, nothing is in flight, and parked tasks remain, the oldest
  // parked task is admitted with force=true — the callback must accept it
  // (backpressure may never deadlock the graph; callers over budget count
  // these forced admissions instead of refusing).
  std::function<bool(index_t task, bool force)> admit;
};

// Per-batch outcome of one TeamScheduler batch, sized by num_teams().
struct ScheduleStats {
  std::vector<index_t> executed_per_team;  // tasks run by each team
  std::vector<index_t> stolen_per_team;    // subset executed off-home
  std::vector<double> busy_seconds;        // per-team task wall time
  // Per-team driver-thread CPU time inside tasks. On a host with fewer
  // cores than teams the drivers timeshare and wall time counts slices
  // where other teams ran; CPU time is what the team's tasks would take on
  // a dedicated socket, so its per-team max is the topology-faithful
  // makespan (exact when threads_per_team == 1, where the whole task body
  // runs on the driver thread).
  std::vector<double> cpu_seconds;
  double makespan_seconds = 0.0;           // wall time of the whole batch

  std::uint64_t TotalSteals() const;
  double TotalBusySeconds() const;
};

// A set of worker teams; tasks are queued per team (the home node of the
// task's A tile-row). Each team drains its own queue — "all
// tile-multiplications referring to a particular tile-row-column pair are
// executed one after another, and by the same worker team" — unless work
// stealing is enabled (the default), in which case a team whose queue runs
// dry takes over whole tasks from the NUMA-nearest loaded team. Stealing
// moves complete tasks, never splits one, so results are identical
// regardless of which team executes a task.
//
// The teams and one driver thread per team are formed once, in the
// constructor, and joined in the destructor (the paper forms its teams
// once, III-F). Each batch is handed to those drivers; batches run one at
// a time, so a caller that submits while another caller's batch runs
// waits until that batch finished.
class TeamScheduler {
 public:
  TeamScheduler(int num_teams, int threads_per_team);
  // Joins the drivers; no batch may be running.
  ~TeamScheduler();

  TeamScheduler(const TeamScheduler&) = delete;
  TeamScheduler& operator=(const TeamScheduler&) = delete;

  int num_teams() const { return static_cast<int>(teams_.size()); }
  WorkerTeam& team(int t) { return *teams_[t]; }

  // Runs a task DAG: `dep_count[t]` is the number of predecessors of task
  // t; `successors[t]` lists the tasks unblocked when t completes (each
  // successor's count drops by one per listed edge). `home_of(task)`
  // assigns each task to a team queue; `run(team, task)` performs the work
  // on the *executing* team (== home team unless stolen) and may use
  // `team.ParallelFor` for intra-task parallelism. Blocks until all tasks
  // finish; fills `stats` when non-null.
  //
  // A task is released to its home queue the moment its count reaches
  // zero — there is no global barrier between "phases", which is what lets
  // a fused chain start a downstream product's tile while sibling tiles of
  // the upstream product are still running. Newly released tasks are
  // pushed to the *front* of their home queue so consumers run while their
  // producer's output is still cache-hot; the initially-ready set keeps
  // submission order (LPT when `options.cost_of` is set). Stealing takes
  // from the back. When `options.admit` is set, ready tasks pass the
  // admission gate before running (see ScheduleOptions::admit); rejected
  // tasks park until a completion frees resources, with a forced admission
  // of the oldest parked task whenever nothing is in flight so
  // backpressure can never deadlock the batch. A driver leaves the batch as
  // soon as every task is claimed and none is parked. The graph must be
  // acyclic with consistent counts/edges or the call deadlocks its drivers;
  // both are checked on completion. Safe to call from several threads: a
  // call waits for the running batch before it hands its own to the
  // drivers. Not reentrant: a task must not submit to the scheduler that
  // runs it.
  void RunTaskGraph(index_t num_tasks,
                    const std::vector<index_t>& dep_count,
                    const std::vector<std::vector<index_t>>& successors,
                    const std::function<int(index_t)>& home_of,
                    const std::function<void(WorkerTeam&, index_t)>& run,
                    const ScheduleOptions& options, ScheduleStats* stats);

  // Independent batch of tasks 0..num_tasks-1: RunTaskGraph with no edges.
  void RunTasks(index_t num_tasks,
                const std::function<int(index_t)>& home_of,
                const std::function<void(WorkerTeam&, index_t)>& run,
                const ScheduleOptions& options = ScheduleOptions(),
                ScheduleStats* stats = nullptr);

 private:
  // Hands `drive` to every driver — driver t runs drive(t) — and returns
  // once all of them returned, with the seconds from hand-over to then.
  // Waits first while another batch runs.
  double RunOnDrivers(const std::function<void(int)>& drive);
  void DriverLoop(int team);

  std::vector<std::unique_ptr<WorkerTeam>> teams_;
  std::vector<std::thread> drivers_;

  Mutex mutex_;
  CondVar batch_posted_;  // drivers: a new batch or shutdown
  CondVar batch_done_;    // submitters: drivers finished, scheduler free
  // The running batch; non-null from post to the last driver's return,
  // which is the flag later submitters wait on.
  const std::function<void(int)>* batch_ ATMX_GUARDED_BY(mutex_) = nullptr;
  std::uint64_t generation_ ATMX_GUARDED_BY(mutex_) = 0;  // batches posted
  int busy_drivers_ ATMX_GUARDED_BY(mutex_) = 0;  // still in the batch
  bool shutdown_ ATMX_GUARDED_BY(mutex_) = false;
};

}  // namespace atmx

#endif  // ATMX_TOPOLOGY_THREAD_POOL_H_
