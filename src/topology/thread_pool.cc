#include "topology/thread_pool.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>

#include "common/check.h"
#include "common/timer.h"
#include "obs/obs.h"
#include "topology/numa_sim.h"

namespace atmx {

namespace {

// Bounded spin before the condvar wait in WorkerLoop. ParallelRun is called
// once per tile task, so on small tiles the condvar wake latency dominates
// the job itself; a short spin catches back-to-back jobs without burning a
// core when the team is genuinely idle.
constexpr int kWakeSpinIterations = 2048;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

WorkerTeam::WorkerTeam(int team_id, int num_threads) : team_id_(team_id) {
  ATMX_CHECK_GE(num_threads, 1);
  threads_.reserve(num_threads - 1);
  for (int i = 1; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

WorkerTeam::~WorkerTeam() {
  {
    MutexLock lock(mutex_);
    shutdown_.store(true, std::memory_order_release);
    generation_.fetch_add(1, std::memory_order_release);
  }
  job_ready_.NotifyAll();
  for (auto& t : threads_) t.join();
}

void WorkerTeam::ParallelRun(const std::function<void(int)>& fn) {
  if (threads_.empty()) {
    fn(0);
    return;
  }
  ATMX_COUNTER_INC("threadpool.parallel_runs");
  {
    MutexLock lock(mutex_);
    job_ = &fn;
    pending_ = static_cast<int>(threads_.size());
    generation_.fetch_add(1, std::memory_order_release);
  }
  job_ready_.NotifyAll();
  fn(0);  // The caller participates as thread 0.
  MutexLock lock(mutex_);
  while (pending_ != 0) job_done_.Wait(mutex_);
  job_ = nullptr;
}

void WorkerTeam::WorkerLoop(int thread_index) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    // Spin a bounded number of iterations on the (atomic) generation
    // counter; fall back to the condvar when no job shows up. The wait
    // predicate below re-checks under the mutex, so a generation observed
    // here just makes the wait return immediately.
    for (int spin = 0; spin < kWakeSpinIterations; ++spin) {
      if (shutdown_.load(std::memory_order_acquire) ||
          generation_.load(std::memory_order_acquire) != seen_generation) {
        break;
      }
      CpuRelax();
    }
    const std::function<void(int)>* job = nullptr;
    {
      MutexLock lock(mutex_);
      while (!(shutdown_.load(std::memory_order_relaxed) ||
               generation_.load(std::memory_order_relaxed) !=
                   seen_generation)) {
        job_ready_.Wait(mutex_);
      }
      if (shutdown_.load(std::memory_order_relaxed)) return;
      seen_generation = generation_.load(std::memory_order_relaxed);
      job = job_;
    }
    if (job != nullptr) (*job)(thread_index);
    {
      MutexLock lock(mutex_);
      if (--pending_ == 0) job_done_.NotifyAll();
    }
  }
}

void WorkerTeam::ParallelFor(index_t n, index_t grain,
                             const std::function<void(index_t, index_t)>& fn) {
  if (n <= 0) return;
  ATMX_CHECK_GT(grain, 0);
  if (n <= grain || size() == 1) {
    fn(0, n);
    return;
  }
  std::atomic<index_t> next{0};
  ParallelRun([&](int) {
    for (;;) {
      const index_t begin = next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) break;
      fn(begin, std::min(begin + grain, n));
    }
  });
}

std::uint64_t ScheduleStats::TotalSteals() const {
  return std::accumulate(stolen_per_team.begin(), stolen_per_team.end(),
                         std::uint64_t{0});
}

double ScheduleStats::TotalBusySeconds() const {
  return std::accumulate(busy_seconds.begin(), busy_seconds.end(), 0.0);
}

TeamScheduler::TeamScheduler(int num_teams, int threads_per_team) {
  ATMX_CHECK_GE(num_teams, 1);
  teams_.reserve(num_teams);
  for (int t = 0; t < num_teams; ++t) {
    teams_.push_back(std::make_unique<WorkerTeam>(t, threads_per_team));
  }
  drivers_.reserve(num_teams);
  for (int t = 0; t < num_teams; ++t) {
    drivers_.emplace_back([this, t] { DriverLoop(t); });
  }
}

TeamScheduler::~TeamScheduler() {
  {
    MutexLock lock(mutex_);
    ATMX_CHECK(batch_ == nullptr);
    shutdown_ = true;
  }
  batch_posted_.NotifyAll();
  for (auto& d : drivers_) d.join();
}

void TeamScheduler::DriverLoop(int team) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(int)>* drive = nullptr;
    {
      MutexLock lock(mutex_);
      while (!shutdown_ && generation_ == seen_generation) {
        batch_posted_.Wait(mutex_);
      }
      if (shutdown_) return;
      seen_generation = generation_;
      drive = batch_;
    }
    (*drive)(team);
    // The next batch is posted only after every driver left this one, so
    // no driver skips a batch or runs one twice.
    MutexLock lock(mutex_);
    if (--busy_drivers_ == 0) batch_done_.NotifyAll();
  }
}

double TeamScheduler::RunOnDrivers(const std::function<void(int)>& drive) {
  MutexLock lock(mutex_);
  // One batch at a time: wait until the running one (if any) is over.
  while (batch_ != nullptr) batch_done_.Wait(mutex_);
  WallTimer batch_timer;
  batch_ = &drive;
  busy_drivers_ = num_teams();
  ++generation_;
  batch_posted_.NotifyAll();
  while (busy_drivers_ > 0) batch_done_.Wait(mutex_);
  batch_ = nullptr;
  // Wakes the next queued submitter.
  batch_done_.NotifyAll();
  return batch_timer.ElapsedSeconds();
}

void TeamScheduler::RunTasks(
    index_t num_tasks, const std::function<int(index_t)>& home_of,
    const std::function<void(WorkerTeam&, index_t)>& run,
    const ScheduleOptions& options, ScheduleStats* stats) {
  // An independent batch is a task graph without edges.
  RunTaskGraph(num_tasks,
               std::vector<index_t>(static_cast<std::size_t>(num_tasks), 0),
               std::vector<std::vector<index_t>>(
                   static_cast<std::size_t>(num_tasks)),
               home_of, run, options, stats);
}

void TeamScheduler::RunTaskGraph(
    index_t num_tasks, const std::vector<index_t>& dep_count,
    const std::vector<std::vector<index_t>>& successors,
    const std::function<int(index_t)>& home_of,
    const std::function<void(WorkerTeam&, index_t)>& run,
    const ScheduleOptions& options, ScheduleStats* stats_out) {
  const int nt = num_teams();
  ATMX_CHECK_EQ(static_cast<index_t>(dep_count.size()), num_tasks);
  ATMX_CHECK_EQ(static_cast<index_t>(successors.size()), num_tasks);

  // Home teams are fixed up front; home_of runs outside any lock.
  std::vector<int> homes(static_cast<std::size_t>(num_tasks));
  for (index_t task = 0; task < num_tasks; ++task) {
    const int home = home_of(task);
    ATMX_CHECK(home >= 0 && home < nt);
    homes[static_cast<std::size_t>(task)] = home;
  }

  // One mutex for the whole graph state: tasks are whole tile
  // multiplications, so one lock round per claim and per completion is
  // noise next to the task body, and a single lock keeps the
  // ready/dependency protocol trivially race-free (and TSan-clean).
  struct ParkedTask {
    index_t task;
    std::uint64_t epoch;  // completion epoch when the task was parked
  };
  struct GraphState {
    Mutex mu;
    CondVar ready_cv;
    std::vector<index_t> deps ATMX_GUARDED_BY(mu);
    std::vector<std::deque<index_t>> queues ATMX_GUARDED_BY(mu);
    // Tasks taken off a queue (or the parked list) and not parked again;
    // claimed - completed is the number in flight.
    index_t claimed ATMX_GUARDED_BY(mu) = 0;
    index_t completed ATMX_GUARDED_BY(mu) = 0;
    // Admission-control state (options.admit only). `parked` holds tasks
    // the gate rejected, oldest first; epochs are non-decreasing front to
    // back (tasks re-park at the then-current epoch), so the front entry
    // alone decides whether any parked task has a pending retry.
    std::deque<ParkedTask> parked ATMX_GUARDED_BY(mu);
    std::uint64_t epoch ATMX_GUARDED_BY(mu) = 0;  // bumped per completion
  };
  // Initially-ready tasks enter their home queues in submission order. With
  // a cost model they are ordered longest-processing-time-first (stable, so
  // equal costs keep submission order and scheduling stays reproducible):
  // the expensive head runs home-local first, shrinking the makespan bound,
  // and the cheap tail is what thieves take. Costs are evaluated before any
  // lock exists (cost_of is a caller callback).
  std::vector<index_t> ready;
  for (index_t task = 0; task < num_tasks; ++task) {
    const index_t deps = dep_count[static_cast<std::size_t>(task)];
    ATMX_CHECK_GE(deps, 0);
    if (deps == 0) ready.push_back(task);
  }
  if (options.work_stealing && options.cost_of) {
    std::vector<double> cost(ready.size());
    for (std::size_t i = 0; i < ready.size(); ++i) {
      cost[i] = options.cost_of(ready[i]);
    }
    std::vector<std::size_t> order(ready.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) {
                       return cost[x] > cost[y];
                     });
    std::vector<index_t> sorted(ready.size());
    for (std::size_t i = 0; i < ready.size(); ++i) {
      sorted[i] = ready[order[i]];
    }
    ready = std::move(sorted);
  }

  GraphState state;
  {
    MutexLock lock(state.mu);
    state.deps = dep_count;
    state.queues.resize(static_cast<std::size_t>(nt));
    for (index_t task : ready) {
      state.queues[static_cast<std::size_t>(
                       homes[static_cast<std::size_t>(task)])]
          .push_back(task);
    }
  }

#if defined(ATMX_OBS_ENABLED)
  // Queue-depth balance after home assignment. Without stealing this
  // imbalance directly bounds the makespan; with stealing it is what the
  // steal traffic (threadpool.steals) has to level out.
  {
    std::vector<std::size_t> depth(static_cast<std::size_t>(nt), 0);
    for (index_t task : ready) {
      ++depth[static_cast<std::size_t>(homes[static_cast<std::size_t>(task)])];
    }
    const auto [min_depth, max_depth] =
        std::minmax_element(depth.begin(), depth.end());
    ATMX_COUNTER_ADD("threadpool.tasks", num_tasks);
    ATMX_GAUGE_SET("threadpool.queue_depth.max", *max_depth);
    ATMX_GAUGE_SET("threadpool.queue_depth.min", *min_depth);
    ATMX_GAUGE_SET("threadpool.queue_depth.imbalance",
                   *max_depth > 0
                       ? 1.0 - static_cast<double>(*min_depth) /
                                   static_cast<double>(*max_depth)
                       : 0.0);
  }
#endif

  // Victim scan order per thief: ascending simulated NUMA distance, ties
  // by node id — so a steal prefers the cheapest remote traffic.
  std::vector<std::vector<int>> victims(static_cast<std::size_t>(nt));
  if (options.work_stealing && nt > 1) {
    for (int t = 0; t < nt; ++t) {
      auto& order = victims[static_cast<std::size_t>(t)];
      for (int v = 0; v < nt; ++v) {
        if (v != t) order.push_back(v);
      }
      std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
        return NumaDistance(t, x, nt) < NumaDistance(t, y, nt);
      });
    }
  }

  ScheduleStats stats;
  stats.executed_per_team.assign(static_cast<std::size_t>(nt), 0);
  stats.stolen_per_team.assign(static_cast<std::size_t>(nt), 0);
  stats.busy_seconds.assign(static_cast<std::size_t>(nt), 0.0);
  stats.cpu_seconds.assign(static_cast<std::size_t>(nt), 0.0);
  std::vector<double> max_task_seconds(static_cast<std::size_t>(nt), 0.0);

  // Each team's driver thread drains that team's queue (and, when
  // stealing, the tails of its victims); tile multiplications inside a
  // task parallelize over the team's threads.
  stats.makespan_seconds = RunOnDrivers([&](int t) {
    const std::size_t self = static_cast<std::size_t>(t);
    index_t executed = 0;
    index_t stolen = 0;
    double busy = 0.0;
    double cpu = 0.0;
    double max_task = 0.0;
    for (;;) {
      index_t task = -1;
      int source = -1;
      bool forced = false;
      {
        MutexLock lock(state.mu);
        for (;;) {
          // Tasks never respawn: once every task is claimed (none queued,
          // none parked) nothing is left for this driver, so it retires
          // instead of waiting for the last completion.
          if (state.claimed == num_tasks) break;
          // A completed task may have freed resources: retry the oldest
          // parked task before dequeuing new work, at most once per
          // completion epoch (the front entry carries the minimal epoch,
          // so a fresh front means nothing parked is retryable yet).
          if (options.admit && !state.parked.empty() &&
              state.parked.front().epoch < state.epoch) {
            task = state.parked.front().task;
            state.parked.pop_front();
            source = homes[static_cast<std::size_t>(task)];
            break;
          }
          if (!state.queues[self].empty()) {
            task = state.queues[self].front();
            state.queues[self].pop_front();
            source = t;
            break;
          }
          if (options.work_stealing) {
            for (int v : victims[self]) {
              auto& vq = state.queues[static_cast<std::size_t>(v)];
              if (!vq.empty()) {
                task = vq.back();
                vq.pop_back();
                source = v;
                break;
              }
            }
            if (source >= 0) break;
          }
          if (options.admit && !state.parked.empty() &&
              state.claimed == state.completed) {
            bool any_queued = false;
            for (const auto& q : state.queues) {
              if (!q.empty()) any_queued = true;
            }
            if (!any_queued) {
              // Deadlock-free fallback: every ready task is parked and
              // nothing is running that could release resources — admit
              // the oldest parked task unconditionally.
              task = state.parked.front().task;
              state.parked.pop_front();
              source = homes[static_cast<std::size_t>(task)];
              forced = true;
              break;
            }
          }
          // Nothing ready anywhere but tasks still in flight: their
          // completions will release successors or parked retries.
          state.ready_cv.Wait(state.mu);
        }
        if (source >= 0) ++state.claimed;
      }
      if (source < 0) break;
      if (options.admit && !options.admit(task, forced)) {
        // Gate rejected (never with forced set): park the task at the
        // current epoch and rejoin the claim loop — if this rejection
        // left nothing in flight, the force branch above fires next.
        MutexLock lock(state.mu);
        --state.claimed;
        state.parked.push_back({task, state.epoch});
        continue;
      }
      const bool was_stolen = source != t;
      WallTimer task_timer;
      ThreadCpuTimer task_cpu_timer;
      {
        ATMX_TRACE_SPAN_ARGS("sched", "task", {"team", t}, {"task", task},
                             {"home", source},
                             {"stolen", was_stolen ? 1 : 0});
#if defined(ATMX_OBS_ENABLED)
        if (was_stolen) {
          obs::TraceRecorder::Global().RecordInstant(
              "sched", "steal",
              {{"thief", t}, {"victim", source}, {"task", task}});
        }
#endif
        run(*teams_[self], task);
      }
      const double seconds = task_timer.ElapsedSeconds();
      busy += seconds;
      cpu += task_cpu_timer.ElapsedSeconds();
      max_task = std::max(max_task, seconds);
      ++executed;
      if (was_stolen) ++stolen;
      {
        MutexLock lock(state.mu);
        ++state.completed;
        // A completion is the only event that frees admission resources:
        // bump the epoch so every currently parked task earns one retry.
        ++state.epoch;
        for (index_t succ : successors[static_cast<std::size_t>(task)]) {
          ATMX_CHECK(succ >= 0 && succ < num_tasks);
          index_t& remaining = state.deps[static_cast<std::size_t>(succ)];
          ATMX_CHECK_GT(remaining, 0);
          if (--remaining == 0) {
            // Front of the home queue: the successor consumes this
            // task's freshly produced tile, so run it before colder
            // initially-ready work.
            state.queues[static_cast<std::size_t>(
                             homes[static_cast<std::size_t>(succ)])]
                .push_front(succ);
          }
        }
      }
      state.ready_cv.NotifyAll();
    }
    // Distinct slots per driver — no lock needed.
    stats.executed_per_team[self] = executed;
    stats.stolen_per_team[self] = stolen;
    stats.busy_seconds[self] = busy;
    stats.cpu_seconds[self] = cpu;
    max_task_seconds[self] = max_task;
  });
  {
    MutexLock lock(state.mu);
    // A cyclic graph or inconsistent counts/edges would have deadlocked
    // the drivers above; an unreleased task here means the caller passed
    // counts larger than the edges actually delivered.
    ATMX_CHECK_EQ(state.completed, num_tasks);
    ATMX_CHECK(state.parked.empty());
  }

#if defined(ATMX_OBS_ENABLED)
  if (options.work_stealing) {
    ATMX_COUNTER_ADD("threadpool.steals", stats.TotalSteals());
    ATMX_GAUGE_SET("threadpool.makespan_seconds", stats.makespan_seconds);
    // Lower bound on any schedule of these tasks on nt teams: either the
    // perfectly balanced split or the single longest task dominates. A
    // ratio near 1 means stealing got makespan down to the critical path.
    double longest_task = 0.0;
    for (double s : max_task_seconds) {
      longest_task = std::max(longest_task, s);
    }
    const double bound =
        std::max(stats.TotalBusySeconds() / static_cast<double>(nt),
                 longest_task);
    if (bound > 0.0) {
      ATMX_GAUGE_SET("threadpool.makespan_vs_bound",
                     stats.makespan_seconds / bound);
    }
    auto& registry = obs::MetricsRegistry::Global();
    for (int t = 0; t < nt; ++t) {
      registry
          .GetGauge("threadpool.team." + std::to_string(t) + ".busy_seconds")
          .Set(stats.busy_seconds[static_cast<std::size_t>(t)]);
    }
  }
#endif
  if (stats_out != nullptr) *stats_out = std::move(stats);
}

}  // namespace atmx
