// Annotated locking primitives: the only place in the library where the
// raw standard mutex types may appear (enforced by tools/atmx_lint.py's
// no-raw-mutex check). Everything else uses atmx::Mutex / atmx::MutexLock /
// atmx::CondVar so Clang's Thread Safety Analysis (-Wthread-safety, see
// common/thread_annotations.h and docs/STATIC_ANALYSIS.md) can prove at
// compile time that guarded state is only touched under its lock.
//
// The wrappers are deliberately thin — Mutex is exactly a std::mutex, the
// inline calls disappear at -O1 — and deliberately narrow: no recursive
// mutex, no shared (reader/writer) mode, because nothing in the library
// needs them and a narrow surface keeps the analysis airtight. The one
// timed primitive is CondVar::WaitFor, which the flight recorder's
// refresh thread needs for its periodic tick. CondVar::Wait/WaitFor take
// the Mutex they re-acquire, so the analysis knows the capability is held
// continuously around the wait from the caller's point of view.

#ifndef ATMX_COMMON_MUTEX_H_
#define ATMX_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace atmx {

class CondVar;

// A standard mutex carrying the `capability` attribute, so fields can be
// declared ATMX_GUARDED_BY(mu_) and methods ATMX_REQUIRES(mu_).
class ATMX_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ATMX_ACQUIRE() { mu_.lock(); }
  void Unlock() ATMX_RELEASE() { mu_.unlock(); }
  bool TryLock() ATMX_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;  // Wait() needs the underlying std::mutex.
  std::mutex mu_;
};

// RAII lock, the replacement for std::lock_guard / std::unique_lock.
class ATMX_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ATMX_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() ATMX_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable working with atmx::Mutex. There is no predicate
// overload on purpose: a `while (!pred) cv.Wait(mu);` loop in the caller
// keeps the predicate's guarded reads inside a scope the analysis can see
// (a predicate lambda would be analyzed without the held capability).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu`, blocks, and re-acquires `mu` before
  // returning. Spurious wakeups happen; always wait in a predicate loop.
  void Wait(Mutex& mu) ATMX_REQUIRES(mu) {
    // adopt_lock hands the already-held mutex to a unique_lock for the
    // wait protocol; release() hands it back so the RAII scopes in the
    // caller stay the sole owner.
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  // Like Wait, but gives up after `timeout`. Returns false on timeout,
  // true when notified (possibly spuriously — still use a predicate
  // loop). `mu` is held again either way when this returns.
  template <typename Rep, typename Period>
  bool WaitFor(Mutex& mu, std::chrono::duration<Rep, Period> timeout)
      ATMX_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(lock, timeout);
    lock.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace atmx

#endif  // ATMX_COMMON_MUTEX_H_
