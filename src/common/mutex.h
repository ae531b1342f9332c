#ifndef PPR_COMMON_MUTEX_H_
#define PPR_COMMON_MUTEX_H_

// The ONLY file in src/ allowed to name the raw std synchronization
// primitives (enforced by tools/pprlint). Everything else takes ppr::Mutex /
// ppr::MutexLock / ppr::CondVar so that every lock the process owns is a
// Clang capability and every guarded access is checked by
// -Wthread-safety (PPR_THREAD_SAFETY=ON).
#include <condition_variable>  // pprlint: allow(raw-sync)
#include <mutex>               // pprlint: allow(raw-sync)

#if defined(PPR_DEBUG_LOCK_ORDER)
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <vector>
#endif

#include "common/annotations.h"

namespace ppr {

// ---------------------------------------------------------------------------
// Canonical lock acquisition order
//
// Proven acyclic by tools/pprcheck (the lock-order report artifact in
// CI re-derives it from the AST on every push). A thread holding a
// mutex may only acquire mutexes of a STRICTLY GREATER rank:
//
//   rank 10  kLockRankApp        application/service mutexes —
//                                QueryService::mu_, ServiceServer::mu_,
//                                per-connection write_mu, ThreadPool::mu_,
//                                BoundedQueue::mu_, PlanCache shard/in-flight
//                                mutexes. These are
//                                never nested with EACH OTHER (every
//                                holder's scope closes before the next
//                                acquisition); they sit below the obs
//                                layer because app code records telemetry,
//                                never the reverse.
//   rank 20  kLockRankObs        GlobalObsMutex() — the process-wide
//                                observability capability (obs/obs_lock.h).
//   rank 30  kLockRankTelemetry  telemetry internals acquired while the
//                                obs mutex is held: QueryLog::Shard::mu,
//                                FlightRecorder::mu_.
//
// The only sanctioned cross-rank nestings today are
//   GlobalObsMutex() -> QueryLog::Shard::mu   (append/flush/clear under obs)
//   GlobalObsMutex() -> FlightRecorder::mu_   (flight capture under obs)
// i.e. 20 -> 30. Anything new must acquire upward; pprcheck's lock-order
// check fails CI on a cycle, and PPR_DEBUG_LOCK_ORDER builds abort at
// runtime on the first out-of-order acquisition, so dynamic tests
// corroborate the static proof.
// ---------------------------------------------------------------------------

enum LockRank : int {
  kLockRankApp = 10,
  kLockRankObs = 20,
  kLockRankTelemetry = 30,
};

#if defined(PPR_DEBUG_LOCK_ORDER)
namespace lock_order_internal {

struct HeldLock {
  const void* mu;
  int rank;
};

/// Per-thread stack of currently held locks. A vector, not a fixed
/// array: depth is tiny (2 in the whole tree) but tests may nest more.
inline thread_local std::vector<HeldLock> g_held;

inline void CheckAcquire(const void* mu, int rank) {
  for (const HeldLock& held : g_held) {
    if (held.mu == mu) {
      std::fprintf(stderr,
                   "PPR_DEBUG_LOCK_ORDER: double acquisition of mutex %p "
                   "(rank %d) on this thread\n",
                   mu, rank);
      std::abort();
    }
    if (held.rank >= rank) {
      std::fprintf(stderr,
                   "PPR_DEBUG_LOCK_ORDER: acquiring rank-%d mutex %p while "
                   "holding rank-%d mutex %p violates the canonical order "
                   "(see src/common/mutex.h)\n",
                   rank, mu, held.rank, held.mu);
      std::abort();
    }
  }
}

inline void PushHeld(const void* mu, int rank) {
  g_held.push_back(HeldLock{mu, rank});
}

inline void PopHeld(const void* mu) {
  // Scan from the top: unlock order is LIFO in practice (RAII scopes),
  // but explicit Unlock() is allowed to release out of order.
  for (auto it = g_held.rbegin(); it != g_held.rend(); ++it) {
    if (it->mu == mu) {
      g_held.erase(std::next(it).base());
      return;
    }
  }
}

}  // namespace lock_order_internal
#endif  // PPR_DEBUG_LOCK_ORDER

/// Annotated exclusive mutex over std::mutex. Same cost, same semantics;
/// the wrapper exists so fields can be GUARDED_BY it and methods
/// REQUIRES/EXCLUDES it, making PR 3/4's comment-only threading
/// contracts compile errors under Clang. Under PPR_DEBUG_LOCK_ORDER the
/// optional rank (default kLockRankApp) is checked against the canonical
/// acquisition order above on every Lock().
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(int rank)
#if defined(PPR_DEBUG_LOCK_ORDER)
      : rank_(rank) {
  }
#else
  {
    (void)rank;
  }
#endif
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
#if defined(PPR_DEBUG_LOCK_ORDER)
    lock_order_internal::CheckAcquire(this, rank_);
#endif
    mu_.lock();  // pprlint: allow(raw-sync)
#if defined(PPR_DEBUG_LOCK_ORDER)
    lock_order_internal::PushHeld(this, rank_);
#endif
  }
  void Unlock() RELEASE() {
#if defined(PPR_DEBUG_LOCK_ORDER)
    lock_order_internal::PopHeld(this);
#endif
    mu_.unlock();  // pprlint: allow(raw-sync)
  }
  bool TryLock() TRY_ACQUIRE(true) {
    const bool acquired = mu_.try_lock();
#if defined(PPR_DEBUG_LOCK_ORDER)
    // TryLock never blocks, so it cannot deadlock and is exempt from
    // the order check; it still joins the held stack so later
    // acquisitions are checked against it.
    if (acquired) lock_order_internal::PushHeld(this, rank_);
#endif
    return acquired;
  }
  /// TryLock and Unlock without the lock-order bookkeeping, for an atexit
  /// handler: exit() destroys the calling thread's thread_locals, the
  /// held-lock stack among them, before it runs the handlers.
  bool TryLockAtExit() TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void UnlockAtExit() RELEASE() {
    mu_.unlock();  // pprlint: allow(raw-sync)
  }

  /// Static-analysis escape hatch: tells the analysis this thread holds
  /// the mutex when ownership arrived some way it cannot see (e.g.
  /// handed across a queue). Runtime no-op — std::mutex cannot verify
  /// its holder.
  void AssertHeld() ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;  // pprlint: allow(raw-sync)
#if defined(PPR_DEBUG_LOCK_ORDER)
  const int rank_ = kLockRankApp;
#endif
};

/// RAII lock for Mutex — the scoped capability the analysis understands.
/// Deliberately has no deferred/adoptable variants: every lock in the
/// tree is either a MutexLock scope or an explicit Lock()/Unlock() pair
/// the analysis tracks through ACQUIRE/RELEASE annotations.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex. Wait() REQUIRES the mutex, so
/// "waiting without the lock" and "waiting on the wrong lock" are
/// compile errors; waiters spell their predicate as an explicit
/// while-loop around Wait() (no lambda — the analysis cannot see lock
/// state inside a closure body).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks until notified, reacquires `mu`.
  /// Spurious wakeups happen; always wait in a predicate loop.
  /// Under PPR_DEBUG_LOCK_ORDER the mutex stays on the held stack for
  /// the duration of the wait: ownership returns to this thread before
  /// Wait() returns, so the caller's scope never really gave it up.
  void Wait(Mutex& mu) REQUIRES(mu) {
    // Adopt the already-held std::mutex for the duration of the wait and
    // release the adoption before the guard destructs, so ownership
    // stays with the caller's MutexLock scope.
    std::unique_lock<std::mutex> lock(mu.mu_,     // pprlint: allow(raw-sync)
                                      std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  /// Wakes one waiter. Callers may signal with or without the mutex
  /// held; both are correct, unlocked is cheaper.
  void NotifyOne() { cv_.notify_one(); }

  /// Wakes all waiters.
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;  // pprlint: allow(raw-sync)
};

}  // namespace ppr

#endif  // PPR_COMMON_MUTEX_H_
