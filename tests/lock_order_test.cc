// Runtime corroboration of the canonical lock acquisition order
// (src/common/mutex.h). pprcheck proves the order statically from the
// AST; PPR_DEBUG_LOCK_ORDER builds check every real acquisition against
// the same ranks and abort on the first violation, so the dynamic suite
// catches anything the static model's conservatism misses (and vice
// versa). Without the flag the checks compile to nothing — the suite
// records a skip instead of silently passing.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common/mutex.h"
#include "obs/obs_lock.h"
#include "obs/trace.h"

namespace ppr {
namespace {

#if defined(PPR_DEBUG_LOCK_ORDER)

TEST(LockOrder, UpwardAcquisitionIsAllowed) {
  Mutex app(kLockRankApp);
  Mutex obs(kLockRankObs);
  Mutex telemetry(kLockRankTelemetry);
  MutexLock a(app);
  MutexLock b(obs);
  MutexLock c(telemetry);
  SUCCEED();
}

TEST(LockOrder, ReacquireAfterReleaseIsAllowed) {
  Mutex app(kLockRankApp);
  Mutex obs(kLockRankObs);
  { MutexLock a(app); }
  { MutexLock b(obs); }
  { MutexLock a(app); }
  SUCCEED();
}

TEST(LockOrder, CondVarWaitKeepsHeldStackConsistent) {
  Mutex mu(kLockRankObs);
  CondVar cv;
  bool ready = false;
  std::thread signaller([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    // The mutex is owned again here; a higher-rank acquisition must
    // still be legal (the stack was not corrupted by the wait).
    Mutex telemetry(kLockRankTelemetry);
    MutexLock inner(telemetry);
  }
  signaller.join();
}

TEST(LockOrderDeathTest, DownwardAcquisitionAborts) {
  Mutex obs(kLockRankObs);
  Mutex app(kLockRankApp);
  EXPECT_DEATH(
      {
        MutexLock b(obs);
        MutexLock a(app);
      },
      "violates the canonical order");
}

TEST(LockOrderDeathTest, SameRankNestingAborts) {
  // App mutexes are never nested with each other — equal rank is a
  // violation, not a tie-break.
  Mutex first(kLockRankApp);
  Mutex second(kLockRankApp);
  EXPECT_DEATH(
      {
        MutexLock a(first);
        MutexLock b(second);
      },
      "violates the canonical order");
}

TEST(LockOrderDeathTest, DoubleAcquisitionAborts) {
  Mutex mu(kLockRankApp);
  EXPECT_DEATH(
      {
        MutexLock a(mu);
        mu.Lock();
      },
      "double acquisition");
}

// exit() destroys the exiting thread's thread_locals, the held-lock
// stack among them, before it runs the atexit handlers, so the handler
// that writes the trace artifacts at exit must not touch that stack. Its
// stale buffer is one lock old here; an ASan build reports the write.
TEST(LockOrderDeathTest, TraceFlushAtExitLeavesTheHeldStackAlone) {
  const std::string path = ::testing::TempDir() + "lock_order_exit.json";
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        EnableTracing(path);
        { MutexLock lock(GlobalObsMutex()); }
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
  EXPECT_TRUE(std::ifstream(path).good()) << path;
  std::remove(path.c_str());
}

#else  // !PPR_DEBUG_LOCK_ORDER

TEST(LockOrder, RequiresDebugBuild) {
  GTEST_SKIP() << "configure with -DPPR_DEBUG_LOCK_ORDER=ON to enable the "
                  "runtime lock-order assertions";
}

#endif  // PPR_DEBUG_LOCK_ORDER

}  // namespace
}  // namespace ppr
