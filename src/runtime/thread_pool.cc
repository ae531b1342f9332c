#include "runtime/thread_pool.h"

#include <algorithm>
#include <utility>

#include "analysis/verifier.h"
#include "common/check.h"
#include "common/env.h"
#include "obs/telemetry/flight_recorder.h"
#include "obs/telemetry/query_log.h"
#include "obs/telemetry/stats_server.h"
#include "obs/trace.h"

namespace ppr {

ThreadPool::ThreadPool(int num_threads, size_t queue_capacity)
    : queue_(queue_capacity != 0
                 ? queue_capacity
                 : 2 * static_cast<size_t>(std::max(num_threads, 1))) {
  PPR_CHECK(num_threads >= 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  queue_.Close();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void(int)> task) {
  {
    MutexLock lock(mu_);
    ++submitted_;
  }
  const bool accepted = queue_.Push(std::move(task));
  PPR_CHECK(accepted);  // Submit after destruction began is a caller bug
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (completed_ != submitted_) all_done_.Wait(mu_);
}

int ThreadPool::HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ThreadPool::WorkerLoop(int worker_index) {
  while (auto task = queue_.Pop()) {
    (*task)(worker_index);
    {
      MutexLock lock(mu_);
      ++completed_;
    }
    all_done_.NotifyAll();
  }
}

int ResolveWorkerCount(int requested) {
  if (requested > 0) return requested;
  const int env = ProcessEnv().default_threads;
  return env > 0 ? env : ThreadPool::HardwareThreads();
}

void InitProcessState() {
  (void)ProcessEnv();
  (void)TracingEnabled();
  (void)PlanVerificationEnabled();
  (void)SemanticVerificationEnabled();
  (void)QueryLogEnabled();
  (void)FlightRecorderEnabled();
  (void)StartStatsServerFromEnv();
}

}  // namespace ppr
