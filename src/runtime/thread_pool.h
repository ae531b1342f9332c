#ifndef PPR_RUNTIME_THREAD_POOL_H_
#define PPR_RUNTIME_THREAD_POOL_H_

#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "runtime/bounded_queue.h"

namespace ppr {

/// Fixed-size worker pool over a bounded MPMC task queue.
///
/// Tasks receive the index (0..size()-1) of the worker running them, so
/// callers can route each task to per-worker state (arena, metrics shard,
/// trace shard) without any synchronization — the index is stable for the
/// duration of the task and no two tasks share an index concurrently.
///
/// Submit() blocks when the queue is full (backpressure toward the
/// submitting thread); Wait() blocks until every submitted task has
/// finished. The destructor closes the queue, drains remaining tasks, and
/// joins the workers.
class ThreadPool {
 public:
  /// Spawns `num_threads` (>= 1) workers. `queue_capacity` bounds the
  /// task queue; 0 picks 2 * num_threads, enough to keep workers fed
  /// while the submitter is still enqueueing.
  explicit ThreadPool(int num_threads, size_t queue_capacity = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Closes the queue, runs whatever was already submitted, joins.
  ~ThreadPool();

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task; blocks while the queue is full. Must not be called
  /// after (or concurrently with) destruction.
  void Submit(std::function<void(int worker)> task) EXCLUDES(mu_);

  /// Blocks until all tasks submitted so far have completed.
  void Wait() EXCLUDES(mu_);

  /// Number of hardware threads, never less than 1.
  static int HardwareThreads();

 private:
  void WorkerLoop(int worker_index);

  BoundedQueue<std::function<void(int)>> queue_;
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar all_done_;
  int64_t submitted_ GUARDED_BY(mu_) = 0;
  int64_t completed_ GUARDED_BY(mu_) = 0;
};

/// Worker start-up, shared by the front ends (BatchExecutor,
/// QueryService). The worker count a front end runs: `requested` when
/// positive, else PPR_THREADS when set, else HardwareThreads().
int ResolveWorkerCount(int requested);

/// Forces every lazily initialized process-wide singleton on the calling
/// thread: the environment snapshot, the trace gate, the verifier hooks
/// and their gate, the query-log and flight-recorder gates, and the stats
/// server. A front end calls it before any of its workers exists, so
/// workers only ever read them.
void InitProcessState();

}  // namespace ppr

#endif  // PPR_RUNTIME_THREAD_POOL_H_
