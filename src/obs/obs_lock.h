#ifndef PPR_OBS_OBS_LOCK_H_
#define PPR_OBS_OBS_LOCK_H_

#include "common/mutex.h"

namespace ppr {

/// The process-wide observability capability. Everything that reads or
/// mutates global observability state — merging a run's private shards
/// into the global registry or trace sink, reading the global sink,
/// flushing trace artifacts, swapping the trace configuration — REQUIRES
/// (or internally takes) this mutex, so two BatchExecutor::Run drains,
/// two one-shot runs (ExecuteCompiled) on different threads, or a drain
/// racing a test's EnableTracing/DisableTracing, serialize instead of
/// corrupting the shared state. All uses are cold drain/config paths;
/// per-operator recording stays lock-free on thread-confined shards,
/// and no run records into the global state directly.
Mutex& GlobalObsMutex();

}  // namespace ppr

#endif  // PPR_OBS_OBS_LOCK_H_
