#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/check.h"
#include "common/env.h"
#include "obs/exporters.h"
#include "obs/metrics.h"

namespace ppr {
namespace {

struct GlobalTraceState {
  /// The gate operators poll. Atomic so a programmatic toggle racing a
  /// reader is a defined (if momentarily stale) load, not a torn one.
  std::atomic<bool> enabled{false};
  std::string path GUARDED_BY(GlobalObsMutex());
  TraceSink sink GUARDED_BY(GlobalObsMutex());

  // Seeded from the once-read ProcessEnv() snapshot (common/env.h)
  // instead of a getenv call here, so enabling state can be derived on a
  // worker thread without ever touching the environment. Constructor
  // accesses predate any sharing, so the guarded `path` write is safe.
  GlobalTraceState() {
    const EnvConfig& env = ProcessEnv();
    enabled.store(env.trace_enabled, std::memory_order_relaxed);
    path = env.trace_path;
  }
};

// Writes the trace artifacts at exit, unless another thread holds the
// obs lock: exit must not wait on it. The lock-order stack is gone by
// now (Mutex::TryLockAtExit).
void FlushTraceArtifactsAtExit() {
  if (!GlobalObsMutex().TryLockAtExit()) return;
  (void)FlushTraceArtifacts();
  GlobalObsMutex().UnlockAtExit();
}

// Registers FlushTraceArtifactsAtExit. The lock and the registry it
// reads are constructed here first, so the handler runs before either is
// destroyed. Constructing the registry reads and writes none of its data
// (a function-local static's initialization is thread-safe by itself),
// and taking the obs lock here would deadlock a first TraceState() call
// made under it, hence no analysis.
bool RegisterExitFlush() NO_THREAD_SAFETY_ANALYSIS {
  (void)GlobalObsMutex();
  (void)GlobalMetrics();
  return std::atexit(FlushTraceArtifactsAtExit) == 0;
}

// Registers the exit flush once; called after the trace state exists.
bool FlushAtExit() {
  static const bool registered = RegisterExitFlush();
  return registered;
}

GlobalTraceState& TraceState() {
  static GlobalTraceState state;
  static const bool flush_at_exit =
      state.enabled.load(std::memory_order_relaxed) && FlushAtExit();
  (void)flush_at_exit;
  return state;
}

}  // namespace

const char* TraceOpName(TraceOp op) {
  switch (op) {
    case TraceOp::kScan:
      return "scan";
    case TraceOp::kJoin:
      return "join";
    case TraceOp::kProject:
      return "project";
    case TraceOp::kSemiJoin:
      return "semijoin";
  }
  return "?";
}

TraceSink::TraceSink(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      epoch_(std::chrono::steady_clock::now()) {
  buffer_.reserve(std::min(capacity_, size_t{1024}));
}

void TraceSink::Record(const TraceSpan& span) {
  if (buffer_.size() < capacity_) {
    buffer_.push_back(span);
  } else {
    buffer_[total_ % capacity_] = span;
  }
  ++total_;
}

std::vector<TraceSpan> TraceSink::Snapshot() const {
  return SnapshotSince(0);
}

std::vector<TraceSpan> TraceSink::SnapshotSince(uint64_t seq) const {
  // Buffered spans carry sequence numbers [total_ - size, total_); when
  // the buffer wrapped, slot total_ % capacity_ holds the oldest.
  const uint64_t oldest = total_ - buffer_.size();
  const uint64_t from = std::max(seq, oldest);
  std::vector<TraceSpan> out;
  if (from >= total_) return out;
  out.reserve(static_cast<size_t>(total_ - from));
  for (uint64_t s = from; s < total_; ++s) {
    out.push_back(buffer_[s % capacity_]);
  }
  return out;
}

void TraceSink::Merge(const TraceSink& other) {
  const int64_t offset =
      std::chrono::duration_cast<std::chrono::nanoseconds>(other.epoch_ -
                                                           epoch_)
          .count();
  for (TraceSpan span : other.SnapshotSince(0)) {
    span.start_ns += offset;
    Record(span);
  }
}

void TraceSink::Clear() {
  buffer_.clear();
  total_ = 0;
}

void EnableTracing(const std::string& path) {
  PPR_CHECK(!path.empty());
  GlobalTraceState& state = TraceState();
  FlushAtExit();
  MutexLock lock(GlobalObsMutex());
  state.path = path;
  state.enabled.store(true, std::memory_order_release);
}

void DisableTracing() {
  GlobalTraceState& state = TraceState();
  MutexLock lock(GlobalObsMutex());
  (void)FlushTraceArtifacts();
  state.enabled.store(false, std::memory_order_release);
  state.path.clear();
  state.sink.Clear();
}

bool TracingEnabled() {
  return TraceState().enabled.load(std::memory_order_acquire);
}

const std::string& TracePath() { return TraceState().path; }

const TraceSink& GlobalTraceSink() { return TraceState().sink; }

void MergeIntoGlobalSink(const TraceSink& shard) {
  TraceState().sink.Merge(shard);
}

}  // namespace ppr
