#ifndef PPR_RUNTIME_BATCH_EXECUTOR_H_
#define PPR_RUNTIME_BATCH_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "benchlib/harness.h"
#include "common/types.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"
#include "runtime/plan_cache.h"

namespace ppr {

/// One unit of batch work: evaluate `query` against the executor's
/// database with the plan `strategy` builds (seeded tie-breaks via
/// `seed`), under `tuple_budget`.
struct BatchJob {
  ConjunctiveQuery query;
  StrategyKind strategy = StrategyKind::kBucketElimination;
  uint64_t seed = 0;
  Counter tuple_budget = kCounterMax;
};

struct BatchOptions {
  /// Worker count; >= 1, or 0 to auto-pick (ResolveWorkerCount).
  int num_threads = 1;

  /// Jobs resolve through the plan cache (ResolvePlan), so isomorphic
  /// instances share one plan compiled for the canonical query. An
  /// external cache to share across batches/executors; null means the
  /// executor owns a private one of the default capacity.
  PlanCache* cache = nullptr;

  /// Registry the per-worker metric shards merge into at drain; null
  /// means GlobalMetrics(). The merge happens on the calling thread after
  /// all workers have finished — workers themselves never touch it.
  MetricsRegistry* metrics = nullptr;
};

/// Everything one Run() produced.
struct BatchResult {
  /// Per-job results in *input order*, regardless of which worker ran
  /// which job when.
  std::vector<ExecutionResult> results;
  /// Sum/max of the per-job ExecStats, folded in input order at drain —
  /// byte-identical across runs and thread counts (each job's stats are
  /// deterministic, and so is the fold order).
  ExecStats totals;
  /// Cache counter deltas for this batch. Hits and misses are deterministic thanks to single-flight compiles.
  PlanCache::Stats cache;
  /// Wall-clock for the whole batch (submit to drain).
  double seconds = 0.0;
  /// Workers actually used.
  int num_threads = 1;

  int64_t num_jobs() const { return static_cast<int64_t>(results.size()); }
};

/// Schedules batches of (query, strategy) jobs across a fixed-size worker
/// pool — the paper's workload shape, thousands of small project-join
/// queries over a tiny database, which rewards inter-query parallelism
/// and plan reuse far more than intra-query parallelism would.
///
/// Worker-state ownership: each worker owns an ExecArena (reused across
/// its jobs, never shared), a MetricsRegistry shard, and — when tracing
/// is enabled — a TraceSink shard. The hot path is lock-free except for
/// the task-queue pop and at most one plan-cache shard lock per job;
/// shards merge into the global registry/sink once, at batch drain, on
/// the calling thread. Process-wide state (InitProcessState) is forced to
/// initialize before workers spawn, so worker threads never read the
/// environment.
///
/// Determinism: results arrive in input order; a job's output, stats, and
/// status never depend on worker count or interleaving (cached plans are
/// compiled from the canonical query, so even "who compiled it" cannot
/// matter); batch totals fold in input order.
class BatchExecutor {
 public:
  /// The database must outlive the executor and all cached plans.
  explicit BatchExecutor(const Database& db, BatchOptions options = {});

  /// Runs all jobs to completion and drains worker shards.
  BatchResult Run(const std::vector<BatchJob>& jobs);

  int num_threads() const { return num_threads_; }

 private:
  struct WorkerState;
  /// Per-job raw telemetry a worker can capture but the drain must
  /// interpret (fingerprint, predicted width, whether this call ran the
  /// plan-cache factory). Only allocated when the query log is enabled —
  /// checking that is the single branch the disabled path pays per job.
  struct JobTelemetry;

  void ProcessJob(const BatchJob& job, WorkerState* worker,
                  ExecutionResult* slot, JobTelemetry* telem) const;

  const Database& db_;
  BatchOptions options_;
  int num_threads_ = 1;
  std::unique_ptr<PlanCache> owned_cache_;
  PlanCache* cache_ = nullptr;
  uint64_t db_fingerprint_ = 0;
};

}  // namespace ppr

#endif  // PPR_RUNTIME_BATCH_EXECUTOR_H_
