#ifndef PPR_RUNTIME_MORSEL_DRIVER_H_
#define PPR_RUNTIME_MORSEL_DRIVER_H_

#include <memory>
#include <vector>

#include "common/arena.h"
#include "common/types.h"
#include "core/plan.h"
#include "exec/executor.h"
#include "exec/physical_plan.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"
#include "runtime/thread_pool.h"

namespace ppr {

class MetricsRegistry;
class TraceSink;

struct MorselDriverOptions {
  /// Worker count; >= 1, or 0 to auto-pick (PPR_THREADS when set,
  /// otherwise the hardware thread count).
  int num_threads = 0;
  /// Rows per morsel; 0 uses PPR_MORSEL_SIZE (default 64K). Purely a
  /// performance knob: results and every merged statistic but peak_bytes
  /// are identical for any positive value; for a fixed value peak_bytes
  /// is too, at any worker count.
  int64_t morsel_rows = 0;
};

/// The (query, plan, db) triple a compiled plan was built from, supplied
/// when the caller wants the post-run verification of the kernel spans
/// (the `morsel_accounting` hook of exec/verify_hook.h) to run.
struct MorselQueryContext {
  const ConjunctiveQuery* query = nullptr;
  const Plan* plan = nullptr;
  const Database* db = nullptr;
};

/// Morsel-driven intra-query parallelism over one compiled plan: the
/// complement of BatchExecutor (which parallelizes *across* queries).
/// The driver runs the plan through PhysicalPlan::ExecuteShared — the
/// same walker and kernels (relational/batch_ops.h) as a serial run —
/// with a MorselExec of its own: shared build structures are constructed
/// on the calling thread, then the probe/input side of each operator is
/// partitioned into morsels of morsel_rows() rows executed across a
/// ThreadPool. PPR_MORSEL_SIZE sets that grain for the driver only; a
/// serial run always treats each kernel input as one morsel.
///
/// Worker-state ownership follows the BatchExecutor design: each worker
/// slot owns a private ExecArena (reused across runs, reset per run,
/// never shared), each morsel's trace span is written only by the worker
/// running it and recorded into the run's sink in morsel-index order,
/// and per-morsel stats fold in morsel-index order — so for a fixed morsel size the answer relation
/// and every statistic (peak_bytes included) are byte-identical across
/// worker counts, including under tuple-budget truncation. Against a
/// serial run the answer and every statistic but peak_bytes match.
///
/// A driver instance runs one query at a time on one thread (the same
/// single-owner contract as ExecContext); distinct drivers are fully
/// independent and may run concurrently.
class MorselDriver {
 public:
  explicit MorselDriver(MorselDriverOptions options = {});

  int num_threads() const { return num_threads_; }
  int64_t morsel_rows() const;

  /// Runs `plan` under `tuple_budget` with morsel parallelism.
  ///
  /// Observability is explicit and caller-owned, as with
  /// PhysicalPlan::ExecuteShared: spans go to `trace` when non-null,
  /// per-run stats publish into `metrics` when non-null.
  ///
  /// When `verify_ctx` is supplied and plan verification is enabled
  /// (PPR_VERIFY_PLANS / EnablePlanVerification) with a
  /// `morsel_accounting` hook installed, the run's kernel spans are
  /// verified afterwards against one width analysis of the plan (its
  /// operator schedule and per-node bounds; VerifyMorselSpans) and a
  /// failed verdict replaces the result status. A verified run records its spans into a private sink that
  /// never overwrites, then merges them into `trace`, so the caller (and
  /// its flight dumps) see the same spans as an unverified run.
  ExecutionResult Run(const PhysicalPlan& plan,
                      Counter tuple_budget = kCounterMax,
                      TraceSink* trace = nullptr,
                      MetricsRegistry* metrics = nullptr,
                      const MorselQueryContext* verify_ctx = nullptr);

  /// The MorselExec handed to the kernels on the next Run() — exposed so
  /// tests and benchmarks can execute kernels directly under the
  /// driver's pool. Worker arenas are reset.
  MorselExec PrepareExec();

 private:
  MorselDriverOptions options_;
  int num_threads_ = 1;
  /// Workers outlive runs (spawned once); null when num_threads_ == 1 —
  /// a single-threaded driver runs morsels inline with zero pool
  /// overhead.
  std::unique_ptr<ThreadPool> pool_;
  /// Control-side scratch (shared hash builds, merge phases), reused
  /// across runs like PhysicalPlan's internal arena.
  ExecArena control_arena_;
  /// One private arena per worker slot, reused across runs.
  std::vector<std::unique_ptr<ExecArena>> worker_arenas_;
};

}  // namespace ppr

#endif  // PPR_RUNTIME_MORSEL_DRIVER_H_
