#ifndef PPR_RELATIONAL_EXEC_CONTEXT_H_
#define PPR_RELATIONAL_EXEC_CONTEXT_H_

#include <algorithm>
#include <cstdint>

#include "common/arena.h"
#include "common/types.h"

namespace ppr {

class MetricsRegistry;
struct MetricsSnapshot;
class TraceSink;

/// Work counters collected while operators run. These are the
/// machine-independent proxies for the paper's wall-clock measurements:
/// on a fixed engine, execution time is driven by tuples produced and by
/// the size/arity of the largest intermediate result.
///
/// ExecStats is the per-run view of the observability layer's metrics
/// registry (obs/metrics.h): PublishTo() emits every field under the
/// canonical `exec.*` names, and ExecStatsFromDelta() reconstructs a
/// stats struct from two registry snapshots, so whole-process accounting
/// and per-run accounting never drift apart.
struct ExecStats {
  /// Total tuples materialized by all operators (including duplicates
  /// produced before DISTINCT).
  Counter tuples_produced = 0;
  /// Number of join operators executed.
  Counter num_joins = 0;
  /// Number of projection operators executed.
  Counter num_projections = 0;
  /// Number of semijoin operators executed (the Yannakakis-style
  /// reduction pass of exec/semijoin_pass.h runs entirely through these).
  Counter num_semijoins = 0;
  /// Largest arity of any operator output ("width" actually reached).
  int max_intermediate_arity = 0;
  /// Largest row count of any operator output.
  Counter max_intermediate_rows = 0;
  /// Largest memory footprint of any single operator: arena scratch
  /// (hash tables, packed keys, sort orders) plus materialized output
  /// bytes. The space-side companion of max_intermediate_rows.
  Counter peak_bytes = 0;

  /// Records an operator output of `rows` rows with `arity` columns.
  void NoteIntermediate(int arity, Counter rows) {
    max_intermediate_arity = std::max(max_intermediate_arity, arity);
    max_intermediate_rows = std::max(max_intermediate_rows, rows);
  }

  /// Records one operator's scratch + output footprint in bytes.
  void NotePeakBytes(Counter bytes) {
    peak_bytes = std::max(peak_bytes, bytes);
  }

  /// Publishes every field into `registry`: additive fields as
  /// `exec.tuples_produced` / `exec.num_joins` / `exec.num_projections` /
  /// `exec.num_semijoins` counters, the maxima as
  /// `exec.max_intermediate_arity` / `exec.max_intermediate_rows` /
  /// `exec.peak_bytes` max gauges, plus one `exec.runs` tick.
  void PublishTo(MetricsRegistry* registry) const;
};

/// Inverse of ExecStats::PublishTo over a snapshot delta: additive fields
/// come from the counter deltas, maxima from the (high-water) gauges of
/// the `after` snapshot the delta was taken against.
ExecStats ExecStatsFromDelta(const MetricsSnapshot& delta);

/// Execution context shared by the operators of one query run: statistics,
/// a tuple budget that bounds total work, and the scratch arena operators
/// allocate from.
///
/// The paper's weak strategies "time out" on the harder instances
/// (Figs. 8-9). We reproduce timeouts deterministically with a budget on
/// tuples produced instead of a wall-clock alarm: when the budget is
/// exhausted, operators stop producing and the executor reports
/// RESOURCE_EXHAUSTED.
///
/// Ownership/threading audit (the contract the concurrent runtime of
/// src/runtime is built on): an ExecContext — and the arena, stats,
/// tracer, and budget inside it — belongs to exactly one run on exactly
/// one thread. Nothing here takes a lock. Workers each own a private
/// ExecArena reused across jobs and construct a fresh ExecContext around
/// it per job; only immutable state (compiled PhysicalPlans, stored
/// Relations, specs) may be shared between threads.
class ExecContext {
 public:
  /// Creates a context with an optional budget on tuples produced. When
  /// `arena` is non-null the context borrows it (a compiled plan passes
  /// its own so scratch blocks are recycled across runs); otherwise the
  /// context owns a private arena living for the context's lifetime.
  explicit ExecContext(Counter tuple_budget = kCounterMax,
                       ExecArena* arena = nullptr)
      : tuple_budget_(tuple_budget), arena_(arena ? arena : &owned_arena_) {}

  ExecStats& stats() { return stats_; }
  const ExecStats& stats() const { return stats_; }

  /// Scratch arena for operator-transient memory. Operators bracket their
  /// use with an ArenaScope so the memory is recycled, not freed.
  ExecArena& arena() { return *arena_; }

  /// True once the tuple budget has been exceeded; all subsequent operator
  /// results are truncated and must be discarded by the caller.
  bool exhausted() const { return exhausted_; }

  Counter tuple_budget() const { return tuple_budget_; }

  /// Upper bound on rows any single operator can still emit before the
  /// budget latches (operators emit one row past the budget, then stop).
  /// Kernels size their outputs by it, and a kernel call whose output
  /// reaches it exhausts the budget; kCounterMax when unbudgeted and 0
  /// once the budget is exhausted (an exhausted run emits nothing more).
  Counter budget_headroom() const {
    if (tuple_budget_ == kCounterMax) return kCounterMax;
    if (exhausted_) return 0;
    return std::max<Counter>(0, tuple_budget_ - stats_.tuples_produced) + 1;
  }

  /// Charges `n` produced tuples against the budget. Returns false (and
  /// latches exhausted()) when the budget is exceeded.
  bool ChargeTuples(Counter n) {
    stats_.tuples_produced += n;
    if (stats_.tuples_produced > tuple_budget_) exhausted_ = true;
    return !exhausted_;
  }

  /// Span sink the operator kernels record into; nullptr (the default)
  /// disables tracing at the cost of one branch per operator.
  TraceSink* tracer() const { return tracer_; }
  void set_tracer(TraceSink* tracer) { tracer_ = tracer; }

  /// Pre-order plan-node id attributed to spans recorded by the next
  /// kernel invocations; -1 for operators outside any plan (one-shot
  /// kernel calls). The executor sets it before each node's operators.
  int32_t trace_node() const { return trace_node_; }
  void set_trace_node(int32_t node_id) { trace_node_ = node_id; }

 private:
  ExecStats stats_;
  Counter tuple_budget_;
  bool exhausted_ = false;
  ExecArena owned_arena_;
  ExecArena* arena_;
  TraceSink* tracer_ = nullptr;
  int32_t trace_node_ = -1;
};

}  // namespace ppr

#endif  // PPR_RELATIONAL_EXEC_CONTEXT_H_
