#ifndef PPR_EXEC_PHYSICAL_PLAN_H_
#define PPR_EXEC_PHYSICAL_PLAN_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "common/types.h"
#include "core/plan.h"
#include "exec/executor.h"
#include "query/conjunctive_query.h"
#include "relational/batch_ops.h"
#include "relational/database.h"
#include "relational/ops.h"
#include "relational/relation.h"

namespace ppr {

class MetricsRegistry;
class TraceSink;

/// One logical plan node lowered to physical form: stored-relation
/// pointers, scan bindings, join column maps, and projection masks are
/// all resolved at compile time, so execution never touches schemas,
/// attribute ids, or the catalog.
///
/// A compiled plan keeps its nodes in one array in pre-order, and every
/// schema and column list of their specs in one SpecPool
/// (relational/ops.h) that the specs view; the children and join specs a
/// node names sit in the plan too. A node is valid only inside its plan.
struct PhysicalNode {
  /// Pre-order index of the logical node this was lowered from (root = 0,
  /// node before its children, children left to right), which is its
  /// index in the plan's node array — the numbering shared with
  /// ExplainResult::nodes and with trace spans' node_id.
  int32_t node_id = -1;

  /// Trailing projection for nodes whose projected label is a strict
  /// subset of the working label.
  bool has_project = false;
  /// Whether this node's output rows are pairwise distinct: it projects
  /// (DISTINCT), or it joins children whose outputs are. A scan is never
  /// assumed distinct, since a stored relation may hold duplicates.
  bool distinct = false;
  /// For a projecting node with a fold step: the input of its last join
  /// that is distinct and has every attribute in the projected label,
  /// which the projection then deduplicates once per key group when that
  /// input is the join's probe side (relational/batch_ops.h).
  KeyedSide keyed = KeyedSide::kNone;

  /// Leaf: the stored relation captured from the database, plus the atom
  /// binding (rename / repeated-attribute selection).
  const Relation* stored = nullptr;
  ScanSpec scan;

  /// Internal: the node ids of the children, left to right. They are
  /// folded left to right; joins[i-1] holds the precomputed column maps
  /// for (acc after children[0..i-1]) |><| children[i]. The accumulated
  /// schema is static, so every fold step compiles exactly once.
  std::span<const int32_t> children;
  std::span<const JoinSpec> joins;

  ProjectSpec project;

  bool IsLeaf() const { return children.empty(); }
};

/// A plan compiled once against (query, plan, database) and executable
/// many times. Compilation precomputes, per node, the scan binding,
/// build/probe key columns, payload copy maps, and projection masks;
/// execution is then pure data movement through the kernels of
/// relational/batch_ops.h, with operator scratch bump-allocated from an
/// arena the caller owns, whose blocks are recycled across operators
/// *and* across the runs that reuse it.
///
/// The compiled plan is three heap blocks whatever its size: the node
/// array, the join specs, and the pool of ints every spec views. Every
/// plan-cache miss builds one and every eviction frees one.
///
/// There is one plan walker and one way to run it, the const
/// ExecuteShared(), which runs every kernel call as one pass on the
/// calling thread and touches no process-wide state. A one-shot run that
/// honours PPR_TRACE goes through ExecuteCompiled (exec/executor.h),
/// which publishes the run under the obs capability afterwards.
///
/// The logical plan's semantics are untouched: a run performs the same
/// operators in the same order with the same budget/statistics behavior
/// as the seed interpreter, so tuples_produced, max_intermediate_arity,
/// and the answer relation are identical.
///
/// The database must outlive the physical plan (leaves capture pointers
/// to its stored relations); re-Put-ing a relation invalidates compiled
/// plans against it.
class PhysicalPlan {
 public:
  PhysicalPlan(PhysicalPlan&&) = default;
  PhysicalPlan& operator=(PhysicalPlan&&) = default;
  PhysicalPlan(const PhysicalPlan&) = delete;
  PhysicalPlan& operator=(const PhysicalPlan&) = delete;

  /// Compiles `plan` for `query` against `db`. Fails with InvalidArgument
  /// on an empty plan and propagates query/database validation errors.
  /// It only lowers: the verified compile is CompileVerified
  /// (analysis/verifier.h), which wraps this in the verifier tiers.
  static Result<PhysicalPlan> Compile(
      const ConjunctiveQuery& query, const Plan& plan, const Database& db,
      JoinAlgorithm join_algorithm = JoinAlgorithm::kHash);

  /// Runs the compiled plan serially under `tuple_budget`. The caller
  /// supplies the scratch arena: it is Reset() here per run, so a caller
  /// that reuses one across runs (each worker of src/runtime owns its
  /// own) makes no heap allocations outside the output relations in
  /// steady state; nullptr falls back to a private per-run arena.
  /// Nothing in the plan is mutated, so any number of threads may run
  /// the same plan concurrently (the plan cache hands one compiled plan
  /// to many workers) as long as each passes its own arena/trace/metrics.
  ///
  /// Observability stays explicit and thread-local: spans go to `trace`
  /// when non-null (never to the process-wide sink), per-run stats (and,
  /// when traced, span histograms) publish into `metrics` when non-null
  /// (never to GlobalMetrics()), and no trace artifacts are flushed.
  ///
  /// The kernels' spans, when traced, are the run's per-operator record
  /// (one per kernel call, recorded when the call ends, a counted join's
  /// when it is resolved), which EXPLAIN and the kernel-span verifier
  /// (analysis/physical_verifier.h) read.
  ExecutionResult ExecuteShared(ExecArena* arena,
                                Counter tuple_budget = kCounterMax,
                                TraceSink* trace = nullptr,
                                MetricsRegistry* metrics = nullptr) const;

  /// Number of physical nodes (same shape as the logical plan).
  int NumNodes() const { return static_cast<int>(nodes_.size()); }

  /// Node `id`, for static analysis and explain tooling; the root is
  /// node 0.
  const PhysicalNode& node(int32_t id) const {
    return nodes_[static_cast<size_t>(id)];
  }

  /// Attributes of node `id`'s output, which its last spec gives: the
  /// projection's, else the last fold step's, else the scan's (or, for
  /// an internal node with one child, that child's). The root's is the
  /// answer relation's schema.
  std::span<const AttrId> output_attrs(int32_t id = 0) const;

  /// Mutable access for plan-mutation tests that corrupt compiled plans
  /// to exercise the verifier: a node, and its join specs.
  PhysicalNode& mutable_node(int32_t id) {
    return nodes_[static_cast<size_t>(id)];
  }
  std::span<JoinSpec> mutable_joins(int32_t id);

 private:
  PhysicalPlan(std::vector<PhysicalNode> nodes, std::vector<JoinSpec> joins,
               SpecPool pool, JoinAlgorithm join_algorithm)
      : nodes_(std::move(nodes)),
        joins_(std::move(joins)),
        pool_(std::move(pool)),
        join_algorithm_(join_algorithm) {}

  // Moving a plan moves these vectors' storage, which the nodes' and
  // specs' views point into, so the views stay valid.
  std::vector<PhysicalNode> nodes_;
  std::vector<JoinSpec> joins_;
  SpecPool pool_;
  JoinAlgorithm join_algorithm_;
};

}  // namespace ppr

#endif  // PPR_EXEC_PHYSICAL_PLAN_H_
