#ifndef PPR_EXEC_EXECUTOR_H_
#define PPR_EXEC_EXECUTOR_H_

#include "common/status.h"
#include "common/types.h"
#include "core/plan.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"
#include "relational/exec_context.h"
#include "relational/relation.h"

namespace ppr {

class PhysicalPlan;

/// Which join operator the executor uses at every internal node. The
/// paper fixed hash joins ("hash joins proved most efficient in our
/// setting"); kSortMerge exists to test that claim on identical plans.
enum class JoinAlgorithm {
  kHash,
  kSortMerge,
};

/// Knobs for one execution.
struct ExecutionOptions {
  /// Bound on total tuples produced (the deterministic timeout).
  Counter tuple_budget = kCounterMax;
  JoinAlgorithm join_algorithm = JoinAlgorithm::kHash;
};

/// Outcome of executing one plan.
struct ExecutionResult {
  /// OK, or RESOURCE_EXHAUSTED when the tuple budget ran out ("timeout"),
  /// or an error from plan/query mismatch.
  Status status;
  /// The query answer, a relation over the target schema. Only meaningful
  /// when status is OK.
  Relation output;
  /// Work counters (tuples produced, widest intermediate, ...).
  ExecStats stats;
  /// Wall-clock execution time in seconds.
  double seconds = 0.0;
  /// Pre-order id of the plan node whose kernel call exhausted the tuple
  /// budget; -1 when the run did not exhaust it.
  int32_t exhausted_node = -1;

  /// The Boolean answer: nonempty result. Only meaningful when OK.
  bool nonempty() const { return !output.empty(); }
};

/// Evaluates `plan` bottom-up against `db`: leaves bind stored relations
/// to atom attributes, internal nodes hash-join their children left to
/// right and then apply the node's projection (with DISTINCT) when the
/// projected label is a strict subset of the working label.
///
/// Implemented by compiling to a PhysicalPlan (exec/physical_plan.h) and
/// running it once with ExecuteCompiled; callers that run the same plan
/// repeatedly should compile once themselves and call
/// PhysicalPlan::ExecuteShared per run with an arena they reuse.
///
/// `tuple_budget` bounds total tuples produced across all operators; when
/// exceeded the result carries RESOURCE_EXHAUSTED (the deterministic
/// stand-in for the paper's timeouts).
ExecutionResult ExecutePlan(const ConjunctiveQuery& query, const Plan& plan,
                            const Database& db,
                            Counter tuple_budget = kCounterMax);

/// ExecutePlan with full options (join algorithm, budget).
ExecutionResult ExecutePlanWithOptions(const ConjunctiveQuery& query,
                                       const Plan& plan, const Database& db,
                                       const ExecutionOptions& options);

/// Runs a compiled plan once: PhysicalPlan::ExecuteShared with a per-run
/// arena, honouring PPR_TRACE. Untraced, the run touches no process-wide
/// state. With tracing enabled (obs/trace.h) it records into a private
/// sink and registry and then publishes them with PublishRun
/// (obs/exporters.h), so concurrent one-shot runs (the semantic tier
/// certifies on every worker that misses the plan cache) publish under
/// GlobalObsMutex() like the batch and service drains do.
ExecutionResult ExecuteCompiled(const PhysicalPlan& plan,
                                Counter tuple_budget = kCounterMax);

/// Convenience oracle: evaluates the query with the straightforward plan
/// (no reordering, single final projection). Reference answer for tests.
ExecutionResult ExecuteStraightforward(const ConjunctiveQuery& query,
                                       const Database& db,
                                       Counter tuple_budget = kCounterMax);

}  // namespace ppr

#endif  // PPR_EXEC_EXECUTOR_H_
