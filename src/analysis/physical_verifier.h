#ifndef PPR_ANALYSIS_PHYSICAL_VERIFIER_H_
#define PPR_ANALYSIS_PHYSICAL_VERIFIER_H_

#include "common/status.h"
#include "core/plan.h"
#include "exec/physical_plan.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"

namespace ppr {

/// Static verifier for compiled plans: checks every PhysicalNode against
/// its logical source node and the database, from first principles (it
/// re-derives nothing through the compiler's own spec builders, so a bug
/// in PlanScan/PlanJoin/PlanProject is caught rather than mirrored).
/// Rejects:
///  - shape drift: physical tree shape differing from the logical plan,
///    or joins.size() != children.size() - 1;
///  - scan damage: a stored pointer that is not the catalog relation the
///    atom names, source/equal-check column indices out of the stored
///    arity, an output schema that is not the atom's distinct attributes,
///    or equality checks inconsistent with the atom's repeated attributes;
///  - join damage: build/probe key maps of different lengths, key or
///    carry indices out of bounds, keys misaligned (left and right key
///    columns naming different attributes), a missed or invented join
///    key, or an output schema that is not left ++ right-only;
///  - projection damage: a mask column out of bounds, a mask inconsistent
///    with the output schema, a projection present where the logical node
///    has none (or vice versa), or an output schema differing from the
///    node's projected label.
///
/// OK means Execute() performs exactly the logical plan's operators: all
/// raw column accesses are in bounds and every operator's output schema
/// matches the logical label it implements.
Status VerifyPhysicalPlan(const ConjunctiveQuery& query, const Plan& plan,
                          const Database& db, const PhysicalPlan& physical);

/// Post-run verifier for morsel-driven execution: checks the
/// per-operator accounting a run reported (one MorselOpAccount
/// per kernel invocation, exec/physical_plan.h) against the logical plan
/// and the width analyzer's static bounds. Like VerifyPhysicalPlan it
/// re-derives everything from first principles — batch schema arities
/// come from the logical labels, never from the compiled specs — so a
/// kernel that partitioned, merged, or counted wrongly is caught rather
/// than trusted. Rejects:
///  - a node id outside the plan's pre-order numbering;
///  - row-accounting damage: a negative per-morsel row count, or morsel
///    counts that do not sum to the rows the operator materialized
///    (morsels dropped, double-counted, or merged out of order);
///  - batch-schema drift: a scan on a non-leaf, a join or projection
///    whose reported arity differs from the arity the logical labels
///    imply for that node (scans emit the atom's distinct attributes,
///    fold joins the running union of child output labels, projections
///    the projected label);
///  - bound violations: an operator arity above the node's static arity
///    bound, or materialized rows above a finite static row bound
///    (NodeBoundsPreOrder) — meaning the analyzer's proof is wrong.
///
/// Sound under budget truncation: a truncated run executes a prefix of
/// the operators and materializes fewer rows, both of which still pass.
/// This is the `morsel_accounting` hook (exec/verify_hook.h) the runtime
/// morsel driver invokes after a verified run.
Status VerifyMorselAccounting(const ConjunctiveQuery& query, const Plan& plan,
                              const Database& db,
                              const MorselAccounting& accounting);

}  // namespace ppr

#endif  // PPR_ANALYSIS_PHYSICAL_VERIFIER_H_
