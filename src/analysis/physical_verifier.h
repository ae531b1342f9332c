#ifndef PPR_ANALYSIS_PHYSICAL_VERIFIER_H_
#define PPR_ANALYSIS_PHYSICAL_VERIFIER_H_

#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/plan.h"
#include "exec/physical_plan.h"
#include "obs/trace.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"
#include "relational/exec_context.h"

namespace ppr {

/// Static verifier for compiled plans: checks every PhysicalNode against
/// its logical source node and the database, from first principles (it
/// re-derives nothing through the compiler's own spec builders, so a bug
/// in PlanScan/PlanJoin/PlanProject is caught rather than mirrored).
/// Rejects:
///  - shape drift: physical tree shape differing from the logical plan,
///    joins.size() != children.size() - 1, or a node or child id that is
///    not the node's pre-order index;
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
///    node's projected label;
///  - projection-pushing flags the labels do not imply, in either
///    direction: a node marked distinct that is neither projecting nor a
///    join of distinct children (a scan never is), or the reverse; or a
///    keyed join input (PhysicalNode::keyed) other than the one that is
///    distinct with every attribute in the projected label. A wrongly
///    set flag makes the keyed projection return duplicate rows.
///
/// OK means a run of the plan performs exactly the logical plan's
/// operators: all raw column accesses are in bounds and every operator's
/// output schema matches the logical label it implements.
Status VerifyPhysicalPlan(const ConjunctiveQuery& query, const Plan& plan,
                          const Database& db, const PhysicalPlan& physical);

/// Post-run verifier for the kernel spans of one run (obs/trace.h; one
/// span per kernel call, in execution order): checks them against the
/// operator schedule and static bounds of one AnalyzePlan of the plan,
/// and the run's budget charges. Like VerifyPhysicalPlan it takes
/// nothing from the compiler — operator arities come from the schedule
/// the analyzer derives from the logical labels, never from the compiled
/// specs — so a kernel that counted wrongly is caught rather than
/// trusted. Returns the analysis's status when it fails. Rejects:
///  - a node id outside the plan's pre-order numbering;
///  - operator misplacement: a scan on a non-leaf, a join on a leaf, a
///    projection on a non-projecting node, or any semijoin (plans run
///    none);
///  - batch-schema drift: a span whose arity_out is not the arity the
///    schedule gives that node's operator of its kind (scans emit the
///    atom's distinct attributes, fold joins the running union of child
///    output labels, projections the projected label);
///  - bound violations: a call's rows above its node's finite static row
///    bound (StaticAnalysis::per_node) — meaning the analyzer's proof is
///    wrong — or a negative row count;
///  - row-accounting damage: span rows that do not add up to the tuples
///    the run charged against its budget (`stats.tuples_produced`). A
///    completed run (tuples_produced <= tuple_budget) must match
///    exactly; a budget-exhausted one may not exceed it, since its
///    exhausting call charges rows it never writes.
///
/// Sound under budget truncation: a truncated run executes a prefix of
/// the operators and materializes fewer rows, both of which still pass.
/// The tests run it over traced ExecuteShared runs.
Status VerifyKernelSpans(const ConjunctiveQuery& query, const Plan& plan,
                         const Database& db,
                         const std::vector<TraceSpan>& spans,
                         const ExecStats& stats, Counter tuple_budget);

}  // namespace ppr

#endif  // PPR_ANALYSIS_PHYSICAL_VERIFIER_H_
