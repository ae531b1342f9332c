#ifndef PPR_ANALYSIS_PLAN_VERIFIER_H_
#define PPR_ANALYSIS_PLAN_VERIFIER_H_

#include "common/status.h"
#include "core/plan.h"
#include "query/conjunctive_query.h"

namespace ppr {

/// Static verifier for logical plans: proves, without executing anything,
/// that `plan` is a well-formed, semantics-preserving join-expression tree
/// for `query` that the physical layer can lower and run. Rejects:
///  - structural damage: atoms missing from or duplicated across leaves,
///    internal nodes carrying atom indices, unsorted or duplicated labels,
///    a working label that is not the union of the children's projected
///    labels, a root that does not produce the target schema;
///  - unbound variables: a label attribute no atom below the node binds;
///  - premature projection: dropping an attribute that a later join (an
///    atom outside the subtree) or the target schema still needs.
///
/// OK means every operator the executor will run is type-correct and the
/// answer equals the query's answer on any database instance. The
/// operator schedule and the catalog are AnalyzePlan's to check
/// (analysis/width_analyzer.h): it validates the schedule it builds and
/// reads every atom's relation, and the verified compile fails on its
/// status (analysis/verifier.h).
Status VerifyLogicalPlan(const ConjunctiveQuery& query, const Plan& plan);

}  // namespace ppr

#endif  // PPR_ANALYSIS_PLAN_VERIFIER_H_
