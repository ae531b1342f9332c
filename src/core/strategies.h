#ifndef PPR_CORE_STRATEGIES_H_
#define PPR_CORE_STRATEGIES_H_

#include <vector>

#include "common/rng.h"
#include "core/plan.h"
#include "graph/elimination.h"
#include "query/conjunctive_query.h"

namespace ppr {

/// The straightforward approach (Section 3): a left-deep join in the order
/// the atoms are listed — (...(e_1 |><| e_2) ... |><| e_m) — with a single
/// projection onto the target schema at the very end. No projection
/// pushing; intermediate results keep every attribute seen so far.
Plan StraightforwardPlan(const ConjunctiveQuery& query);

/// Early projection (Section 4): same left-deep order, but after each join
/// every variable whose atoms have all been joined (and that is not free)
/// is projected out, so each intermediate result carries exactly the
/// *live* variables.
Plan EarlyProjectionPlan(const ConjunctiveQuery& query);

/// Early projection along an explicit atom permutation: `perm[i]` is the
/// index of the atom processed i-th. Building block for ReorderingPlan and
/// for ablations. PPR_CHECK-fails unless perm is a permutation of atoms.
Plan EarlyProjectionPlanWithOrder(const ConjunctiveQuery& query,
                                  const std::vector<int>& perm);

/// The greedy atom order of Section 4: at each step pick the atom with the
/// maximum number of (non-free) variables that occur in no other remaining
/// atom — i.e. that can be projected immediately; ties go to the atom
/// sharing the fewest variables with the remaining atoms; further ties are
/// broken randomly via `rng` (or by lowest atom index when rng is null).
std::vector<int> GreedyReorder(const ConjunctiveQuery& query, Rng* rng);

/// Reordering strategy (Section 4): GreedyReorder + early projection.
Plan ReorderingPlan(const ConjunctiveQuery& query, Rng* rng);

/// Bucket elimination (Section 5) along a variable numbering: `numbering`
/// lists the query's attributes x_1..x_n (free variables must come first,
/// as the paper requires, so that they are eliminated last). Buckets are
/// processed from the highest-numbered variable down; each bucket joins
/// its relations and projects out its variable unless free; the result
/// moves to the bucket of its highest remaining variable. Remaining
/// relations join at the root.
Plan BucketEliminationPlan(const ConjunctiveQuery& query,
                           const std::vector<AttrId>& numbering);

/// Bucket elimination with the paper's maximum-cardinality-search
/// numbering of the join graph, target-schema variables first (Section 5);
/// tie-breaks random via `rng` (deterministic when null).
Plan BucketEliminationPlanMcs(const ConjunctiveQuery& query, Rng* rng);

/// Plan built from a tree decomposition of the join graph via Algorithm 3
/// (Mark-and-Sweep + conversion). The decomposition is derived from the
/// elimination order `order` of the join graph; with an optimal order this
/// realizes the join width tw(G_Q) + 1 of Theorem 1. Extension beyond the
/// paper's experiments (they prove it but benchmark bucket elimination).
Plan TreewidthPlan(const ConjunctiveQuery& query,
                   const EliminationOrder& order);

}  // namespace ppr

#endif  // PPR_CORE_STRATEGIES_H_
