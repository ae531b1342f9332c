#ifndef PPR_RELATIONAL_OPS_H_
#define PPR_RELATIONAL_OPS_H_

#include <utility>
#include <vector>

#include "common/types.h"
#include "relational/exec_context.h"
#include "relational/relation.h"

namespace ppr {

/// The relational operators come in two layers:
///
///  - *Specs* (JoinSpec, ProjectSpec, SemiJoinSpec, ScanSpec) hold
///    everything derivable from schemas alone: output schema, key column
///    indices, payload copy maps, projection masks. A compiled
///    PhysicalPlan (exec/physical_plan.h) builds them once per plan node.
///  - *Kernels* (HashJoin, ProjectColumns, SemiJoinFiltered, ScanAtom in
///    relational/batch_ops.h) execute a spec against relations. There is
///    one kernel set: columnar data movement over flat open-addressing
///    hash tables (relational/flat_hash.h), one pass over the whole input
///    per call on the calling thread, with all scratch bump-allocated
///    from ExecArenas.
///
/// The schema-level wrappers below (NaturalJoin, Project, SemiJoin,
/// BindAtom) build the spec on the fly and invoke the kernel;
/// one-shot callers (semijoin pass, minibuckets, csp, tests) use those.
/// Plan runs, EXPLAIN's included, go through compiled plans instead.

/// Precomputed column mappings of a natural join with output schema
/// `left's attributes ++ right-only attributes`.
struct JoinSpec {
  Schema out_schema;
  /// Indices of the shared attributes in each input (aligned pairwise).
  std::vector<int> left_key_cols;
  std::vector<int> right_key_cols;
  /// Right columns appended after the full left row.
  std::vector<int> right_carry_cols;
};

/// Derives the join spec for two input schemas.
JoinSpec PlanJoin(const Schema& left, const Schema& right);

/// Duplicate-eliminating projection: output columns `cols` of the input,
/// in the requested attribute order.
struct ProjectSpec {
  Schema out_schema;
  std::vector<int> cols;
};

/// Derives the projection spec; all `attrs` must exist in `input`.
ProjectSpec PlanProject(const Schema& input, const std::vector<AttrId>& attrs);

/// Key columns of a semijoin (output schema is the left schema).
struct SemiJoinSpec {
  std::vector<int> left_key_cols;
  std::vector<int> right_key_cols;
};

/// Derives the semijoin spec for two input schemas.
SemiJoinSpec PlanSemiJoin(const Schema& left, const Schema& right);

/// Atom binding: maps a stored relation's columns to query attributes,
/// folding repeated attributes into an equality selection.
struct ScanSpec {
  /// Distinct attributes in first-occurrence order.
  Schema out_schema;
  /// Stored column providing each output column.
  std::vector<int> source_cols;
  /// Pairs (repeat column, first-occurrence column) that must be equal.
  std::vector<std::pair<int, int>> equal_checks;
};

/// Derives the scan spec; `args.size()` must equal the stored arity.
ScanSpec PlanScan(int stored_arity, const std::vector<AttrId>& args);

/// Natural join: combines tuples of `left` and `right` that agree on all
/// common attributes. Output schema is left's attributes followed by
/// right-only attributes. With no common attributes this degenerates to the
/// Cartesian product (the paper's reordering example joins ON (TRUE)).
///
/// Implemented as a hash join — the paper selected hash joins in PostgreSQL
/// as "most efficient in our setting". The smaller input is the build side.
/// Respects the tuple budget of `ctx`: a call whose output would exhaust
/// it returns an empty relation, which the caller must discard.
Relation NaturalJoin(const Relation& left, const Relation& right,
                     ExecContext& ctx);

/// Duplicate-eliminating projection of `input` onto `attrs` (which must all
/// be present in the input schema). Matches SQL's SELECT DISTINCT — every
/// subquery the paper generates projects with DISTINCT. `attrs` may be
/// empty: the result is then a nullary relation that is nonempty iff the
/// input is (Boolean queries).
Relation Project(const Relation& input, const std::vector<AttrId>& attrs,
                 ExecContext& ctx);

/// Semijoin: tuples of `left` that join with at least one tuple of `right`
/// on the common attributes. Used by the Yannakakis-style pre-pass
/// extension (the Wong-Youssefi direction discussed in Section 7).
Relation SemiJoin(const Relation& left, const Relation& right,
                  ExecContext& ctx);

/// Instantiates a stored relation as a query atom. `args[i]` is the
/// attribute bound to column i of `stored`; repeated attributes (e.g.
/// edge(x, x)) select rows where those columns are equal and collapse to a
/// single output column at the first occurrence. Output schema lists the
/// distinct attributes in first-occurrence order.
Relation BindAtom(const Relation& stored, const std::vector<AttrId>& args,
                  ExecContext& ctx);

}  // namespace ppr

#endif  // PPR_RELATIONAL_OPS_H_
