#ifndef PPR_RELATIONAL_OPS_H_
#define PPR_RELATIONAL_OPS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "relational/exec_context.h"
#include "relational/relation.h"

namespace ppr {

/// The relational operators come in two layers:
///
///  - *Specs* (JoinSpec, ProjectSpec, ScanSpec, SemiJoinSpec) hold
///    everything derivable from schemas alone: output attributes, key
///    column indices, payload copy maps, projection masks. A compiled
///    PhysicalPlan (exec/physical_plan.h) plans them once per plan node.
///    JoinSpec, ProjectSpec and ScanSpec are views: the planners append
///    their attribute and column lists to a SpecPool, which a compiled
///    plan shares among all of its specs.
///  - *Kernels* (HashJoin, ProjectColumns, SemiJoinFiltered, ScanAtom in
///    relational/batch_ops.h) execute a spec against relations. There is
///    one kernel set: columnar data movement over flat open-addressing
///    hash tables (relational/flat_hash.h), one pass over the whole input
///    per call on the calling thread, with all scratch bump-allocated
///    from ExecArenas.
///
/// The schema-level wrappers below (NaturalJoin, Project, SemiJoin,
/// BindAtom) plan the spec into a local pool and invoke the kernel;
/// one-shot callers (semijoin pass, minibuckets, tests) use those.
/// Plan runs, EXPLAIN's included, go through compiled plans instead.

/// The ints that specs view: their output attributes and column lists.
/// A planner appends a spec's lists and returns views of them, which stay
/// valid while the pool keeps its storage. So a pool grows only while it
/// is empty (the planners PPR_CHECK it): plan one spec into a fresh pool,
/// or reserve the room for every spec beforehand, as Compile does.
using SpecPool = std::vector<int32_t>;

/// Precomputed column mappings of a natural join with output schema
/// `left's attributes ++ right-only attributes`.
struct JoinSpec {
  std::span<const AttrId> out_attrs;
  /// Indices of the shared attributes in each input (aligned pairwise).
  std::span<const int> left_key_cols;
  std::span<const int> right_key_cols;
  /// Right columns appended after the full left row.
  std::span<const int> right_carry_cols;
};

/// Derives the join spec for two input schemas, appending
/// left.size() + 2 * right.size() ints to `pool`.
JoinSpec PlanJoin(std::span<const AttrId> left, std::span<const AttrId> right,
                  SpecPool& pool);

/// Duplicate-eliminating projection: output columns `cols` of the input,
/// in the requested attribute order.
struct ProjectSpec {
  std::span<const AttrId> out_attrs;
  std::span<const int> cols;
};

/// Derives the projection spec, appending 2 * attrs.size() ints to
/// `pool`; `attrs` must be distinct and all exist in `input`.
ProjectSpec PlanProject(std::span<const AttrId> input,
                        const std::vector<AttrId>& attrs, SpecPool& pool);

/// Key columns of a semijoin (output schema is the left schema). It is
/// planned per call and owns its lists.
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
  std::span<const AttrId> out_attrs;
  /// Stored column providing each output column.
  std::span<const int> source_cols;
  /// (repeat column, first-occurrence column) pairs, flattened, whose
  /// values must be equal.
  std::span<const int> equal_checks;
};

/// Derives the scan spec, appending 2 * args.size() ints to `pool`;
/// `args.size()` must equal the stored arity.
ScanSpec PlanScan(int stored_arity, const std::vector<AttrId>& args,
                  SpecPool& pool);

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
