#ifndef PPR_ANALYSIS_SCHEDULE_H_
#define PPR_ANALYSIS_SCHEDULE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/plan.h"
#include "query/conjunctive_query.h"

namespace ppr {

/// Kind of one scheduled physical operator.
enum class OpKind {
  kScan,     // leaf: bind a stored relation to an atom
  kJoin,     // one fold step of an internal node
  kProject,  // trailing DISTINCT projection of a node
};

/// One operator of the linearized execution schedule. The schedule is the
/// exact operator sequence a compiled plan runs (post-order over the
/// plan; per internal node: children left to right interleaved with fold
/// joins, then the optional projection), with symbolic schemas derived the
/// same way the compiler derives them. Index in the schedule is the
/// operator's budget-charge point: operator i charges the tuple budget
/// strictly before operator i+1.
struct ScheduledOp {
  OpKind kind = OpKind::kScan;
  /// Pre-order id of the logical node this operator belongs to (root = 0,
  /// node before its children, children left to right): the numbering of
  /// PhysicalNode::node_id and of trace spans' node_id.
  int32_t node_id = -1;
  /// Atom bound by a scan; -1 otherwise.
  int atom_index = -1;
  /// Schedule indices of the input operators (-1 = none). Joins have
  /// both; projections and the budget-order checks use `left_input`.
  int left_input = -1;
  int right_input = -1;
  /// Symbolic output schema in engine column order (scan: distinct atom
  /// attributes in first-occurrence order; join: left ++ right-only;
  /// project: the node's projected label).
  std::vector<AttrId> out_attrs;

  int arity() const { return static_cast<int>(out_attrs.size()); }
};

/// A logical plan linearized into its operator schedule.
struct OpSchedule {
  std::vector<ScheduledOp> ops;
  /// Index of the operator producing the query answer.
  int root_op = -1;
  /// Number of plan nodes: node ids run 0..num_nodes-1.
  int32_t num_nodes = 0;

  int num_ops() const { return static_cast<int>(ops.size()); }

  /// One line per operator, for diagnostics.
  std::string ToString(const ConjunctiveQuery& query) const;
};

/// Lowers `plan` into its operator schedule. Purely symbolic (no database
/// access): schemas are derived from atom attribute lists and node labels
/// exactly as PhysicalPlan::Compile derives them, and each operator is
/// stamped with its node's pre-order id. The plan need not be valid —
/// malformed trees produce a schedule whose inconsistencies
/// ValidateSchedule then reports. AnalyzePlan, which the other analyses
/// read, is its one caller outside tests.
OpSchedule BuildSchedule(const ConjunctiveQuery& query, const Plan& plan);

/// Checks the internal consistency of a schedule:
///  - every input index refers to an earlier operator (budget-charge
///    points in order) and each intermediate is consumed at most once
///    (linear use — the executor frees inputs after their last use);
///  - scans bind in-range atoms and emit exactly the atom's distinct
///    attributes;
///  - joins emit left ++ right-only attributes (no attribute invented or
///    dropped by a join);
///  - projections read only attributes their input provides (an attribute
///    a projection outputs but its input lacks is an unbound variable);
///  - the final operator produces the target schema.
Status ValidateSchedule(const ConjunctiveQuery& query,
                        const OpSchedule& schedule);

}  // namespace ppr

#endif  // PPR_ANALYSIS_SCHEDULE_H_
