#ifndef PPR_ANALYSIS_WIDTH_ANALYZER_H_
#define PPR_ANALYSIS_WIDTH_ANALYZER_H_

#include <string>
#include <vector>

#include "analysis/schedule.h"
#include "common/status.h"
#include "common/types.h"
#include "core/plan.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"

namespace ppr {

/// Static bounds the width analyzer proves for one plan node, in the
/// shared pre-order numbering (root = 0, node before its children,
/// children left to right): StaticAnalysis::per_node. EXPLAIN ANALYZE
/// prints these beside the actuals and flags any run whose observed
/// arity exceeds arity_bound — a violated bound means the analyzer, not
/// the engine, is wrong.
struct PlanNodeBound {
  /// Max arity of any operator output while evaluating the node
  /// (kUnbounded when the analyzer proved nothing).
  int arity_bound = kUnbounded;
  /// Upper bound on any operator's output rows at the node; +infinity
  /// when unbounded.
  double rows_bound = 0.0;

  static constexpr int kUnbounded = -1;
};

/// Static bound for one scheduled operator's output.
struct OpBound {
  OpKind kind = OpKind::kScan;
  /// Pre-order id of the plan node the operator belongs to
  /// (ScheduledOp::node_id).
  int32_t node_id = -1;
  /// Exact arity of the operator's output relation.
  int arity = 0;
  /// Upper bound on the operator's output row count (see AnalyzePlan).
  double size_bound = 0.0;
};

/// Result of statically analyzing one (query, plan, database) triple.
struct StaticAnalysis {
  Status status;

  /// Exact arity of the widest intermediate any execution materializes:
  /// max over scheduled operators of the output arity. Equals the plan's
  /// join width (max |L_w|), and — because the engine notes every
  /// operator output, truncated or not — equals the executed
  /// ExecStats::max_intermediate_arity of every non-error run.
  int max_intermediate_arity = 0;

  /// Upper bound on the row count of the largest intermediate
  /// (ExecStats::max_intermediate_rows of an unbudgeted run never
  /// exceeds it).
  double max_intermediate_rows_bound = 0.0;

  /// Upper bound on total tuples produced across all operators — a
  /// static sufficient tuple budget: running with a budget strictly
  /// larger than this can never exhaust.
  double tuples_produced_bound = 0.0;

  /// Per-operator bounds, in schedule (budget-charge) order.
  std::vector<OpBound> per_op;

  /// Per-node bounds, one per plan node in pre-order (the numbering of
  /// PhysicalNode ids, trace spans and ExplainResult::nodes): each is the
  /// max over the node's operators in `per_op` (its scan or fold joins
  /// plus the optional trailing projection). A node with no operator (an
  /// unprojected one-child node) keeps PlanNodeBound's defaults. An
  /// infinite row bound stays +infinity; arity bounds are always finite
  /// because arities are symbolic. EXPLAIN ANALYZE prints these as its
  /// predictions (analysis/explain.h).
  std::vector<PlanNodeBound> per_node;

  /// Human-readable summary (arity and row bounds).
  std::string ToString() const;
};

/// Computes, without executing the plan, the exact maximal intermediate
/// arity and AGM-style size upper bounds from the stored relations'
/// cardinalities: the one pass that lowers a plan to its operator
/// schedule and bounds it, per operator and per node.
///
/// Size bounds are sound for the engine's semantics: each operator's
/// output is bounded by the minimum of (a) the product of its input
/// bounds, (b) the product of |R_i| over any subset of the atoms below it
/// that covers the output attributes (the integral fractional-edge-cover
/// relaxation of the AGM bound, searched greedily), and (c) when every
/// stored relation below is duplicate-free, the product of per-attribute
/// active-domain sizes (for DISTINCT projections, (c) applies
/// unconditionally).
StaticAnalysis AnalyzePlan(const ConjunctiveQuery& query, const Plan& plan,
                           const Database& db);

/// Cross-checks `analysis` (AnalyzePlan of the same plan) against the
/// theory module (Theorems 1-2): the schedule's max arity must equal the
/// plan's join width, the plan's working labels must form a valid tree
/// decomposition of the join graph (Algorithm 1) of width max arity - 1,
/// and that width must respect the MMD treewidth lower bound. Returns
/// the analysis's status when it failed. Call only on plans that pass
/// VerifyLogicalPlan (malformed labels would PPR_CHECK inside theory).
Status CrossCheckWidth(const ConjunctiveQuery& query, const Plan& plan,
                       const StaticAnalysis& analysis);

}  // namespace ppr

#endif  // PPR_ANALYSIS_WIDTH_ANALYZER_H_
