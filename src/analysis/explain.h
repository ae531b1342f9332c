#ifndef PPR_ANALYSIS_EXPLAIN_H_
#define PPR_ANALYSIS_EXPLAIN_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/plan.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"
#include "relational/exec_context.h"

namespace ppr {

/// Per-node execution profile: what the textbook cardinality model
/// predicted versus what the engine actually produced. The
/// estimate-vs-actual gap is exactly why the paper walks away from
/// cost-based optimization on these queries — on tiny domains with heavy
/// correlation, independence-based estimates drift by orders of
/// magnitude while the *structural* width bound stays exact.
struct NodeProfile {
  std::string label;       // "edge(x0, x1)" or "join"
  int depth = 0;           // root = 0
  int working_arity = 0;   // |L_w|
  int projected_arity = 0; // |L_p|
  double estimated_rows = 0.0;  // independence-assumption estimate
  // Rows the node's output call produced in the compiled run (its
  // projection, else its last join, else its scan); -1 when the node did
  // not finish: the node whose call exhausted the budget, its ancestors,
  // and the nodes the run never reached.
  int64_t actual_rows = 0;

  // ANALYZE-mode actuals, aggregated from the node's kernel spans
  // (obs/trace.h): total operator time, the largest single-operator
  // footprint (arena scratch + output bytes), and the widest operator
  // output produced while evaluating the node. Zero when the run was not
  // analyzed.
  int64_t actual_ns = 0;
  int64_t actual_bytes = 0;
  int actual_max_arity = 0;

  // Static predictions: the per-node bounds of the width analysis
  // (StaticAnalysis::per_node) of the plan, with or without a verifier
  // gate. predicted_arity_bound is -1 ("no prediction") when the
  // analysis failed or attributed no operator to this node;
  // predicted_rows_bound may be +infinity when the analyzer proved no
  // finite row bound.
  int predicted_arity_bound = -1;
  double predicted_rows_bound = 0.0;

  // True when the measured arity exceeds the predicted bound — the
  // analyzer's proof is wrong, which ANALYZE escalates to an error.
  bool arity_violation = false;
};

/// Result of profiling one compiled run of a plan.
struct ExplainResult {
  Status status;
  /// One profile per plan node, pre-order (root first); empty when the
  /// plan failed to compile and was never executed.
  std::vector<NodeProfile> nodes;
  /// The run's ExecStats, as PhysicalPlan::ExecuteShared returned them
  /// (peak_bytes included).
  ExecStats stats;
  /// The structural verifier tiers' verdict from the compile ("OK" or the
  /// first violation) when plan verification is enabled
  /// (analysis/verifier.h); empty when verification did not run. A
  /// failing verdict also fails `status` — the plan is never executed.
  /// An ANALYZE run whose measured arity beats a predicted bound also
  /// reports the violation here (and fails `status` with Internal).
  std::string verifier_verdict;

  /// Semantic-certification verdict ("OK" or the failure) when semantic
  /// verification (PPR_VERIFY_SEMANTICS / EnableSemanticVerification) is
  /// on; empty when the tier did not run. A failure also fails `status`.
  std::string semantic_verdict;
  /// Wall time the semantic certification cost, in nanoseconds; -1 when
  /// the tier did not run. Rendered on the `-- verifier:` line so EXPLAIN
  /// shows what the proof costs next to what it proved.
  int64_t semantic_ns = -1;

  /// True when the run was profiled with per-operator spans (ANALYZE
  /// mode) and the per-node actuals above are meaningful.
  bool analyzed = false;

  /// Indented EXPLAIN ANALYZE-style rendering, followed by a summary
  /// line with the aggregate counters and, when verification ran, a
  /// verifier verdict line.
  std::string ToString() const;

  /// max(actual/estimate, estimate/actual) over profiled nodes (empty
  /// results smoothed to one row) — the worst-case multiplicative
  /// estimation error.
  double WorstEstimateRatio() const;
};

/// Analyzes `plan` (AnalyzePlan), compiles it through CompileVerified
/// (analysis/verifier.h), which runs every enabled verifier tier over
/// that analysis, and runs it once with ExecuteShared under
/// `tuple_budget`, tracing its kernel spans into a private sink. Every
/// node gets the estimated output cardinality (uniform attributes over a
/// domain of `domain_size` values, independent predicates — the model of
/// optsearch/cost_model.h), computed from the plan alone, and its actual
/// row count, read from the spans. The stats and spans are the engine's
/// own: EXPLAIN runs what every other execution path runs.
///
/// With `analyze` set (EXPLAIN ANALYZE) every node is also annotated with
/// measured time, bytes, and widest produced arity beside the width
/// analyzer's static predictions, the per-node bounds of that analysis,
/// whichever verifier gates are on. A node whose measured arity exceeds
/// its predicted bound is flagged and the result status becomes
/// Internal: the static proof was wrong. The analyze=false rendering is
/// byte-identical whether or not process-wide tracing (PPR_TRACE) is on.
ExplainResult ExplainPlan(const ConjunctiveQuery& query, const Plan& plan,
                          const Database& db, double domain_size,
                          Counter tuple_budget = kCounterMax,
                          bool analyze = false);

}  // namespace ppr

#endif  // PPR_ANALYSIS_EXPLAIN_H_
