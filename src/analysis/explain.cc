#include "analysis/explain.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "analysis/width_analyzer.h"
#include "common/check.h"
#include "exec/physical_plan.h"
#include "obs/trace.h"

namespace ppr {
namespace {

// Estimation state for a subtree: union of attributes and the product of
// atom selectivities below it.
struct Estimate {
  std::vector<AttrId> attrs;  // sorted
  double selectivity = 1.0;
};

// Estimated rows of a relation over `projected` given the subtree's full
// attribute set and accumulated selectivity: the full join has
// domain^|attrs| * selectivity rows; projecting cannot exceed
// domain^|projected|.
double EstimateRows(const Estimate& est, size_t projected_arity,
                    double domain) {
  const double full =
      std::pow(domain, static_cast<double>(est.attrs.size())) *
      est.selectivity;
  const double cap = std::pow(domain, static_cast<double>(projected_arity));
  return std::min(full, cap);
}

// What one plan node's kernel calls produced in a run, from its spans.
struct NodeCalls {
  int64_t scan_rows = 0;
  int64_t project_rows = 0;
  int64_t last_join_rows = 0;
  int joins = 0;
};

// Builds the node profiles by a pre-order walk of the logical plan.
struct ProfileWalk {
  const ConjunctiveQuery& query;
  const Database& db;
  double domain;
  const std::vector<NodeCalls>& calls;  // by node id
  // The node whose call exhausted the budget (-1 for a completed run) and
  // the last node the run reached.
  int32_t exhausted_node;
  int32_t last_reached;
  std::vector<NodeProfile>* out;

  // Appends the profiles of `node`'s subtree and returns its estimation
  // state. The estimate comes from the plan alone. The actual rows are
  // those the node's output call produced: its projection, else its last
  // fold step's join, else its scan (a call over an empty input records
  // no span and produces nothing); an unprojected node with one child
  // passes on its child's rows.
  Estimate Visit(const PlanNode* node, int depth) {
    const size_t id = out->size();
    out->push_back(NodeProfile{});
    const NodeCalls& call = calls[id];
    Estimate est;
    int64_t rows = 0;
    if (node->IsLeaf()) {
      const Atom& atom = query.atoms()[static_cast<size_t>(node->atom_index)];
      const Relation* stored = *db.Get(atom.relation);
      est.attrs = node->working;
      est.selectivity =
          static_cast<double>(stored->size()) /
          std::pow(domain, static_cast<double>(atom.args.size()));
      rows = call.scan_rows;
      (*out)[id].label = atom.ToString();
    } else {
      for (const auto& child : node->children) {
        Estimate child_est = Visit(child.get(), depth + 1);
        if (&child == &node->children.front()) {
          est = std::move(child_est);
          continue;
        }
        std::vector<AttrId> merged;
        std::set_union(est.attrs.begin(), est.attrs.end(),
                       child_est.attrs.begin(), child_est.attrs.end(),
                       std::back_inserter(merged));
        est.attrs = std::move(merged);
        est.selectivity *= child_est.selectivity;
      }
      const int fold_steps = static_cast<int>(node->children.size()) - 1;
      if (fold_steps == 0) {
        rows = (*out)[id + 1].actual_rows;
      } else {
        rows = call.joins == fold_steps ? call.last_join_rows : 0;
      }
      (*out)[id].label = "join";
    }
    if (node->Projects()) rows = call.project_rows;

    // A budget-exhausted run finished neither the node whose call
    // exhausted it nor that node's ancestors (the nodes whose subtree,
    // ids [id, out->size()), holds it), nor any node it never reached.
    const auto self = static_cast<int32_t>(id);
    const bool unfinished =
        exhausted_node >= 0 &&
        (self > last_reached ||
         (self <= exhausted_node &&
          exhausted_node < static_cast<int32_t>(out->size())));
    NodeProfile& profile = (*out)[id];
    profile.depth = depth;
    profile.working_arity = static_cast<int>(node->working.size());
    profile.projected_arity = static_cast<int>(node->projected.size());
    profile.estimated_rows = EstimateRows(est, node->projected.size(), domain);
    profile.actual_rows = unfinished ? -1 : rows;
    return est;
  }
};

}  // namespace

std::string ExplainResult::ToString() const {
  std::ostringstream out;
  for (const NodeProfile& p : nodes) {
    out << std::string(static_cast<size_t>(p.depth) * 2, ' ') << p.label
        << "  [arity " << p.working_arity << "->" << p.projected_arity
        << "]  est=" << p.estimated_rows << " actual=" << p.actual_rows;
    if (analyzed) {
      // Measured beside predicted: the span actuals, then the width
      // analyzer's static bounds when it proved some.
      out << "  | actual arity<=" << p.actual_max_arity
          << " bytes=" << p.actual_bytes << " ns=" << p.actual_ns;
      if (p.predicted_arity_bound >= 0) {
        out << "  predicted arity<=" << p.predicted_arity_bound
            << " rows<=" << p.predicted_rows_bound;
      }
      if (p.arity_violation) out << "  !! arity bound violated";
    }
    out << "\n";
  }
  out << "-- tuples_produced=" << stats.tuples_produced
      << " max_intermediate_rows=" << stats.max_intermediate_rows
      << " peak_bytes=" << stats.peak_bytes
      << " num_semijoins=" << stats.num_semijoins << "\n";
  if (!verifier_verdict.empty() || !semantic_verdict.empty()) {
    out << "-- verifier: "
        << (verifier_verdict.empty() ? "not run" : verifier_verdict);
    if (!semantic_verdict.empty()) {
      out << " | semantics: " << semantic_verdict << " (" << semantic_ns
          << " ns)";
    }
    out << "\n";
  }
  return out.str();
}

double ExplainResult::WorstEstimateRatio() const {
  double worst = 1.0;
  for (const NodeProfile& p : nodes) {
    if (p.actual_rows < 0 || p.estimated_rows <= 0) continue;  // truncated
    // Smooth empty results to one row so "predicted rows, got none" —
    // the signature failure of independence estimates on correlated
    // queries — registers as a finite but large ratio.
    const double actual = std::max(1.0, static_cast<double>(p.actual_rows));
    const double estimate = std::max(1.0, p.estimated_rows);
    worst = std::max(worst, std::max(actual / estimate, estimate / actual));
  }
  return worst;
}

ExplainResult ExplainPlan(const ConjunctiveQuery& query, const Plan& plan,
                          const Database& db, double domain_size,
                          Counter tuple_budget, bool analyze) {
  ExplainResult result;
  PPR_CHECK(domain_size >= 1.0);
  // The analysis is both the structural tier's input and the predicted
  // side of ANALYZE. Compilation runs every enabled verifier tier; a
  // rejected plan is reported, not executed.
  const StaticAnalysis analysis = AnalyzePlan(query, plan, db);
  VerifierReport report;
  Result<PhysicalPlan> compiled =
      CompileVerified(query, plan, db, analysis, &report);
  result.verifier_verdict = std::move(report.structural);
  result.semantic_verdict = std::move(report.semantic);
  result.semantic_ns = report.semantic_ns;
  if (!compiled.ok()) {
    result.status = compiled.status();
    return result;
  }

  // The engine's own run, traced into a private sink (never the PPR_TRACE
  // one: the profile must not depend on process-wide state).
  TraceSink sink(TraceSink::kUnbounded);
  const ExecutionResult run =
      compiled->ExecuteShared(nullptr, tuple_budget, &sink);
  result.status = run.status;
  result.stats = run.stats;
  const std::vector<TraceSpan> spans = sink.Snapshot();

  // Every kernel call of a plan run belongs to a plan node. A run that
  // exhausts the budget reached every node up to the highest id with a
  // call: its exhausting call read rows of the last subtree it ran (or is
  // that subtree's scan), so the subtree's rightmost leaf, its highest
  // id, made a scan call.
  std::vector<NodeCalls> calls(static_cast<size_t>(compiled->NumNodes()));
  int32_t last_reached = -1;
  for (const TraceSpan& span : spans) {
    NodeCalls& call = calls[static_cast<size_t>(span.node_id)];
    if (span.op == TraceOp::kJoin) {
      call.last_join_rows = span.rows_out;
      ++call.joins;
    } else if (span.op == TraceOp::kProject) {
      call.project_rows = span.rows_out;
    } else {
      call.scan_rows = span.rows_out;
    }
    last_reached = std::max(last_reached, span.node_id);
  }
  ProfileWalk walk{query, db, domain_size, calls, run.exhausted_node,
                   last_reached, &result.nodes};
  walk.Visit(plan.root(), 0);
  if (!analyze) return result;

  result.analyzed = true;
  for (const TraceSpan& span : spans) {
    NodeProfile& p = result.nodes[static_cast<size_t>(span.node_id)];
    p.actual_ns += span.duration_ns;
    p.actual_bytes = std::max(p.actual_bytes, span.bytes);
    p.actual_max_arity = std::max(p.actual_max_arity, span.arity_out);
  }

  // The predicted side: the width analyzer's per-node bounds. A measured
  // arity above a predicted bound means the static proof is wrong —
  // escalate like a verifier failure.
  if (analysis.per_node.size() == result.nodes.size()) {
    for (size_t i = 0; i < analysis.per_node.size(); ++i) {
      NodeProfile& p = result.nodes[i];
      p.predicted_arity_bound = analysis.per_node[i].arity_bound;
      p.predicted_rows_bound = analysis.per_node[i].rows_bound;
      if (p.predicted_arity_bound >= 0 &&
          p.actual_max_arity > p.predicted_arity_bound) {
        p.arity_violation = true;
        result.verifier_verdict =
            "arity bound violated at node " + std::to_string(i) +
            ": actual " + std::to_string(p.actual_max_arity) +
            " > predicted " + std::to_string(p.predicted_arity_bound);
        result.status = Status::Internal(result.verifier_verdict);
      }
    }
  }
  return result;
}

}  // namespace ppr
