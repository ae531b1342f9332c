#include "exec/explain.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "exec/verify_hook.h"
#include "obs/trace.h"
#include "relational/exec_context.h"
#include "relational/ops.h"

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

// Recursive profiled evaluation; appends this node's profile (pre-order)
// and returns its output relation plus estimation state.
Relation EvalProfiled(const ConjunctiveQuery& query, const PlanNode* node,
                      const Database& db, double domain, int depth,
                      ExecContext& ctx, std::vector<NodeProfile>* out,
                      Estimate* est) {
  const size_t my_index = out->size();
  out->push_back(NodeProfile{});

  Relation result;
  // Attribute this node's operator spans to its pre-order index (the
  // recursion below retargets it for the children, so it is restored
  // before every kernel call on this node's behalf).
  ctx.set_trace_node(static_cast<int32_t>(my_index));
  if (node->IsLeaf()) {
    const Atom& atom = query.atoms()[static_cast<size_t>(node->atom_index)];
    const Relation* stored = *db.Get(atom.relation);
    est->attrs = node->working;
    est->selectivity =
        static_cast<double>(stored->size()) /
        std::pow(domain, static_cast<double>(atom.args.size()));
    result = BindAtom(*stored, atom.args, ctx);
    if (node->Projects() && !ctx.exhausted()) {
      result = Project(result, node->projected, ctx);
    }
    (*out)[my_index].label = atom.ToString();
  } else {
    Estimate acc_est;
    Relation acc;
    bool first = true;
    for (const auto& child : node->children) {
      if (ctx.exhausted()) break;
      Estimate child_est;
      Relation child_rel = EvalProfiled(query, child.get(), db, domain,
                                        depth + 1, ctx, out, &child_est);
      if (first) {
        acc = std::move(child_rel);
        acc_est = std::move(child_est);
        first = false;
      } else {
        if (ctx.exhausted()) break;
        ctx.set_trace_node(static_cast<int32_t>(my_index));
        acc = NaturalJoin(acc, child_rel, ctx);
        std::vector<AttrId> merged;
        std::set_union(acc_est.attrs.begin(), acc_est.attrs.end(),
                       child_est.attrs.begin(), child_est.attrs.end(),
                       std::back_inserter(merged));
        acc_est.attrs = std::move(merged);
        acc_est.selectivity *= child_est.selectivity;
      }
    }
    if (node->Projects() && !ctx.exhausted()) {
      ctx.set_trace_node(static_cast<int32_t>(my_index));
      acc = Project(acc, node->projected, ctx);
    }
    result = std::move(acc);
    *est = std::move(acc_est);
    (*out)[my_index].label = "join";
  }

  NodeProfile& profile = (*out)[my_index];
  profile.depth = depth;
  profile.working_arity = static_cast<int>(node->working.size());
  profile.projected_arity = static_cast<int>(node->projected.size());
  profile.estimated_rows = EstimateRows(*est, node->projected.size(), domain);
  profile.actual_rows = ctx.exhausted() ? -1 : result.size();
  return result;
}

}  // namespace

std::string ExplainResult::ToString() const {
  std::ostringstream out;
  for (const NodeProfile& p : nodes) {
    out << std::string(static_cast<size_t>(p.depth) * 2, ' ') << p.label
        << "  [arity " << p.working_arity << "->" << p.projected_arity
        << "]  est=" << p.estimated_rows << " actual=" << p.actual_rows;
    if (analyzed) {
      // Measured beside predicted: the span actuals, then the width
      // analyzer's static bounds when a verifier supplied them.
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
  if (plan.empty()) {
    result.status = Status::InvalidArgument("empty plan");
    return result;
  }
  result.status = query.Validate(db);
  if (!result.status.ok()) return result;

  // Surface the static-analysis verdict when verification is enabled; a
  // rejected plan is reported, not executed.
  const std::shared_ptr<const PlanVerifierHooks> hooks =
      GetPlanVerifierHooks();
  const bool verify = PlanVerificationEnabled();
  if (verify && hooks->logical) {
    Status verdict = hooks->logical(query, plan, db);
    result.verifier_verdict = verdict.ok() ? "OK" : verdict.ToString();
    if (!verdict.ok()) {
      result.status = verdict;
      return result;
    }
  }
  // Semantic tier (independently gated): certify the plan denotes the
  // query, and surface what the proof cost beside its verdict.
  if (SemanticVerificationEnabled() && hooks->semantic) {
    const auto start = std::chrono::steady_clock::now();
    Status verdict = hooks->semantic(query, plan, db, nullptr);
    result.semantic_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    result.semantic_verdict = verdict.ok() ? "OK" : verdict.ToString();
    if (!verdict.ok()) {
      result.status = verdict;
      return result;
    }
  }

  ExecContext ctx(tuple_budget);
  // ANALYZE profiles through a private sink (never the PPR_TRACE one:
  // the annotations must not depend on process-wide state). Sized so one
  // run can never wrap: each node executes at most its child-count many
  // joins plus a scan and a projection, and the plan is a tree, so 4
  // spans per node over-provisions.
  TraceSink sink(static_cast<size_t>(
      std::max(4 * plan.NumNodes(), 1024)));
  if (analyze) ctx.set_tracer(&sink);
  Estimate est;
  EvalProfiled(query, plan.root(), db, domain_size, 0, ctx, &result.nodes,
               &est);
  result.stats = ctx.stats();
  if (ctx.exhausted()) {
    result.status = Status::ResourceExhausted("tuple budget exceeded");
  }
  if (!analyze) return result;

  result.analyzed = true;
  for (const TraceSpan& span : sink.Snapshot()) {
    if (span.node_id < 0 ||
        static_cast<size_t>(span.node_id) >= result.nodes.size()) {
      continue;
    }
    NodeProfile& p = result.nodes[static_cast<size_t>(span.node_id)];
    p.actual_ns += span.duration_ns;
    p.actual_bytes = std::max(p.actual_bytes, span.bytes);
    p.actual_max_arity = std::max(p.actual_max_arity, span.arity_out);
  }

  // The predicted side: the width analyzer's per-node bounds, via the
  // verifier registration. A measured arity above a predicted bound
  // means the static proof is wrong — escalate like a verifier failure.
  if (verify && hooks->node_bounds) {
    std::vector<PlanNodeBound> bounds;
    Status bound_status = hooks->node_bounds(query, plan, db, &bounds);
    if (bound_status.ok() && bounds.size() == result.nodes.size()) {
      for (size_t i = 0; i < bounds.size(); ++i) {
        NodeProfile& p = result.nodes[i];
        p.predicted_arity_bound = bounds[i].arity_bound;
        p.predicted_rows_bound = bounds[i].rows_bound;
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
  }
  return result;
}

}  // namespace ppr
