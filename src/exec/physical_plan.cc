#include "exec/physical_plan.h"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/timer.h"
#include "exec/verify_hook.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/batch_ops.h"
#include "relational/sort_merge.h"

namespace ppr {
namespace {

// The input of projecting node `node`'s last join that the projection
// keeps whole and whose rows are distinct (PhysicalNode::keyed). The
// check is by attribute, so a join key the projection keeps covers the
// partner column on the other input too. Allocates nothing: plans are
// compiled per request.
KeyedSide KeyedSideOf(const PhysicalNode& node) {
  if (node.joins.empty()) return KeyedSide::kNone;
  const Schema& kept = node.project.out_schema;
  const auto all_kept = [&kept](std::span<const AttrId> attrs) {
    return std::all_of(attrs.begin(), attrs.end(),
                       [&kept](AttrId a) { return kept.Contains(a); });
  };
  const JoinSpec& last = node.joins.back();
  const std::vector<AttrId>& joined = last.out_schema.attrs();
  const std::span<const AttrId> left(
      joined.data(), joined.size() - last.right_carry_cols.size());
  const bool left_distinct =
      std::all_of(node.children.begin(), node.children.end() - 1,
                  [](const auto& child) { return child->distinct; });
  if (left_distinct && all_kept(left)) return KeyedSide::kLeft;
  const PhysicalNode& right = *node.children.back();
  if (right.distinct && all_kept(right.output_schema.attrs())) {
    return KeyedSide::kRight;
  }
  return KeyedSide::kNone;
}

// Lowers one logical node. Schemas are derived exactly as the seed
// interpreter derived them at runtime: a leaf's schema is the atom's
// distinct attributes (then the optional projection), an internal node's
// schema is the left-to-right fold of its children's output schemas.
std::unique_ptr<PhysicalNode> CompileNode(const ConjunctiveQuery& query,
                                          const PlanNode* node,
                                          const Database& db,
                                          int32_t* next_node_id) {
  auto phys = std::make_unique<PhysicalNode>();
  phys->node_id = (*next_node_id)++;
  Schema working;
  if (node->IsLeaf()) {
    const Atom& atom = query.atoms()[static_cast<size_t>(node->atom_index)];
    Result<const Relation*> stored = db.Get(atom.relation);
    PPR_CHECK(stored.ok());  // Validate() runs before compilation
    phys->stored = *stored;
    phys->scan = PlanScan(phys->stored->arity(), atom.args);
    working = phys->scan.out_schema;
  } else {
    phys->children.reserve(node->children.size());
    for (const auto& child : node->children) {
      phys->children.push_back(CompileNode(query, child.get(), db,
                                           next_node_id));
    }
    working = phys->children.front()->output_schema;
    phys->joins.reserve(phys->children.size() - 1);
    for (size_t i = 1; i < phys->children.size(); ++i) {
      JoinSpec spec = PlanJoin(working, phys->children[i]->output_schema);
      working = spec.out_schema;
      phys->joins.push_back(std::move(spec));
    }
  }
  if (node->Projects()) {
    phys->has_project = true;
    phys->project = PlanProject(working, node->projected);
    phys->output_schema = phys->project.out_schema;
    phys->keyed = KeyedSideOf(*phys);
  } else {
    phys->output_schema = std::move(working);
  }
  phys->distinct =
      phys->has_project ||
      (!phys->IsLeaf() &&
       std::all_of(phys->children.begin(), phys->children.end(),
                   [](const auto& child) { return child->distinct; }));
  return phys;
}

// Bottom-up evaluation with the exact control flow of the seed
// interpreter (executor.cc's EvalNode), so budget-exhaustion skip
// behavior — and therefore every statistic — is preserved bit for bit.
// kSortMerge joins run the sort-merge kernel (the Section-2 ablation).
//
// A hash fold step is counted first and written only when its rows are
// read (CountedJoin, relational/batch_ops.h): the node's projection
// streams its last one (once per key group when the node keys the side
// that join probes), and the next fold step may count through it. A
// node whose output is an unprojected join leaves it unwritten in
// `*unwritten` when that is non-null — for the first child, whose output
// the parent's first fold step reads; the node's fold steps then work in
// that slot. Everything else reads the join written.
Relation Exec(const PhysicalNode& node, JoinAlgorithm join_algorithm,
              ExecContext& ctx, std::optional<CountedJoin>* unwritten) {
  if (node.IsLeaf()) {
    ctx.set_trace_node(node.node_id);
    Relation bound = ScanAtom(*node.stored, node.scan, ctx);
    if (node.has_project && !ctx.exhausted()) {
      return ProjectColumns(bound, node.project, ctx);
    }
    return bound;
  }

  const bool hash = join_algorithm == JoinAlgorithm::kHash;
  std::optional<CountedJoin> own;
  std::optional<CountedJoin>& join = unwritten != nullptr ? *unwritten : own;
  Relation acc =
      Exec(*node.children.front(), join_algorithm, ctx, hash ? &join : nullptr);
  for (size_t i = 1; i < node.children.size() && !ctx.exhausted(); ++i) {
    Relation next = Exec(*node.children[i], join_algorithm, ctx, nullptr);
    if (ctx.exhausted()) break;
    // Children retargeted the span attribution; point it back at this
    // node for the fold step's join (and the projection below).
    ctx.set_trace_node(node.node_id);
    const JoinSpec& spec = node.joins[i - 1];
    if (!hash) {
      acc = SortMergeJoin(acc, next, ctx);
    } else if (join) {
      *join = CountJoin(std::move(*join), std::move(next), spec, ctx);
    } else {
      join.emplace(std::move(acc), std::move(next), spec, ctx);
    }
  }
  if (ctx.exhausted()) {
    // The run's output is discarded; an unread counted join just closes.
    join.reset();
    return acc;
  }
  if (node.has_project) {
    ctx.set_trace_node(node.node_id);
    if (!join) return ProjectColumns(acc, node.project, ctx);
    Relation out =
        ProjectColumns(std::move(*join), node.project, ctx, node.keyed);
    join.reset();
    return out;
  }
  if (!join || unwritten != nullptr) return acc;
  return std::move(*join).Write();
}

int CountNodes(const PhysicalNode& node) {
  int n = 1;
  for (const auto& child : node.children) n += CountNodes(*child);
  return n;
}

}  // namespace

Result<PhysicalPlan> PhysicalPlan::Compile(const ConjunctiveQuery& query,
                                           const Plan& plan,
                                           const Database& db,
                                           JoinAlgorithm join_algorithm,
                                           VerifierReport* report) {
  if (plan.empty()) return Status::InvalidArgument("empty plan");
  Status valid = query.Validate(db);
  if (!valid.ok()) return valid;

  // Debug-mode static analysis (exec/verify_hook.h): prove the logical
  // plan well-formed before lowering and the compiled plan faithful to it
  // after, failing compilation instead of executing a corrupt plan.
  VerifierReport unreported;
  VerifierReport& said = report != nullptr ? *report : unreported;
  const auto verdict_of = [](const Status& verdict) {
    return verdict.ok() ? std::string("OK") : verdict.ToString();
  };
  const std::shared_ptr<const PlanVerifierHooks> hooks =
      GetPlanVerifierHooks();
  const bool verify = PlanVerificationEnabled();
  std::vector<PlanNodeBound> bounds;
  if (verify && hooks->logical) {
    Result<std::vector<PlanNodeBound>> verdict =
        hooks->logical(query, plan, db);
    said.structural = verdict_of(verdict.status());
    if (!verdict.ok()) return verdict.status();
    bounds = std::move(*verdict);
  }
  int32_t next_node_id = 0;
  PhysicalPlan compiled(CompileNode(query, plan.root(), db, &next_node_id),
                        join_algorithm);
  if (verify && hooks->compiled) {
    Status verdict = hooks->compiled(query, plan, db, compiled);
    said.structural = verdict_of(verdict);
    if (!verdict.ok()) return verdict;
  }
  // The logical tier's per-node width bounds, for a caller that shows them.
  said.node_bounds = std::move(bounds);
  // Third tier, independently gated: prove the plan (logical and
  // compiled) still *denotes the query* — the structural passes above
  // only prove the tree well-formed.
  if (SemanticVerificationEnabled() && hooks->semantic) {
    WallTimer timer;
    Status verdict = hooks->semantic(query, plan, db, compiled);
    said.semantic_ns = static_cast<int64_t>(timer.ElapsedSeconds() * 1e9);
    said.semantic = verdict_of(verdict);
    if (!verdict.ok()) return verdict;
  }
  return compiled;
}

ExecutionResult PhysicalPlan::Execute(Counter tuple_budget,
                                      TraceSink* trace) {
  TraceSink* sink = trace != nullptr ? trace : GlobalTraceSinkIfEnabled();
  MetricsRegistry* metrics = nullptr;
  if (sink != nullptr) {
    // Publishing into the global registry during the run is safe under
    // Execute's documented single-threaded contract; the capability only
    // covers obtaining the reference (serialized against drains).
    MutexLock lock(GlobalObsMutex());
    metrics = &GlobalMetrics();
  }
  ExecutionResult result =
      ExecuteShared(&arena_, tuple_budget, sink, metrics);
  if (sink != nullptr && sink == GlobalTraceSinkIfEnabled()) {
    MutexLock lock(GlobalObsMutex());
    (void)FlushTraceArtifacts();
  }
  return result;
}

ExecutionResult PhysicalPlan::ExecuteShared(ExecArena* arena,
                                            Counter tuple_budget,
                                            TraceSink* trace,
                                            MetricsRegistry* metrics) const {
  ExecutionResult result;
  if (arena != nullptr) arena->Reset();
  ExecContext ctx(tuple_budget, arena);
  const uint64_t span_mark = trace != nullptr ? trace->total_recorded() : 0;
  ctx.set_tracer(trace);
  WallTimer timer;
  Relation output = Exec(*root_, join_algorithm_, ctx, nullptr);
  result.seconds = timer.ElapsedSeconds();
  result.stats = ctx.stats();
  if (metrics != nullptr) {
    ctx.stats().PublishTo(metrics);
    if (trace != nullptr) {
      PublishSpanMetrics(trace->SnapshotSince(span_mark), metrics);
    }
  }
  if (ctx.exhausted()) {
    result.status = Status::ResourceExhausted("tuple budget exceeded");
    // Nothing retargets the span attribution once the budget latches.
    result.exhausted_node = ctx.trace_node();
  } else {
    result.status = Status::Ok();
    result.output = std::move(output);
  }
  return result;
}

int PhysicalPlan::NumNodes() const { return CountNodes(*root_); }

}  // namespace ppr
