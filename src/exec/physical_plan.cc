#include "exec/physical_plan.h"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/timer.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/batch_ops.h"
#include "relational/sort_merge.h"

namespace ppr {
namespace {

// Attributes of node `id`'s output (PhysicalPlan::output_attrs).
std::span<const AttrId> OutputAttrs(std::span<const PhysicalNode> nodes,
                                    int32_t id) {
  for (;;) {
    const PhysicalNode& node = nodes[static_cast<size_t>(id)];
    if (node.has_project) return node.project.out_attrs;
    if (!node.joins.empty()) return node.joins.back().out_attrs;
    if (node.IsLeaf()) return node.scan.out_attrs;
    id = node.children.front();
  }
}

// The input of projecting node `node`'s last join that the projection
// keeps whole and whose rows are distinct (PhysicalNode::keyed). The
// check is by attribute, so a join key the projection keeps covers the
// partner column on the other input too.
KeyedSide KeyedSideOf(std::span<const PhysicalNode> nodes,
                      const PhysicalNode& node) {
  if (node.joins.empty()) return KeyedSide::kNone;
  const std::span<const AttrId> kept = node.project.out_attrs;
  const auto all_kept = [kept](std::span<const AttrId> attrs) {
    return std::all_of(attrs.begin(), attrs.end(),
                       [kept](AttrId a) { return IndexOfAttr(kept, a) >= 0; });
  };
  const auto distinct = [nodes](int32_t child) {
    return nodes[static_cast<size_t>(child)].distinct;
  };
  const JoinSpec& last = node.joins.back();
  const std::span<const AttrId> left = last.out_attrs.first(
      last.out_attrs.size() - last.right_carry_cols.size());
  if (std::all_of(node.children.begin(), node.children.end() - 1, distinct) &&
      all_kept(left)) {
    return KeyedSide::kLeft;
  }
  const int32_t right = node.children.back();
  if (distinct(right) && all_kept(OutputAttrs(nodes, right))) {
    return KeyedSide::kRight;
  }
  return KeyedSide::kNone;
}

// What lowering a logical subtree adds to a plan: nodes, fold steps, and
// a bound on the ints its specs take. Every schema is a set of at most
// `attrs` query attributes, so a fold step takes at most 3 * attrs
// (PlanJoin appends |left| + 2 |right|).
struct LoweredSize {
  size_t nodes = 0;
  size_t joins = 0;
  size_t pool = 0;
};

void AddLoweredSize(const ConjunctiveQuery& query, const PlanNode* node,
                    size_t attrs, LoweredSize* size) {
  ++size->nodes;
  if (node->IsLeaf()) {
    const Atom& atom = query.atoms()[static_cast<size_t>(node->atom_index)];
    size->pool += 2 * atom.args.size();
  } else {
    const size_t steps = node->children.size() - 1;
    size->joins += steps;
    size->pool += node->children.size() + 3 * attrs * steps;
    for (const auto& child : node->children) {
      AddLoweredSize(query, child.get(), attrs, size);
    }
  }
  if (node->Projects()) size->pool += 2 * node->projected.size();
}

// Lowers logical nodes into a plan's arrays, which are reserved for the
// whole plan up front, so nothing a view points into moves while it runs.
struct Lowering {
  const ConjunctiveQuery& query;
  const Database& db;
  std::vector<PhysicalNode>& nodes;
  std::vector<JoinSpec>& joins;
  SpecPool& pool;

  // Lowers `node`'s subtree and returns its root's id. Schemas are
  // derived exactly as the seed interpreter derived them at runtime: a
  // leaf's schema is the atom's distinct attributes (then the optional
  // projection), an internal node's schema is the left-to-right fold of
  // its children's output schemas.
  int32_t Lower(const PlanNode* node) {
    const auto id = static_cast<int32_t>(nodes.size());
    PPR_CHECK(nodes.size() < nodes.capacity());
    PhysicalNode& phys = nodes.emplace_back();
    phys.node_id = id;
    std::span<const AttrId> working;
    if (node->IsLeaf()) {
      const Atom& atom = query.atoms()[static_cast<size_t>(node->atom_index)];
      Result<const Relation*> stored = db.Get(atom.relation);
      PPR_CHECK(stored.ok());  // Validate() runs before compilation
      phys.stored = *stored;
      phys.scan = PlanScan(phys.stored->arity(), atom.args, pool);
      working = phys.scan.out_attrs;
    } else {
      const size_t n = node->children.size();
      PPR_CHECK(pool.size() + n <= pool.capacity());
      const size_t at = pool.size();
      pool.resize(at + n);
      for (size_t i = 0; i < n; ++i) {
        pool[at + i] = Lower(node->children[i].get());
      }
      phys.children = {pool.data() + at, n};
      working = OutputAttrs(nodes, phys.children.front());
      PPR_CHECK(joins.size() + n - 1 <= joins.capacity());
      const size_t first = joins.size();
      for (size_t i = 1; i < n; ++i) {
        joins.push_back(
            PlanJoin(working, OutputAttrs(nodes, phys.children[i]), pool));
        working = joins.back().out_attrs;
      }
      phys.joins = {joins.data() + first, n - 1};
    }
    if (node->Projects()) {
      phys.has_project = true;
      phys.project = PlanProject(working, node->projected, pool);
      phys.keyed = KeyedSideOf(nodes, phys);
    }
    phys.distinct =
        phys.has_project ||
        (!phys.IsLeaf() &&
         std::all_of(phys.children.begin(), phys.children.end(),
                     [this](int32_t child) {
                       return nodes[static_cast<size_t>(child)].distinct;
                     }));
    return id;
  }
};

// Points `view` at the same ints of `to` as it viewed in `from`.
template <typename T>
void Rebase(std::span<const T>& view, const SpecPool& from,
            const SpecPool& to) {
  if (view.data() == nullptr) return;
  view = {to.data() + (view.data() - from.data()), view.size()};
}

// Bottom-up evaluation with the exact control flow of the seed
// interpreter (executor.cc's EvalNode), so budget-exhaustion skip
// behavior — and therefore every statistic — is preserved bit for bit.
// kSortMerge joins run the sort-merge kernel (the Section-2 ablation).
//
// A hash fold step is counted first and written only when its rows are
// read (CountedJoin, relational/batch_ops.h): each fold step counts
// through the chain of unwritten steps before it (CountJoin), which
// writes a step first only when that is cheaper than enumerating it
// again, and the node's projection streams the chain's top (once per
// key group when the node keys the side the top probes). A node whose
// output is an unprojected join leaves its chain unwritten in
// `*unwritten` when that is non-null — for the first child, whose output
// the parent's first fold step reads; the node's fold steps then extend
// that chain. Everything else reads the join written.
Relation Exec(std::span<const PhysicalNode> nodes, int32_t id,
              JoinAlgorithm join_algorithm, ExecContext& ctx,
              std::optional<CountedJoin>* unwritten) {
  const PhysicalNode& node = nodes[static_cast<size_t>(id)];
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
  Relation acc = Exec(nodes, node.children.front(), join_algorithm, ctx,
                      hash ? &join : nullptr);
  for (size_t i = 1; i < node.children.size() && !ctx.exhausted(); ++i) {
    Relation next = Exec(nodes, node.children[i], join_algorithm, ctx, nullptr);
    if (ctx.exhausted()) break;
    // Children retargeted the span attribution; point it back at this
    // node for the fold step's join (and the projection below).
    ctx.set_trace_node(node.node_id);
    const JoinSpec& spec = node.joins[i - 1];
    if (!hash) {
      acc = SortMergeJoin(acc, next, ctx);
    } else if (join) {
      CountJoin(*join, std::move(next), spec, ctx);
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

}  // namespace

Result<PhysicalPlan> PhysicalPlan::Compile(const ConjunctiveQuery& query,
                                           const Plan& plan,
                                           const Database& db,
                                           JoinAlgorithm join_algorithm) {
  if (plan.empty()) return Status::InvalidArgument("empty plan");
  Status valid = query.Validate(db);
  if (!valid.ok()) return valid;

  // Lower into arrays sized for the whole plan, so nothing moves under
  // the views the lowering takes, then keep the pool at its exact size:
  // cached plans are what a resident daemon spends its memory on.
  LoweredSize size;
  AddLoweredSize(query, plan.root(), query.AllAttrs().size(), &size);
  std::vector<PhysicalNode> nodes;
  std::vector<JoinSpec> joins;
  SpecPool bound;
  nodes.reserve(size.nodes);
  joins.reserve(size.joins);
  bound.reserve(size.pool);
  Lowering{query, db, nodes, joins, bound}.Lower(plan.root());
  SpecPool pool(bound.begin(), bound.end());
  for (PhysicalNode& node : nodes) {
    Rebase(node.scan.out_attrs, bound, pool);
    Rebase(node.scan.source_cols, bound, pool);
    Rebase(node.scan.equal_checks, bound, pool);
    Rebase(node.children, bound, pool);
    Rebase(node.project.out_attrs, bound, pool);
    Rebase(node.project.cols, bound, pool);
  }
  for (JoinSpec& spec : joins) {
    Rebase(spec.out_attrs, bound, pool);
    Rebase(spec.left_key_cols, bound, pool);
    Rebase(spec.right_key_cols, bound, pool);
    Rebase(spec.right_carry_cols, bound, pool);
  }
  return PhysicalPlan(std::move(nodes), std::move(joins), std::move(pool),
                      join_algorithm);
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
  Relation output = Exec(nodes_, 0, join_algorithm_, ctx, nullptr);
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

std::span<const AttrId> PhysicalPlan::output_attrs(int32_t id) const {
  return OutputAttrs(nodes_, id);
}

std::span<JoinSpec> PhysicalPlan::mutable_joins(int32_t id) {
  const std::span<const JoinSpec> joins = node(id).joins;
  if (joins.empty()) return {};
  return {joins_.data() + (joins.data() - joins_.data()), joins.size()};
}

}  // namespace ppr
