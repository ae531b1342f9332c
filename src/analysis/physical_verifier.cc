#include "analysis/physical_verifier.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "analysis/schedule.h"
#include "analysis/width_analyzer.h"

namespace ppr {
namespace {

bool SameAttrSet(std::span<const AttrId> a, std::span<const AttrId> b) {
  std::vector<AttrId> x(a.begin(), a.end());
  std::vector<AttrId> y(b.begin(), b.end());
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  return x == y;
}

Status VerifyScan(const Atom& atom, const Relation& stored,
                  const ScanSpec& spec) {
  const std::string where = "scan of " + atom.ToString() + ": ";
  const int stored_arity = stored.arity();
  if (static_cast<int>(atom.args.size()) != stored_arity) {
    return Status::InvalidArgument(where + "atom arity != stored arity");
  }
  const std::vector<AttrId> distinct = atom.DistinctAttrs();
  if (!std::equal(spec.out_attrs.begin(), spec.out_attrs.end(),
                  distinct.begin(), distinct.end())) {
    return Status::InvalidArgument(
        where + "output schema is not the atom's distinct attributes");
  }
  if (spec.source_cols.size() != spec.out_attrs.size()) {
    return Status::InvalidArgument(where +
                                   "source-column map length != out arity");
  }
  for (size_t d = 0; d < spec.out_attrs.size(); ++d) {
    const int c = spec.source_cols[d];
    if (c < 0 || c >= stored_arity) {
      return Status::InvalidArgument(where + "source column " +
                                     std::to_string(c) + " out of bounds");
    }
    const AttrId attr = spec.out_attrs[d];
    if (atom.args[static_cast<size_t>(c)] != attr) {
      return Status::InvalidArgument(
          where + "source column does not bind its output attribute");
    }
    // Must be the first occurrence, so repeated attributes collapse to it.
    for (int e = 0; e < c; ++e) {
      if (atom.args[static_cast<size_t>(e)] == attr) {
        return Status::InvalidArgument(
            where + "source column is not the attribute's first occurrence");
      }
    }
  }
  if (spec.equal_checks.size() % 2 != 0 ||
      spec.source_cols.size() + spec.equal_checks.size() / 2 !=
          static_cast<size_t>(stored_arity)) {
    return Status::InvalidArgument(
        where + "source columns + equality checks != stored arity");
  }
  for (size_t k = 0; k < spec.equal_checks.size(); k += 2) {
    const int col = spec.equal_checks[k];
    const int first = spec.equal_checks[k + 1];
    if (col < 0 || col >= stored_arity || first < 0 || first >= stored_arity) {
      return Status::InvalidArgument(where +
                                     "equality-check column out of bounds");
    }
    if (col == first ||
        atom.args[static_cast<size_t>(col)] !=
            atom.args[static_cast<size_t>(first)]) {
      return Status::InvalidArgument(
          where + "equality check does not compare a repeated attribute "
                  "against its first occurrence");
    }
  }
  return Status::Ok();
}

Status VerifyJoin(std::span<const AttrId> left, std::span<const AttrId> right,
                  const JoinSpec& spec, int step) {
  const std::string where = "join step " + std::to_string(step) + ": ";
  if (spec.left_key_cols.size() != spec.right_key_cols.size()) {
    return Status::InvalidArgument(where +
                                   "build/probe key maps differ in length");
  }
  const int left_arity = static_cast<int>(left.size());
  const int right_arity = static_cast<int>(right.size());
  std::vector<AttrId> key_attrs;
  for (size_t j = 0; j < spec.left_key_cols.size(); ++j) {
    const int lk = spec.left_key_cols[j];
    const int rk = spec.right_key_cols[j];
    if (lk < 0 || lk >= left_arity || rk < 0 || rk >= right_arity) {
      return Status::InvalidArgument(where + "key column out of bounds");
    }
    if (left[static_cast<size_t>(lk)] != right[static_cast<size_t>(rk)]) {
      return Status::InvalidArgument(
          where + "key columns misaligned: position " + std::to_string(j) +
          " compares different attributes");
    }
    key_attrs.push_back(left[static_cast<size_t>(lk)]);
  }
  std::sort(key_attrs.begin(), key_attrs.end());
  if (std::adjacent_find(key_attrs.begin(), key_attrs.end()) !=
      key_attrs.end()) {
    return Status::InvalidArgument(where + "duplicate join key attribute");
  }
  std::vector<AttrId> common;
  for (AttrId a : left) {
    if (IndexOfAttr(right, a) >= 0) common.push_back(a);
  }
  std::sort(common.begin(), common.end());
  if (key_attrs != common) {
    return Status::InvalidArgument(
        where + "join keys are not exactly the common attributes");
  }

  if (spec.out_attrs.size() != left.size() + spec.right_carry_cols.size()) {
    return Status::InvalidArgument(
        where + "output arity != left arity + carried columns");
  }
  if (!std::equal(left.begin(), left.end(), spec.out_attrs.begin())) {
    return Status::InvalidArgument(
        where + "output schema does not start with the left schema");
  }
  for (size_t j = 0; j < spec.right_carry_cols.size(); ++j) {
    const int rc = spec.right_carry_cols[j];
    if (rc < 0 || rc >= right_arity) {
      return Status::InvalidArgument(where + "carry column out of bounds");
    }
    const AttrId attr = right[static_cast<size_t>(rc)];
    if (IndexOfAttr(left, attr) >= 0) {
      return Status::InvalidArgument(
          where + "carried column duplicates a left attribute");
    }
    if (spec.out_attrs[left.size() + j] != attr) {
      return Status::InvalidArgument(
          where + "copy map inconsistent with the output schema");
    }
  }
  std::vector<AttrId> expected(left.begin(), left.end());
  for (AttrId a : right) {
    if (IndexOfAttr(left, a) < 0) expected.push_back(a);
  }
  if (!SameAttrSet(spec.out_attrs, expected)) {
    return Status::InvalidArgument(where +
                                   "output schema drops or invents an "
                                   "attribute of the joined inputs");
  }
  return Status::Ok();
}

Status VerifyProject(std::span<const AttrId> input, const ProjectSpec& spec,
                     const std::vector<AttrId>& projected_label) {
  const std::string where = "projection: ";
  if (spec.cols.size() != spec.out_attrs.size()) {
    return Status::InvalidArgument(where + "mask length != output arity");
  }
  for (size_t j = 0; j < spec.out_attrs.size(); ++j) {
    const int c = spec.cols[j];
    if (c < 0 || c >= static_cast<int>(input.size())) {
      return Status::InvalidArgument(where + "mask column " +
                                     std::to_string(c) + " out of bounds");
    }
    if (input[static_cast<size_t>(c)] != spec.out_attrs[j]) {
      return Status::InvalidArgument(
          where + "mask inconsistent with the output schema");
    }
  }
  if (!SameAttrSet(spec.out_attrs, projected_label)) {
    return Status::InvalidArgument(
        where + "output schema != the node's projected label");
  }
  return Status::Ok();
}

// Re-derives the projection-pushing flags of a compiled node from the
// logical labels: a node's output is distinct iff it projects or joins
// distinct children (scans never count), and a projecting node's last
// join has a keyed input when that input is distinct and the projected
// label holds all of its attributes. A wrongly set flag returns
// duplicate rows; a wrongly cleared one only costs time, but both mean
// the compiler and this derivation disagree.
Status VerifyProjectionFlags(const PlanNode* logical, const PhysicalNode& phys,
                             const std::vector<bool>& child_distinct,
                             bool* distinct) {
  const bool all_children_distinct =
      std::find(child_distinct.begin(), child_distinct.end(), false) ==
      child_distinct.end();
  *distinct = logical->Projects() ||
              (!logical->IsLeaf() && all_children_distinct);
  if (phys.distinct != *distinct) {
    return Status::InvalidArgument(
        phys.distinct ? "node marked distinct, but its labels allow "
                        "duplicate rows"
                      : "node's distinct output is not marked distinct");
  }
  KeyedSide keyed = KeyedSide::kNone;
  if (logical->Projects() && logical->children.size() >= 2) {
    const std::vector<AttrId>& kept = logical->projected;
    const auto all_projected = [&kept](const PlanNode& child) {
      return std::all_of(child.projected.begin(), child.projected.end(),
                         [&kept](AttrId a) {
                           return std::find(kept.begin(), kept.end(), a) !=
                                  kept.end();
                         });
    };
    bool left = std::find(child_distinct.begin(), child_distinct.end() - 1,
                          false) == child_distinct.end() - 1;
    for (size_t i = 0; left && i + 1 < logical->children.size(); ++i) {
      left = all_projected(*logical->children[i]);
    }
    if (left) {
      keyed = KeyedSide::kLeft;
    } else if (child_distinct.back() &&
               all_projected(*logical->children.back())) {
      keyed = KeyedSide::kRight;
    }
  }
  if (phys.keyed != keyed) {
    const auto name = [](KeyedSide side) {
      return side == KeyedSide::kLeft    ? "left"
             : side == KeyedSide::kRight ? "right"
                                         : "none";
    };
    return Status::InvalidArgument(
        std::string("projection's keyed join input is ") + name(phys.keyed) +
        ", but the labels imply " + name(keyed));
  }
  return Status::Ok();
}

// Verifies node `id` of `physical` against `logical`, and sets `*next`
// to the pre-order id after its subtree.
Status VerifyNode(const ConjunctiveQuery& query, const PlanNode* logical,
                  const PhysicalPlan& physical, int32_t id,
                  const Database& db, bool* distinct, int32_t* next) {
  if (id < 0 || id >= physical.NumNodes() ||
      physical.node(id).node_id != id) {
    return Status::InvalidArgument("node " + std::to_string(id) +
                                   " is not at its pre-order index");
  }
  const PhysicalNode& phys = physical.node(id);
  *next = id + 1;
  std::span<const AttrId> working;
  std::vector<bool> child_distinct;
  if (logical->IsLeaf()) {
    if (!phys.IsLeaf() || phys.stored == nullptr) {
      return Status::InvalidArgument(
          "physical leaf shape differs from the logical plan");
    }
    if (logical->atom_index < 0 || logical->atom_index >= query.num_atoms()) {
      return Status::InvalidArgument("leaf atom index out of range");
    }
    const Atom& atom =
        query.atoms()[static_cast<size_t>(logical->atom_index)];
    Result<const Relation*> stored = db.Get(atom.relation);
    if (!stored.ok()) return stored.status();
    if (*stored != phys.stored) {
      return Status::InvalidArgument(
          "leaf bound to a relation other than catalog entry '" +
          atom.relation + "'");
    }
    Status scan = VerifyScan(atom, *phys.stored, phys.scan);
    if (!scan.ok()) return scan;
    working = phys.scan.out_attrs;
  } else {
    if (phys.IsLeaf() ||
        phys.children.size() != logical->children.size()) {
      return Status::InvalidArgument(
          "physical tree shape differs from the logical plan");
    }
    if (phys.joins.size() != phys.children.size() - 1) {
      return Status::InvalidArgument(
          "internal node needs children - 1 join specs, has " +
          std::to_string(phys.joins.size()));
    }
    child_distinct.resize(phys.children.size());
    for (size_t i = 0; i < phys.children.size(); ++i) {
      if (phys.children[i] != *next) {
        return Status::InvalidArgument(
            "child " + std::to_string(i) + " of node " + std::to_string(id) +
            " is not the next subtree in pre-order");
      }
      bool child_is_distinct = false;
      Status child =
          VerifyNode(query, logical->children[i].get(), physical, *next, db,
                     &child_is_distinct, next);
      if (!child.ok()) return child;
      child_distinct[i] = child_is_distinct;
    }
    working = physical.output_attrs(phys.children.front());
    for (size_t i = 1; i < phys.children.size(); ++i) {
      const JoinSpec& spec = phys.joins[i - 1];
      Status join =
          VerifyJoin(working, physical.output_attrs(phys.children[i]), spec,
                     static_cast<int>(i));
      if (!join.ok()) return join;
      working = spec.out_attrs;
    }
  }

  // The fold result must realize the node's working label.
  if (!SameAttrSet(working, logical->working)) {
    return Status::InvalidArgument(
        "compiled working schema != the node's working label");
  }

  if (phys.has_project != logical->Projects()) {
    return Status::InvalidArgument(
        phys.has_project ? "projection present on a non-projecting node"
                         : "node's projection was dropped by compilation");
  }
  if (phys.has_project) {
    Status project = VerifyProject(working, phys.project, logical->projected);
    if (!project.ok()) return project;
  }
  return VerifyProjectionFlags(logical, phys, child_distinct, distinct);
}

}  // namespace

Status VerifyPhysicalPlan(const ConjunctiveQuery& query, const Plan& plan,
                          const Database& db, const PhysicalPlan& physical) {
  if (plan.empty()) {
    return Status::InvalidArgument("empty logical plan");
  }
  bool distinct = false;
  int32_t next = 0;
  Status verdict =
      VerifyNode(query, plan.root(), physical, 0, db, &distinct, &next);
  if (verdict.ok() && next != physical.NumNodes()) {
    return Status::InvalidArgument(
        "compiled plan has " + std::to_string(physical.NumNodes()) +
        " nodes, the logical plan " + std::to_string(next));
  }
  return verdict;
}

Status VerifyKernelSpans(const ConjunctiveQuery& query, const Plan& plan,
                         const Database& db,
                         const std::vector<TraceSpan>& spans,
                         const ExecStats& stats, Counter tuple_budget) {
  // The operators each node may run, with their arities, and the node's
  // static bounds, from the width analyzer's schedule of the plan.
  const StaticAnalysis analysis = AnalyzePlan(query, plan, db);
  if (!analysis.status.ok()) return analysis.status;

  int64_t span_rows = 0;
  for (size_t s = 0; s < spans.size(); ++s) {
    const TraceSpan& call = spans[s];
    const std::string where = "kernel call at span " + std::to_string(s) +
                              " (" + TraceOpName(call.op) + ", node " +
                              std::to_string(call.node_id) + "): ";
    if (call.rows_out < 0) {
      return Status::InvalidArgument(where + "negative row count");
    }
    if (call.node_id < 0 ||
        static_cast<size_t>(call.node_id) >= analysis.per_node.size()) {
      return Status::InvalidArgument(where + "node id out of range");
    }
    // The node's scheduled operators: a leaf runs one scan, an internal
    // node one join per fold step, and a projecting node a projection.
    bool leaf = false;
    bool projects = false;
    bool join_fits = false;
    int scan_arity = 0;
    int project_arity = 0;
    for (const OpBound& op : analysis.per_op) {
      if (op.node_id != call.node_id) continue;
      switch (op.kind) {
        case OpKind::kScan:
          leaf = true;
          scan_arity = op.arity;
          break;
        case OpKind::kJoin:
          join_fits = join_fits || op.arity == call.arity_out;
          break;
        case OpKind::kProject:
          projects = true;
          project_arity = op.arity;
          break;
      }
    }

    // Batch schema: the reported arity must be one the schedule gives
    // this node for this operator kind.
    const int arity = call.arity_out;
    switch (call.op) {
      case TraceOp::kScan:
        if (!leaf) {
          return Status::InvalidArgument(where + "scan on a join node");
        }
        if (arity != scan_arity) {
          return Status::InvalidArgument(
              where + "scan arity " + std::to_string(arity) +
              " != atom's distinct-attribute count " +
              std::to_string(scan_arity));
        }
        break;
      case TraceOp::kJoin:
        if (leaf) {
          return Status::InvalidArgument(where + "join on a leaf node");
        }
        if (!join_fits) {
          return Status::InvalidArgument(
              where + "join arity " + std::to_string(arity) +
              " matches no fold step of the node's child labels");
        }
        break;
      case TraceOp::kProject:
        if (!projects) {
          return Status::InvalidArgument(
              where + "projection on a non-projecting node");
        }
        if (arity != project_arity) {
          return Status::InvalidArgument(
              where + "projection arity " + std::to_string(arity) +
              " != projected-label arity " + std::to_string(project_arity));
        }
        break;
      case TraceOp::kSemiJoin:
        return Status::InvalidArgument(where +
                                       "semijoin in a plan run, which has none");
    }

    // Static row bound: an output above the analyzer's per-node bound
    // means the proof, or the kernel's row counts, are wrong. (The arity
    // is one of the node's scheduled arities, so it is within the node's
    // arity bound, their maximum.)
    const double rows_bound =
        analysis.per_node[static_cast<size_t>(call.node_id)].rows_bound;
    if (std::isfinite(rows_bound) &&
        static_cast<double>(call.rows_out) > rows_bound) {
      return Status::Internal(
          where + "output rows " + std::to_string(call.rows_out) +
          " exceed static bound " + std::to_string(rows_bound));
    }
    span_rows += call.rows_out;
  }

  // Every row a kernel produces, written or read unwritten by the next
  // kernel, is charged against the budget, so the span rows add up to
  // tuples_produced. A budget-exhausted run's last call charges up to its
  // headroom but keeps nothing (relational/batch_ops.h), so there the
  // spans may only fall short.
  const Counter produced = stats.tuples_produced;
  const bool completed = produced <= tuple_budget;
  if (completed ? span_rows != produced : span_rows > produced) {
    return Status::InvalidArgument(
        "kernel spans report " + std::to_string(span_rows) + " rows but the " +
        (completed ? "completed" : "budget-exhausted") + " run charged " +
        std::to_string(produced));
  }
  return Status::Ok();
}

}  // namespace ppr
