#include "analysis/width_analyzer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "core/theory.h"
#include "graph/tree_decomposition.h"
#include "graph/treewidth.h"

namespace ppr {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Database statistics the size bounds are computed from. All offline
// (analysis never runs during Execute), so exact scans are affordable.
struct DbStats {
  /// Row count per atom (with duplicates — the sound multiset bound).
  std::vector<double> atom_rows;
  /// Whether each atom's stored relation is duplicate-free (set
  /// semantics; join outputs of duplicate-free inputs stay
  /// duplicate-free, which is what licenses the cover and domain caps
  /// on joins).
  std::vector<bool> atom_dup_free;
  /// Distinct attributes bound by each atom, sorted.
  std::vector<std::vector<AttrId>> atom_attrs;
  /// Per-attribute active-domain bound: min over atom occurrences of the
  /// distinct values in the bound stored column; kInf when unbound.
  std::vector<double> attr_domain;
};

bool IsDuplicateFree(const Relation& rel) {
  if (rel.arity() == 0) return true;
  std::set<std::vector<Value>> seen;
  for (int64_t i = 0; i < rel.size(); ++i) {
    const auto row = rel.row(i);
    if (!seen.emplace(row.begin(), row.end()).second) return false;
  }
  return true;
}

int64_t DistinctColumnValues(const Relation& rel, int col) {
  std::unordered_set<Value> values;
  for (int64_t i = 0; i < rel.size(); ++i) values.insert(rel.at(i, col));
  return static_cast<int64_t>(values.size());
}

// The scans of one stored relation the bounds read, made once however
// many atoms name it.
struct StoredStats {
  const Relation* rel = nullptr;
  bool dup_free = true;
  std::vector<double> column_distinct;
};

Result<DbStats> CollectDbStats(const ConjunctiveQuery& query,
                               const Database& db) {
  DbStats stats;
  AttrId max_attr = -1;
  for (const Atom& atom : query.atoms()) {
    for (AttrId a : atom.args) max_attr = std::max(max_attr, a);
  }
  stats.attr_domain.assign(static_cast<size_t>(max_attr + 1), kInf);

  // A query names few distinct relations (a coloring query names one), so
  // a linear search beats hashing the pointer.
  std::vector<StoredStats> scanned;
  for (const Atom& atom : query.atoms()) {
    Result<const Relation*> stored = db.Get(atom.relation);
    if (!stored.ok()) return stored.status();
    const Relation* rel = *stored;
    if (rel->arity() != static_cast<int>(atom.args.size())) {
      return Status::InvalidArgument("wrong arity for relation " +
                                     atom.relation);
    }
    auto it = std::find_if(
        scanned.begin(), scanned.end(),
        [rel](const StoredStats& s) { return s.rel == rel; });
    if (it == scanned.end()) {
      StoredStats fresh{rel, IsDuplicateFree(*rel), {}};
      for (int c = 0; c < rel->arity(); ++c) {
        fresh.column_distinct.push_back(
            static_cast<double>(DistinctColumnValues(*rel, c)));
      }
      it = scanned.insert(scanned.end(), std::move(fresh));
    }
    stats.atom_rows.push_back(static_cast<double>(rel->size()));
    stats.atom_dup_free.push_back(it->dup_free);
    std::vector<AttrId> attrs = atom.DistinctAttrs();
    std::sort(attrs.begin(), attrs.end());
    stats.atom_attrs.push_back(std::move(attrs));
    for (size_t c = 0; c < atom.args.size(); ++c) {
      auto& dom = stats.attr_domain[static_cast<size_t>(atom.args[c])];
      dom = std::min(dom, it->column_distinct[c]);
    }
  }
  return stats;
}

// Integral relaxation of the AGM fractional edge cover, searched
// greedily: any subset S of the atoms below an operator whose attribute
// sets cover the output attributes U bounds the output by prod |R_i|
// (atoms outside S can only filter). Greedy pick: most newly covered
// attributes, ties to the smaller relation. Returns kInf when the
// candidate atoms cannot cover U.
double GreedyCoverBound(const std::vector<AttrId>& out_attrs,
                        const std::vector<int>& atoms, const DbStats& db) {
  std::set<AttrId> remaining(out_attrs.begin(), out_attrs.end());
  double bound = 1.0;
  while (!remaining.empty()) {
    int best = -1;
    int best_covered = 0;
    for (int ai : atoms) {
      int covered = 0;
      for (AttrId a : db.atom_attrs[static_cast<size_t>(ai)]) {
        covered += remaining.count(a) > 0 ? 1 : 0;
      }
      if (covered > best_covered ||
          (covered == best_covered && covered > 0 &&
           db.atom_rows[static_cast<size_t>(ai)] <
               db.atom_rows[static_cast<size_t>(best)])) {
        best = ai;
        best_covered = covered;
      }
    }
    if (best < 0) return kInf;
    bound *= db.atom_rows[static_cast<size_t>(best)];
    for (AttrId a : db.atom_attrs[static_cast<size_t>(best)]) {
      remaining.erase(a);
    }
  }
  return bound;
}

// Product of per-attribute active-domain bounds — the DISTINCT cap.
double DomainCap(const std::vector<AttrId>& attrs, const DbStats& db) {
  double cap = 1.0;
  for (AttrId a : attrs) {
    if (a < 0 || static_cast<size_t>(a) >= db.attr_domain.size()) return kInf;
    cap *= db.attr_domain[static_cast<size_t>(a)];
  }
  return cap;
}

}  // namespace

std::string StaticAnalysis::ToString() const {
  std::ostringstream out;
  if (!status.ok()) {
    out << "analysis failed: " << status.ToString();
    return out.str();
  }
  out << "max_intermediate_arity=" << max_intermediate_arity << "\n"
      << "max_intermediate_rows<=" << max_intermediate_rows_bound
      << " tuples_produced<=" << tuples_produced_bound << "\n";
  return out.str();
}

StaticAnalysis AnalyzePlan(const ConjunctiveQuery& query, const Plan& plan,
                           const Database& db) {
  StaticAnalysis analysis;
  if (plan.empty()) {
    analysis.status = Status::InvalidArgument("empty plan");
    return analysis;
  }
  const OpSchedule schedule = BuildSchedule(query, plan);
  analysis.status = ValidateSchedule(query, schedule);
  if (!analysis.status.ok()) return analysis;

  Result<DbStats> stats = CollectDbStats(query, db);
  if (!stats.ok()) {
    analysis.status = stats.status();
    return analysis;
  }
  const DbStats& dbs = *stats;

  analysis.per_node.assign(static_cast<size_t>(schedule.num_nodes),
                           PlanNodeBound{});
  // Per-op state: output row bound, duplicate-freeness, atoms below.
  std::vector<double> bounds(static_cast<size_t>(schedule.num_ops()), 0.0);
  std::vector<bool> dup_free(static_cast<size_t>(schedule.num_ops()), false);
  std::vector<std::vector<int>> atoms_below(
      static_cast<size_t>(schedule.num_ops()));

  for (int i = 0; i < schedule.num_ops(); ++i) {
    const ScheduledOp& op = schedule.ops[static_cast<size_t>(i)];
    const size_t si = static_cast<size_t>(i);
    double bound = kInf;
    switch (op.kind) {
      case OpKind::kScan: {
        const size_t ai = static_cast<size_t>(op.atom_index);
        atoms_below[si] = {op.atom_index};
        dup_free[si] = dbs.atom_dup_free[ai];
        bound = dbs.atom_rows[ai];
        if (dup_free[si]) {
          bound = std::min(bound, DomainCap(op.out_attrs, dbs));
        }
        break;
      }
      case OpKind::kJoin: {
        const size_t li = static_cast<size_t>(op.left_input);
        const size_t ri = static_cast<size_t>(op.right_input);
        atoms_below[si] = atoms_below[li];
        atoms_below[si].insert(atoms_below[si].end(), atoms_below[ri].begin(),
                               atoms_below[ri].end());
        dup_free[si] = dup_free[li] && dup_free[ri];
        bound = bounds[li] * bounds[ri];
        if (dup_free[si]) {
          // Set semantics below: the output is contained in the
          // projection of the join of the atoms below it.
          bound = std::min(
              bound, GreedyCoverBound(op.out_attrs, atoms_below[si], dbs));
          bound = std::min(bound, DomainCap(op.out_attrs, dbs));
        }
        break;
      }
      case OpKind::kProject: {
        const size_t li = static_cast<size_t>(op.left_input);
        atoms_below[si] = atoms_below[li];
        dup_free[si] = true;  // ProjectColumns always deduplicates
        // A projection's support set is contained in the set-semantics
        // result regardless of input multiplicities, so the cover bound
        // and the domain cap apply unconditionally.
        bound = std::min(bounds[li],
                         GreedyCoverBound(op.out_attrs, atoms_below[si], dbs));
        bound = std::min(bound, DomainCap(op.out_attrs, dbs));
        break;
      }
    }
    bounds[si] = bound;
    analysis.per_op.push_back(OpBound{op.kind, op.node_id, op.arity(), bound});
    PlanNodeBound& node = analysis.per_node[static_cast<size_t>(op.node_id)];
    node.arity_bound = std::max(node.arity_bound, op.arity());
    node.rows_bound = std::max(node.rows_bound, bound);
    analysis.max_intermediate_arity =
        std::max(analysis.max_intermediate_arity, op.arity());
    analysis.max_intermediate_rows_bound =
        std::max(analysis.max_intermediate_rows_bound, bound);
    analysis.tuples_produced_bound += bound;
  }
  return analysis;
}

Status CrossCheckWidth(const ConjunctiveQuery& query, const Plan& plan,
                       const StaticAnalysis& analysis) {
  if (!analysis.status.ok()) return analysis.status;
  const int max_arity = analysis.max_intermediate_arity;
  // The schedule's widest operator output is exactly the plan's join
  // width: fold-step schemas are unions of projected labels, monotone in
  // the fold, so the per-node maximum is the working label.
  if (max_arity != plan.Width()) {
    return Status::Internal(
        "static max arity " + std::to_string(max_arity) +
        " != plan join width " + std::to_string(plan.Width()));
  }

  // Algorithm 1 (Theorem 1, forward direction): the working labels of a
  // valid plan form a tree decomposition of the join graph of width
  // join width - 1.
  const Graph join_graph = BuildJoinGraph(query);
  TreeDecomposition td = PlanToTreeDecomposition(query, plan);
  // The join graph numbers vertices densely up to the largest attribute
  // id, so ids the query never mentions (e.g. isolated vertices of a
  // generated instance) become isolated join-graph vertices that no plan
  // label can cover. Pad singleton bags for them: they are edgeless, so
  // the decomposition stays valid and its width is unchanged.
  if (!td.bags.empty()) {
    std::vector<bool> covered(static_cast<size_t>(join_graph.num_vertices()),
                              false);
    for (const std::vector<int>& bag : td.bags) {
      for (int v : bag) covered[static_cast<size_t>(v)] = true;
    }
    for (int v = 0; v < join_graph.num_vertices(); ++v) {
      if (!covered[static_cast<size_t>(v)] && !query.UsesAttr(v)) {
        td.edges.emplace_back(0, td.num_bags());
        td.bags.push_back({v});
      }
    }
  }
  Status td_valid = ValidateTreeDecomposition(join_graph, td);
  if (!td_valid.ok()) {
    return Status::Internal(
        "plan labels do not form a tree decomposition of the join graph: " +
        td_valid.message());
  }
  if (td.width() != max_arity - 1) {
    return Status::Internal("decomposition width " +
                            std::to_string(td.width()) +
                            " != static max arity - 1");
  }
  const int lb = MmdLowerBound(join_graph);
  if (max_arity - 1 < lb) {
    return Status::Internal(
        "plan width beats the treewidth lower bound (" +
        std::to_string(max_arity - 1) + " < " + std::to_string(lb) +
        ") — Theorem 1 violated, the width analysis is wrong");
  }
  return Status::Ok();
}

}  // namespace ppr
