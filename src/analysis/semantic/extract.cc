#include "analysis/semantic/extract.h"

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace ppr {
namespace {

std::vector<AttrId> SortedUnique(std::vector<AttrId> attrs) {
  std::sort(attrs.begin(), attrs.end());
  attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
  return attrs;
}

/// Shared bottom-up state: the atom list grows as leaves are visited;
/// dropping a variable renames the subtree's occurrences to a fresh id,
/// recorded in `splits` so genuinely split variables (original attribute
/// still used elsewhere at the end) can be counted.
struct Extraction {
  std::vector<Atom> atoms;
  AttrId next_fresh = 0;
  std::vector<std::pair<AttrId, AttrId>> splits;  // (fresh, original)
  Status error = Status::Ok();

  void Fail(std::string msg) {
    if (error.ok()) error = Status::InvalidArgument(std::move(msg));
  }

  /// Renames occurrences of each attribute in `dropped` within
  /// atoms[begin..end) to a fresh variable — the occurrences above the
  /// projection can no longer unify with them.
  void DropAttrs(const std::vector<AttrId>& dropped, size_t begin) {
    for (AttrId var : dropped) {
      const AttrId fresh = next_fresh++;
      bool replaced = false;
      for (size_t i = begin; i < atoms.size(); ++i) {
        for (AttrId& arg : atoms[i].args) {
          if (arg == var) {
            arg = fresh;
            replaced = true;
          }
        }
      }
      if (replaced) splits.emplace_back(fresh, var);
    }
  }

  Result<ExtractedQuery> Finish(const std::vector<AttrId>& head) {
    if (!error.ok()) return error;
    std::vector<AttrId> sorted_head = head;
    std::sort(sorted_head.begin(), sorted_head.end());
    if (std::adjacent_find(sorted_head.begin(), sorted_head.end()) !=
        sorted_head.end()) {
      return Status::InvalidArgument(
          "extraction failed: duplicate attribute in the plan's head");
    }
    ExtractedQuery extracted;
    extracted.query = ConjunctiveQuery(atoms, head);
    // A variable was *split* (premature projection) when occurrences of
    // its original attribute survive outside the renamed subtree — either
    // it still occurs in a final atom or the head, or it was renamed at
    // two or more distinct drop points (each branch dropped its copy, so
    // no original occurrence remains, but the unification is gone all the
    // same). Safe plans rename each dropped attribute exactly once, with
    // nothing left over.
    std::map<AttrId, int> rename_events;
    for (const auto& [fresh, original] : splits) {
      (void)fresh;
      rename_events[original]++;
    }
    for (const auto& [original, events] : rename_events) {
      const bool still_used =
          std::any_of(atoms.begin(), atoms.end(),
                      [o = original](const Atom& atom) {
                        return atom.UsesAttr(o);
                      }) ||
          std::find(head.begin(), head.end(), original) != head.end();
      if (events >= 2 || still_used) extracted.split_vars++;
    }
    return extracted;
  }
};

// ---------------------------------------------------------------------
// Logical plans.

AttrId MaxAttrOfPlan(const PlanNode* node) {
  AttrId max_attr = -1;
  for (AttrId a : node->working) max_attr = std::max(max_attr, a);
  for (AttrId a : node->projected) max_attr = std::max(max_attr, a);
  for (const auto& child : node->children) {
    max_attr = std::max(max_attr, MaxAttrOfPlan(child.get()));
  }
  return max_attr;
}

/// Returns the node's visible (output) attributes, sorted.
std::vector<AttrId> WalkLogical(const ConjunctiveQuery& query,
                                const PlanNode* node, Extraction* ex) {
  if (!ex->error.ok()) return {};
  const size_t begin = ex->atoms.size();

  std::vector<AttrId> working;
  if (node->IsLeaf()) {
    if (node->atom_index < 0 || node->atom_index >= query.num_atoms()) {
      ex->Fail("extraction failed: leaf references atom " +
               std::to_string(node->atom_index) + " of a query with " +
               std::to_string(query.num_atoms()) + " atoms");
      return {};
    }
    const Atom& atom = query.atoms()[static_cast<size_t>(node->atom_index)];
    ex->atoms.push_back(atom);
    working = SortedUnique(atom.args);
  } else {
    for (const auto& child : node->children) {
      std::vector<AttrId> visible = WalkLogical(query, child.get(), ex);
      if (!ex->error.ok()) return {};
      working.insert(working.end(), visible.begin(), visible.end());
    }
    working = SortedUnique(std::move(working));
  }

  std::vector<AttrId> projected = SortedUnique(node->projected);
  for (AttrId a : projected) {
    if (!std::binary_search(working.begin(), working.end(), a)) {
      ex->Fail("extraction failed: node projects x" + std::to_string(a) +
               " which no input supplies");
      return {};
    }
  }
  std::vector<AttrId> dropped;
  std::set_difference(working.begin(), working.end(), projected.begin(),
                      projected.end(), std::back_inserter(dropped));
  ex->DropAttrs(dropped, begin);
  return projected;
}

// ---------------------------------------------------------------------
// Compiled plans.

AttrId MaxAttrOfPhysical(const PhysicalPlan& physical) {
  AttrId max_attr = -1;
  for (int32_t id = 0; id < physical.NumNodes(); ++id) {
    for (AttrId a : physical.output_attrs(id)) {
      max_attr = std::max(max_attr, a);
    }
    for (AttrId a : physical.node(id).scan.out_attrs) {
      max_attr = std::max(max_attr, a);
    }
  }
  return max_attr;
}

/// Reconstructs the atom a compiled leaf scans from its ScanSpec: the
/// stored-column bindings give each argument, and the equality checks
/// restore repeated attributes.
Result<Atom> ReconstructAtom(const PhysicalNode& node,
                             const std::string& relation_name) {
  const ScanSpec& scan = node.scan;
  const int arity = scan.source_cols.size() > scan.out_attrs.size()
                        ? -1
                        : (node.stored != nullptr ? node.stored->arity() : -1);
  if (arity < 0 || scan.source_cols.size() != scan.out_attrs.size() ||
      scan.equal_checks.size() % 2 != 0) {
    return Status::InvalidArgument(
        "extraction failed: leaf scan of '" + relation_name +
        "' has inconsistent column bindings");
  }
  Atom atom;
  atom.relation = relation_name;
  atom.args.assign(static_cast<size_t>(arity), kNoAttr);
  for (size_t p = 0; p < scan.source_cols.size(); ++p) {
    const int col = scan.source_cols[p];
    if (col < 0 || col >= arity) {
      return Status::InvalidArgument(
          "extraction failed: leaf scan of '" + relation_name +
          "' binds out-of-range stored column " + std::to_string(col));
    }
    atom.args[static_cast<size_t>(col)] = scan.out_attrs[p];
  }
  for (size_t k = 0; k < scan.equal_checks.size(); k += 2) {
    const int repeat_col = scan.equal_checks[k];
    const int first_col = scan.equal_checks[k + 1];
    if (repeat_col < 0 || repeat_col >= arity || first_col < 0 ||
        first_col >= arity ||
        atom.args[static_cast<size_t>(first_col)] == kNoAttr) {
      return Status::InvalidArgument(
          "extraction failed: leaf scan of '" + relation_name +
          "' has an unresolvable equality check");
    }
    atom.args[static_cast<size_t>(repeat_col)] =
        atom.args[static_cast<size_t>(first_col)];
  }
  for (size_t c = 0; c < atom.args.size(); ++c) {
    if (atom.args[c] == kNoAttr) {
      return Status::InvalidArgument(
          "extraction failed: stored column " + std::to_string(c) + " of '" +
          relation_name + "' is bound to no attribute");
    }
  }
  return atom;
}

std::vector<AttrId> WalkPhysical(
    const std::map<const Relation*, std::string>& catalog,
    const PhysicalPlan& physical, int32_t id, Extraction* ex) {
  if (!ex->error.ok()) return {};
  const size_t begin = ex->atoms.size();
  const PhysicalNode& node = physical.node(id);

  std::vector<AttrId> working;
  if (node.IsLeaf()) {
    auto it = catalog.find(node.stored);
    if (node.stored == nullptr || it == catalog.end()) {
      ex->Fail(
          "extraction failed: compiled leaf scans a relation not in the "
          "catalog");
      return {};
    }
    Result<Atom> atom = ReconstructAtom(node, it->second);
    if (!atom.ok()) {
      ex->Fail(atom.status().message());
      return {};
    }
    ex->atoms.push_back(*atom);
    working = SortedUnique(atom->args);
  } else {
    for (int32_t child : node.children) {
      std::vector<AttrId> visible = WalkPhysical(catalog, physical, child, ex);
      if (!ex->error.ok()) return {};
      working.insert(working.end(), visible.begin(), visible.end());
    }
    working = SortedUnique(std::move(working));
  }

  const std::span<const AttrId> output = physical.output_attrs(id);
  std::vector<AttrId> visible =
      SortedUnique(std::vector<AttrId>(output.begin(), output.end()));
  for (AttrId a : visible) {
    if (!std::binary_search(working.begin(), working.end(), a)) {
      ex->Fail("extraction failed: compiled node outputs x" +
               std::to_string(a) + " which no input supplies");
      return {};
    }
  }
  std::vector<AttrId> dropped;
  std::set_difference(working.begin(), working.end(), visible.begin(),
                      visible.end(), std::back_inserter(dropped));
  ex->DropAttrs(dropped, begin);
  return visible;
}

}  // namespace

Result<ExtractedQuery> ExtractQuery(const ConjunctiveQuery& query,
                                    const Plan& plan) {
  if (plan.empty()) return Status::InvalidArgument("empty plan");
  Extraction ex;
  AttrId max_attr = MaxAttrOfPlan(plan.root());
  for (const Atom& atom : query.atoms()) {
    for (AttrId a : atom.args) max_attr = std::max(max_attr, a);
  }
  for (AttrId a : query.free_vars()) max_attr = std::max(max_attr, a);
  ex.next_fresh = max_attr + 1;

  // The head is what the root leaves visible — *not* query.free_vars():
  // certification must observe a root that produces the wrong schema.
  std::vector<AttrId> head = WalkLogical(query, plan.root(), &ex);
  return ex.Finish(head);
}

Result<ExtractedQuery> ExtractCompiledQuery(const Database& db,
                                            const PhysicalPlan& physical) {
  std::map<const Relation*, std::string> catalog;
  for (const std::string& name : db.Names()) {
    Result<const Relation*> rel = db.Get(name);
    if (rel.ok()) catalog.emplace(*rel, name);
  }
  Extraction ex;
  ex.next_fresh = MaxAttrOfPhysical(physical) + 1;
  std::vector<AttrId> head = WalkPhysical(catalog, physical, 0, &ex);
  return ex.Finish(head);
}

}  // namespace ppr
