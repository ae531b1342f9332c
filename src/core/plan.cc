#include "core/plan.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "common/strings.h"

namespace ppr {
namespace {

bool IsSortedUnique(const std::vector<AttrId>& v) {
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i - 1] >= v[i]) return false;
  }
  return true;
}

bool IsSubset(const std::vector<AttrId>& sub, const std::vector<AttrId>& sup) {
  return std::includes(sup.begin(), sup.end(), sub.begin(), sub.end());
}

std::vector<AttrId> SortedUnion(
    const std::vector<std::unique_ptr<PlanNode>>& children) {
  std::vector<AttrId> out;
  for (const auto& child : children) {
    out.insert(out.end(), child->projected.begin(), child->projected.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int WidthRec(const PlanNode* node) {
  int w = static_cast<int>(node->working.size());
  for (const auto& child : node->children) {
    w = std::max(w, WidthRec(child.get()));
  }
  return w;
}

int ProjArityRec(const PlanNode* node) {
  int w = node->Projects() ? static_cast<int>(node->projected.size()) : 0;
  for (const auto& child : node->children) {
    w = std::max(w, ProjArityRec(child.get()));
  }
  return w;
}

int CountRec(const PlanNode* node) {
  int c = 1;
  for (const auto& child : node->children) c += CountRec(child.get());
  return c;
}

int DepthRec(const PlanNode* node) {
  int d = 0;
  for (const auto& child : node->children) {
    d = std::max(d, DepthRec(child.get()));
  }
  return d + 1;
}

void PrintRec(const PlanNode* node, const ConjunctiveQuery& query, int indent,
              std::ostringstream& out) {
  out << std::string(static_cast<size_t>(indent) * 2, ' ');
  if (node->IsLeaf()) {
    out << query.atoms()[static_cast<size_t>(node->atom_index)].ToString();
  } else {
    out << "join";
  }
  out << "  L_w={"
      << StrJoinFormatted(node->working, ", ",
                          [](AttrId a) { return "x" + std::to_string(a); })
      << "} L_p={"
      << StrJoinFormatted(node->projected, ", ",
                          [](AttrId a) { return "x" + std::to_string(a); })
      << "}\n";
  for (const auto& child : node->children) {
    PrintRec(child.get(), query, indent + 1, out);
  }
}

// Collects atom indices of all leaves below `node`.
void CollectLeaves(const PlanNode* node, std::vector<int>* atoms) {
  if (node->IsLeaf()) {
    atoms->push_back(node->atom_index);
    return;
  }
  for (const auto& child : node->children) CollectLeaves(child.get(), atoms);
}

// Validates the subtree rooted at `node`, whose pre-order node id (the
// id EXPLAIN and trace spans use) is `*next_id`, and advances `*next_id`
// past the subtree.
Status ValidateRec(const ConjunctiveQuery& query, const PlanNode* node,
                   int* next_id) {
  const int id = (*next_id)++;
  if (!IsSortedUnique(node->working) || !IsSortedUnique(node->projected)) {
    return Status::InvalidArgument("labels must be sorted and duplicate-free");
  }
  if (!IsSubset(node->projected, node->working)) {
    return Status::InvalidArgument("projected label not within working label");
  }
  if (node->IsLeaf()) {
    if (node->atom_index < 0 || node->atom_index >= query.num_atoms()) {
      return Status::InvalidArgument("leaf atom index out of range");
    }
    std::vector<AttrId> attrs =
        query.atoms()[static_cast<size_t>(node->atom_index)].DistinctAttrs();
    std::sort(attrs.begin(), attrs.end());
    if (attrs != node->working) {
      return Status::InvalidArgument("leaf working label != atom attributes");
    }
  } else {
    if (node->atom_index != -1) {
      return Status::InvalidArgument("internal node carries an atom index");
    }
    if (node->children.empty()) {
      return Status::InvalidArgument("internal node without children");
    }
    if (SortedUnion(node->children) != node->working) {
      return Status::InvalidArgument(
          "working label != union of children's projected labels");
    }
  }

  // Safety of the projection: attributes dropped here must be dead —
  // no atom outside this subtree may use them, and they must not be free
  // variables.
  std::vector<int> inside_atoms;
  CollectLeaves(node, &inside_atoms);
  std::vector<uint8_t> inside(static_cast<size_t>(query.num_atoms()), 0);
  for (int ai : inside_atoms) inside[static_cast<size_t>(ai)] = 1;
  for (AttrId a : node->working) {
    if (std::binary_search(node->projected.begin(), node->projected.end(),
                           a)) {
      continue;
    }
    const std::string var = "x" + std::to_string(a);
    if (std::find(query.free_vars().begin(), query.free_vars().end(), a) !=
        query.free_vars().end()) {
      return Status::InvalidArgument("plan projects out free variable " +
                                     var + " at node " + std::to_string(id));
    }
    for (int ai = 0; ai < query.num_atoms(); ++ai) {
      if (!inside[static_cast<size_t>(ai)] &&
          query.atoms()[static_cast<size_t>(ai)].UsesAttr(a)) {
        return Status::InvalidArgument(
            "unsafe projection: node " + std::to_string(id) + " drops " +
            var + ", which atom " + std::to_string(ai) +
            " outside its subtree still uses");
      }
    }
  }

  for (const auto& child : node->children) {
    Status s = ValidateRec(query, child.get(), next_id);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace

int Plan::Width() const { return root_ ? WidthRec(root_.get()) : 0; }

int Plan::MaxProjectedArity() const {
  return root_ ? ProjArityRec(root_.get()) : 0;
}

int Plan::NumNodes() const { return root_ ? CountRec(root_.get()) : 0; }

int Plan::Depth() const { return root_ ? DepthRec(root_.get()) : 0; }

std::string Plan::ToString(const ConjunctiveQuery& query) const {
  if (!root_) return "(empty plan)";
  std::ostringstream out;
  PrintRec(root_.get(), query, 0, out);
  return out.str();
}

std::unique_ptr<PlanNode> MakeLeaf(const ConjunctiveQuery& query,
                                   int atom_index) {
  PPR_CHECK(atom_index >= 0 && atom_index < query.num_atoms());
  auto node = std::make_unique<PlanNode>();
  node->atom_index = atom_index;
  node->working =
      query.atoms()[static_cast<size_t>(atom_index)].DistinctAttrs();
  std::sort(node->working.begin(), node->working.end());
  node->projected = node->working;
  return node;
}

std::unique_ptr<PlanNode> MakeJoin(
    std::vector<std::unique_ptr<PlanNode>> children,
    std::vector<AttrId> projected) {
  PPR_CHECK(!children.empty());
  auto node = std::make_unique<PlanNode>();
  node->working = SortedUnion(children);
  std::sort(projected.begin(), projected.end());
  PPR_CHECK(IsSubset(projected, node->working));
  node->projected = std::move(projected);
  node->children = std::move(children);
  return node;
}

Status ValidatePlan(const ConjunctiveQuery& query, const Plan& plan) {
  if (plan.empty()) {
    return Status::InvalidArgument("empty plan");
  }

  // Atom coverage: each atom in exactly one leaf.
  std::vector<int> leaves;
  CollectLeaves(plan.root(), &leaves);
  std::vector<int> counts(static_cast<size_t>(query.num_atoms()), 0);
  for (int ai : leaves) {
    if (ai < 0 || ai >= query.num_atoms()) {
      return Status::InvalidArgument("leaf atom index out of range");
    }
    counts[static_cast<size_t>(ai)]++;
  }
  for (int c : counts) {
    if (c != 1) {
      return Status::InvalidArgument("each atom must appear in exactly one leaf");
    }
  }

  // Root output must be exactly the target schema.
  std::vector<AttrId> target = query.free_vars();
  std::sort(target.begin(), target.end());
  if (plan.root()->projected != target) {
    return Status::InvalidArgument("root projected label != target schema");
  }

  int next_id = 0;
  return ValidateRec(query, plan.root(), &next_id);
}

}  // namespace ppr
