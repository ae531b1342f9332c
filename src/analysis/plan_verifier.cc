#include "analysis/plan_verifier.h"

#include <string>

namespace ppr {
namespace {

// Attribute ids must be small dense non-negatives before any of the
// deeper checks index per-attribute arrays with them.
Status CheckAttrIds(const ConjunctiveQuery& query, const Plan& plan) {
  for (const Atom& atom : query.atoms()) {
    for (AttrId a : atom.args) {
      if (a < 0) {
        return Status::InvalidArgument("atom " + atom.ToString() +
                                       " uses a negative attribute id");
      }
    }
  }
  for (AttrId a : query.free_vars()) {
    if (a < 0) {
      return Status::InvalidArgument("negative free-variable id");
    }
    bool bound = false;
    for (const Atom& atom : query.atoms()) {
      if (atom.UsesAttr(a)) {
        bound = true;
        break;
      }
    }
    if (!bound) {
      return Status::InvalidArgument("free variable x" + std::to_string(a) +
                                     " is unbound (appears in no atom)");
    }
  }

  // Label ids: every attribute a node mentions must be one the query uses;
  // anything else is an unbound variable no scan can ever produce.
  std::vector<const PlanNode*> stack;
  if (!plan.empty()) stack.push_back(plan.root());
  while (!stack.empty()) {
    const PlanNode* node = stack.back();
    stack.pop_back();
    for (const auto* label : {&node->working, &node->projected}) {
      for (AttrId a : *label) {
        if (a < 0 || !query.UsesAttr(a)) {
          return Status::InvalidArgument(
              "plan label mentions unbound attribute x" + std::to_string(a));
        }
      }
    }
    for (const auto& child : node->children) stack.push_back(child.get());
  }
  return Status::Ok();
}

}  // namespace

Status VerifyLogicalPlan(const ConjunctiveQuery& query, const Plan& plan) {
  if (plan.empty()) {
    return Status::InvalidArgument("empty plan");
  }

  Status ids = CheckAttrIds(query, plan);
  if (!ids.ok()) return ids;

  // Core structural + safety invariants: atom coverage, label consistency,
  // root = target schema, and the projection-pushing legality condition
  // (no attribute dropped while atoms outside the subtree still need it).
  return ValidatePlan(query, plan);
}

}  // namespace ppr
