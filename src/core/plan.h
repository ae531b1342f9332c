#ifndef PPR_CORE_PLAN_H_
#define PPR_CORE_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "query/conjunctive_query.h"

namespace ppr {

/// One node of a join-expression tree (Section 5). Leaves reference query
/// atoms; an internal node joins its children's outputs and projects.
///
/// Labels follow the paper: the *working label* L_w is the schema produced
/// by joining the children (for a leaf, the atom's attributes); the
/// *projected label* L_p subset of L_w is the node's output schema —
/// attributes that are still needed outside the subtree. A node with
/// L_p == L_w performs no projection (the straightforward strategy);
/// strategies that push projections shrink L_p aggressively.
struct PlanNode {
  /// Index into the query's atom list for leaves; -1 for internal nodes.
  int atom_index = -1;
  std::vector<std::unique_ptr<PlanNode>> children;
  /// Working label L_w, sorted. Maintained as: leaf -> atom's distinct
  /// attributes; internal -> union of children's projected labels.
  std::vector<AttrId> working;
  /// Projected label L_p (output schema), sorted subset of `working`.
  std::vector<AttrId> projected;

  bool IsLeaf() const { return children.empty(); }
  /// True when the node performs a real projection (L_p strictly smaller).
  bool Projects() const { return projected.size() < working.size(); }
};

/// An executable join-expression tree for one query. Move-only (owns the
/// node tree).
class Plan {
 public:
  Plan() = default;
  explicit Plan(std::unique_ptr<PlanNode> root) : root_(std::move(root)) {}

  Plan(Plan&&) = default;
  Plan& operator=(Plan&&) = default;
  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;

  const PlanNode* root() const { return root_.get(); }
  PlanNode* mutable_root() { return root_.get(); }
  bool empty() const { return root_ == nullptr; }

  /// Join width of the plan: max |L_w| over nodes (Section 5). This is the
  /// maximal arity of any intermediate relation the executor materializes.
  int Width() const;

  /// Max |L_p| over nodes that actually project — the paper's "induced
  /// width" when the plan came from bucket elimination.
  int MaxProjectedArity() const;

  int NumNodes() const;
  int Depth() const;

  /// Indented tree rendering for debugging and examples.
  std::string ToString(const ConjunctiveQuery& query) const;

 private:
  std::unique_ptr<PlanNode> root_;
};

/// Creates a leaf for atom `atom_index` of `query`; both labels are the
/// atom's distinct attributes (sorted).
std::unique_ptr<PlanNode> MakeLeaf(const ConjunctiveQuery& query,
                                   int atom_index);

/// Creates an internal node over `children`; the working label is computed
/// as the union of the children's projected labels, and the projected label
/// is set to `projected` (must be a subset of the working label; checked).
std::unique_ptr<PlanNode> MakeJoin(
    std::vector<std::unique_ptr<PlanNode>> children,
    std::vector<AttrId> projected);

/// Verifies that `plan` is a well-formed, *semantics-preserving*
/// join-expression tree for `query`:
///  - every atom appears in exactly one leaf, and every leaf is an atom;
///  - label consistency (working = union of children's projected;
///    projected subset of working; all sorted);
///  - the root's projected label equals the target schema;
///  - safety: an attribute dropped at a node (in L_w \ L_p) must not occur
///    in any atom outside that node's subtree nor in the target schema —
///    this is exactly the legality condition for projection pushing.
/// A safety rejection names the node by its pre-order id (root 0, the id
/// EXPLAIN and trace spans use) and the dropped variable: "plan projects
/// out free variable xV at node N", or "unsafe projection: node N drops
/// xV, which atom A outside its subtree still uses".
Status ValidatePlan(const ConjunctiveQuery& query, const Plan& plan);

}  // namespace ppr

#endif  // PPR_CORE_PLAN_H_
