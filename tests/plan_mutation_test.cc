// Randomized mutation fuzzing for the full static-analysis layer
// (analysis/verifier.h): take valid plans produced by all five paper
// strategies over generated 3-COLOR and 3-SAT workloads, corrupt them
// with one of a catalog of targeted mutators — logical-tree corruptions
// checked by VerifyLogicalPlan, compiled-tree corruptions checked by
// VerifyPhysicalPlan — and assert the verifier rejects 100% of mutants
// while still accepting every pristine plan. Each mutation class must
// fire often enough that a silently-dead check would be noticed.
//
// The semantic classes at the bottom go one tier up
// (analysis/semantic/certify.h): they corrupt the *query* the plan was
// built for (dropped atom, swapped head variable, merged variables) —
// producing plans that pass every build-time structural check for the
// mutated query, the cache-mixup a reuse-time structural pass never
// ran against — or seed a premature projection with consistent labels,
// and assert the Chandra–Merlin certifier rejects the mutants or,
// when it accepts one, that the plan provably still computes the
// original query's answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/physical_verifier.h"
#include "analysis/plan_verifier.h"
#include "analysis/width_analyzer.h"
#include "analysis/semantic/certify.h"
#include "benchlib/harness.h"
#include "common/rng.h"
#include "encode/kcolor.h"
#include "encode/sat.h"
#include "exec/executor.h"
#include "exec/physical_plan.h"
#include "graph/generators.h"
#include "minimize/minimize.h"
#include "test_util.h"

namespace ppr {
namespace {

std::unique_ptr<PlanNode> CloneNode(const PlanNode& node) {
  auto copy = std::make_unique<PlanNode>();
  copy->atom_index = node.atom_index;
  copy->working = node.working;
  copy->projected = node.projected;
  for (const auto& child : node.children) {
    copy->children.push_back(CloneNode(*child));
  }
  return copy;
}

Plan ClonePlan(const Plan& plan) { return Plan(CloneNode(*plan.root())); }

void CollectNodes(PlanNode* node, std::vector<PlanNode*>* out) {
  out->push_back(node);
  for (auto& child : node->children) CollectNodes(child.get(), out);
}

// ---------------------------------------------------------------------
// Logical mutators. Each attempts one corruption on a random node and
// returns whether it applied (some classes need a node with the right
// shape — e.g. an internal node or a label of size >= 2).

using LogicalMutator = bool (*)(const ConjunctiveQuery&, Plan&, Rng&);

bool AddUnboundWorkingAttr(const ConjunctiveQuery& query, Plan& plan,
                           Rng& rng) {
  std::vector<PlanNode*> nodes;
  CollectNodes(plan.mutable_root(), &nodes);
  PlanNode* node = nodes[rng.NextBounded(nodes.size())];
  // An attribute id past everything the query binds: no scan produces it.
  AttrId unbound = 0;
  for (const Atom& atom : query.atoms()) {
    for (AttrId a : atom.args) unbound = std::max(unbound, a + 1);
  }
  node->working.push_back(unbound);
  return true;
}

bool DropProjectedAttr(const ConjunctiveQuery& query, Plan& plan, Rng& rng) {
  (void)query;
  std::vector<PlanNode*> nodes;
  CollectNodes(plan.mutable_root(), &nodes);
  std::vector<PlanNode*> candidates;
  for (PlanNode* node : nodes) {
    if (!node->projected.empty()) candidates.push_back(node);
  }
  if (candidates.empty()) return false;
  PlanNode* node = candidates[rng.NextBounded(candidates.size())];
  // Dropping a projected attribute is always caught: at the root it
  // breaks the target schema; elsewhere it either desyncs the parent's
  // working label or (when a sibling still supplies the attribute) makes
  // the projection premature — the attribute still occurs outside the
  // subtree.
  node->projected.erase(node->projected.begin() +
                        static_cast<long>(rng.NextBounded(
                            node->projected.size())));
  return true;
}

bool RebindLeafAtom(const ConjunctiveQuery& query, Plan& plan, Rng& rng) {
  if (query.num_atoms() < 2) return false;
  std::vector<PlanNode*> nodes;
  CollectNodes(plan.mutable_root(), &nodes);
  std::vector<PlanNode*> leaves;
  for (PlanNode* node : nodes) {
    if (node->IsLeaf()) leaves.push_back(node);
  }
  PlanNode* leaf = leaves[rng.NextBounded(leaves.size())];
  // Point the leaf at a different atom: its labels no longer match the
  // atom's attributes, and the displaced atom loses its only leaf.
  const int other = static_cast<int>(
      rng.NextBounded(static_cast<uint64_t>(query.num_atoms())));
  if (other == leaf->atom_index) {
    leaf->atom_index = (other + 1) % query.num_atoms();
  } else {
    leaf->atom_index = other;
  }
  return true;
}

bool OutOfRangeLeafAtom(const ConjunctiveQuery& query, Plan& plan, Rng& rng) {
  std::vector<PlanNode*> nodes;
  CollectNodes(plan.mutable_root(), &nodes);
  std::vector<PlanNode*> leaves;
  for (PlanNode* node : nodes) {
    if (node->IsLeaf()) leaves.push_back(node);
  }
  leaves[rng.NextBounded(leaves.size())]->atom_index =
      query.num_atoms() + static_cast<int>(rng.NextBounded(4));
  return true;
}

bool UnsortWorkingLabel(const ConjunctiveQuery& query, Plan& plan, Rng& rng) {
  (void)query;
  std::vector<PlanNode*> nodes;
  CollectNodes(plan.mutable_root(), &nodes);
  std::vector<PlanNode*> candidates;
  for (PlanNode* node : nodes) {
    if (node->working.size() >= 2) candidates.push_back(node);
  }
  if (candidates.empty()) return false;
  PlanNode* node = candidates[rng.NextBounded(candidates.size())];
  std::swap(node->working.front(), node->working.back());
  return true;
}

bool DuplicateProjectedAttr(const ConjunctiveQuery& query, Plan& plan,
                            Rng& rng) {
  (void)query;
  std::vector<PlanNode*> nodes;
  CollectNodes(plan.mutable_root(), &nodes);
  std::vector<PlanNode*> candidates;
  for (PlanNode* node : nodes) {
    if (!node->projected.empty()) candidates.push_back(node);
  }
  if (candidates.empty()) return false;
  PlanNode* node = candidates[rng.NextBounded(candidates.size())];
  node->projected.push_back(node->projected.back());
  return true;
}

bool AtomIndexOnInternalNode(const ConjunctiveQuery& query, Plan& plan,
                             Rng& rng) {
  (void)query;
  std::vector<PlanNode*> nodes;
  CollectNodes(plan.mutable_root(), &nodes);
  std::vector<PlanNode*> internals;
  for (PlanNode* node : nodes) {
    if (!node->IsLeaf()) internals.push_back(node);
  }
  if (internals.empty()) return false;
  internals[rng.NextBounded(internals.size())]->atom_index = 0;
  return true;
}

struct NamedLogicalMutator {
  const char* name;
  LogicalMutator apply;
};

constexpr NamedLogicalMutator kLogicalMutators[] = {
    {"unbound-working-attr", AddUnboundWorkingAttr},
    {"drop-projected-attr", DropProjectedAttr},
    {"rebind-leaf-atom", RebindLeafAtom},
    {"out-of-range-leaf-atom", OutOfRangeLeafAtom},
    {"unsort-working-label", UnsortWorkingLabel},
    {"duplicate-projected-attr", DuplicateProjectedAttr},
    {"atom-index-on-internal-node", AtomIndexOnInternalNode},
};

// ---------------------------------------------------------------------
// Physical mutators: corrupt one compiled node's precomputed column maps.
// A spec views its lists in the plan's pool, so a mutator points the view
// at an edited copy, which `edits` keeps alive while the verifier runs.

using Edits = std::deque<std::vector<int>>;
using PhysicalMutator = bool (*)(PhysicalPlan&, Rng&, Edits&);

// A copy of `view` for a mutator to edit and point the view at.
std::vector<int>& EditedCopy(std::span<const int> view, Edits& edits) {
  return edits.emplace_back(view.begin(), view.end());
}

// Ids of the nodes `pick` accepts.
template <typename Pick>
std::vector<int32_t> NodesWhere(const PhysicalPlan& plan, Pick pick) {
  std::vector<int32_t> ids;
  for (int32_t id = 0; id < plan.NumNodes(); ++id) {
    if (pick(plan.node(id))) ids.push_back(id);
  }
  return ids;
}

// One fold step's spec of a random node with fold steps, or null.
JoinSpec* RandomJoin(PhysicalPlan& plan, Rng& rng) {
  const std::vector<int32_t> ids =
      NodesWhere(plan, [](const PhysicalNode& n) { return !n.joins.empty(); });
  if (ids.empty()) return nullptr;
  const std::span<JoinSpec> joins =
      plan.mutable_joins(ids[rng.NextBounded(ids.size())]);
  return &joins[rng.NextBounded(joins.size())];
}

std::vector<int32_t> ProjectNodes(const PhysicalPlan& plan) {
  return NodesWhere(plan, [](const PhysicalNode& n) { return n.has_project; });
}

bool KeyColOutOfBounds(PhysicalPlan& plan, Rng& rng, Edits& edits) {
  JoinSpec* spec = RandomJoin(plan, rng);
  if (spec == nullptr || spec->left_key_cols.empty()) return false;
  const size_t k = rng.NextBounded(spec->left_key_cols.size());
  std::span<const int>& keys =
      rng.NextBernoulli(0.5) ? spec->left_key_cols : spec->right_key_cols;
  std::vector<int>& edited = EditedCopy(keys, edits);
  edited[k] = 1000;
  keys = edited;
  return true;
}

bool DropJoinKeyPair(PhysicalPlan& plan, Rng& rng, Edits& /*edits*/) {
  JoinSpec* spec = RandomJoin(plan, rng);
  if (spec == nullptr || spec->left_key_cols.empty()) return false;
  // A forgotten key pair silently degrades the join toward a cross
  // product — the exact bug class the width bound guards against.
  const size_t keys = spec->left_key_cols.size() - 1;
  spec->left_key_cols = spec->left_key_cols.first(keys);
  spec->right_key_cols = spec->right_key_cols.first(keys);
  return true;
}

bool MismatchedKeyMapLengths(PhysicalPlan& plan, Rng& rng, Edits& edits) {
  JoinSpec* spec = RandomJoin(plan, rng);
  if (spec == nullptr) return false;
  std::vector<int>& edited = EditedCopy(spec->right_key_cols, edits);
  edited.push_back(0);
  spec->right_key_cols = edited;
  return true;
}

bool MaskColOutOfBounds(PhysicalPlan& plan, Rng& rng, Edits& edits) {
  std::vector<int32_t> projects = ProjectNodes(plan);
  if (projects.empty()) return false;
  ProjectSpec& spec =
      plan.mutable_node(projects[rng.NextBounded(projects.size())]).project;
  if (spec.cols.empty()) return false;
  std::vector<int>& edited = EditedCopy(spec.cols, edits);
  edited[rng.NextBounded(edited.size())] = 1000;
  spec.cols = edited;
  return true;
}

bool PermuteProjectionMask(PhysicalPlan& plan, Rng& rng, Edits& edits) {
  const std::vector<int32_t> candidates =
      NodesWhere(plan, [](const PhysicalNode& n) {
        return n.has_project && n.project.cols.size() >= 2;
      });
  if (candidates.empty()) return false;
  ProjectSpec& spec =
      plan.mutable_node(candidates[rng.NextBounded(candidates.size())])
          .project;
  // Swapping two mask columns keeps every index in bounds but breaks the
  // column-to-attribute correspondence with out_attrs.
  std::vector<int>& edited = EditedCopy(spec.cols, edits);
  std::swap(edited.front(), edited.back());
  spec.cols = edited;
  return true;
}

bool DropProjection(PhysicalPlan& plan, Rng& rng, Edits& /*edits*/) {
  std::vector<int32_t> projects = ProjectNodes(plan);
  if (projects.empty()) return false;
  plan.mutable_node(projects[rng.NextBounded(projects.size())]).has_project =
      false;
  return true;
}

// A node's output schema is its last spec's output attributes: corrupts
// one of them in a random node's projection, last fold step, or scan.
bool CorruptSpecOutputAttrs(PhysicalPlan& plan, Rng& rng, Edits& edits) {
  const auto id = static_cast<int32_t>(
      rng.NextBounded(static_cast<uint64_t>(plan.NumNodes())));
  PhysicalNode& node = plan.mutable_node(id);
  std::span<const AttrId>& attrs =
      node.has_project      ? node.project.out_attrs
      : !node.joins.empty() ? plan.mutable_joins(id).back().out_attrs
                            : node.scan.out_attrs;
  if (attrs.empty()) return false;
  std::vector<int>& edited = EditedCopy(attrs, edits);
  edited[rng.NextBounded(edited.size())] = 1000;
  attrs = edited;
  return true;
}

// A node's children are ids into the plan's node array; swapping two
// makes the walker run the subtrees in another order than the fold's
// specs were planned for.
bool SwapChildIds(PhysicalPlan& plan, Rng& rng, Edits& edits) {
  const std::vector<int32_t> candidates = NodesWhere(
      plan, [](const PhysicalNode& n) { return n.children.size() >= 2; });
  if (candidates.empty()) return false;
  PhysicalNode& node =
      plan.mutable_node(candidates[rng.NextBounded(candidates.size())]);
  std::vector<int>& edited = EditedCopy(node.children, edits);
  const size_t i = rng.NextBounded(edited.size() - 1);
  std::swap(edited[i], edited[i + 1]);
  node.children = edited;
  return true;
}

// A keyed side the labels do not imply makes the keyed projection return
// duplicate rows (set wrongly) or dedup the slow way (cleared wrongly):
// moves a projecting fold node's keyed side to one of the other two.
bool ToggleKeyedSide(PhysicalPlan& plan, Rng& rng, Edits& /*edits*/) {
  const std::vector<int32_t> candidates =
      NodesWhere(plan, [](const PhysicalNode& n) {
        return n.has_project && !n.joins.empty();
      });
  if (candidates.empty()) return false;
  PhysicalNode& node =
      plan.mutable_node(candidates[rng.NextBounded(candidates.size())]);
  const KeyedSide sides[] = {KeyedSide::kNone, KeyedSide::kLeft,
                             KeyedSide::kRight};
  const size_t current = static_cast<size_t>(node.keyed);
  node.keyed = sides[(current + 1 + rng.NextBounded(2)) % 3];
  return true;
}

struct NamedPhysicalMutator {
  const char* name;
  PhysicalMutator apply;
};

constexpr NamedPhysicalMutator kPhysicalMutators[] = {
    {"key-col-out-of-bounds", KeyColOutOfBounds},
    {"drop-join-key-pair", DropJoinKeyPair},
    {"mismatched-key-map-lengths", MismatchedKeyMapLengths},
    {"mask-col-out-of-bounds", MaskColOutOfBounds},
    {"permute-projection-mask", PermuteProjectionMask},
    {"drop-projection", DropProjection},
    {"corrupt-spec-output-attrs", CorruptSpecOutputAttrs},
    {"swap-child-ids", SwapChildIds},
    {"toggle-keyed-side", ToggleKeyedSide},
};

// ---------------------------------------------------------------------

struct Workload {
  ConjunctiveQuery query;
  Database db;
};

Workload RandomWorkload(Rng& rng) {
  Workload w;
  if (rng.NextBernoulli(0.5)) {
    const int n = rng.NextInt(5, 10);
    const int m = rng.NextInt(n, std::min(2 * n, n * (n - 1) / 2));
    w.query = KColorQuery(ConnectedRandomGraph(n, m, rng));
    AddColoringRelations(3, &w.db);
  } else {
    const Cnf cnf = RandomKSat(rng.NextInt(5, 9), rng.NextInt(6, 12), 3, rng);
    w.query = SatQuery(cnf);
    AddSatRelations(3, &w.db);
  }
  return w;
}

StrategyKind RandomStrategy(Rng& rng) {
  const std::vector<StrategyKind> kinds = AllStrategies();
  return kinds[rng.NextBounded(kinds.size())];
}

TEST(PlanMutationFuzzTest, LogicalVerifierRejectsEveryCorruption) {
  Rng rng(0x5eed);
  std::map<std::string, int> applied;
  std::map<std::string, int> rejected;
  constexpr int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    Workload w = RandomWorkload(rng);
    const Plan pristine =
        BuildStrategyPlan(RandomStrategy(rng), w.query, rng.NextU64());
    ASSERT_TRUE(VerifyLogicalPlan(w.query, pristine).ok())
        << "pristine plan rejected on trial " << trial;

    const NamedLogicalMutator& mutator =
        kLogicalMutators[rng.NextBounded(std::size(kLogicalMutators))];
    Plan mutant = ClonePlan(pristine);
    if (!mutator.apply(w.query, mutant, rng)) continue;
    applied[mutator.name]++;
    // ExplainPlan analyzes a caller's plan before the logical tier has
    // accepted it, so the analyzer must return on every mutant, with any
    // status.
    (void)AnalyzePlan(w.query, mutant, w.db);
    const Status verdict = VerifyLogicalPlan(w.query, mutant);
    if (!verdict.ok()) {
      rejected[mutator.name]++;
    } else {
      ADD_FAILURE() << "mutation '" << mutator.name
                    << "' survived verification on trial " << trial << "\n"
                    << mutant.ToString(w.query);
    }
  }
  for (const NamedLogicalMutator& mutator : kLogicalMutators) {
    EXPECT_GE(applied[mutator.name], 10)
        << "mutation class '" << mutator.name << "' barely exercised";
    EXPECT_EQ(rejected[mutator.name], applied[mutator.name]);
  }
}

TEST(PlanMutationFuzzTest, PhysicalVerifierRejectsEveryCorruption) {
  Rng rng(0x9e3779b97f4a7c15ULL);
  std::map<std::string, int> applied;
  std::map<std::string, int> rejected;
  constexpr int kTrials = 200;
  for (int trial = 0; trial < kTrials; ++trial) {
    Workload w = RandomWorkload(rng);
    const Plan plan =
        BuildStrategyPlan(RandomStrategy(rng), w.query, rng.NextU64());
    Result<PhysicalPlan> compiled = PhysicalPlan::Compile(w.query, plan, w.db);
    ASSERT_TRUE(compiled.ok());
    ASSERT_TRUE(VerifyPhysicalPlan(w.query, plan, w.db, *compiled).ok())
        << "pristine compiled plan rejected on trial " << trial;

    const NamedPhysicalMutator& mutator =
        kPhysicalMutators[rng.NextBounded(std::size(kPhysicalMutators))];
    Edits edits;
    if (!mutator.apply(*compiled, rng, edits)) continue;
    applied[mutator.name]++;
    const Status verdict = VerifyPhysicalPlan(w.query, plan, w.db, *compiled);
    if (!verdict.ok()) {
      rejected[mutator.name]++;
    } else {
      ADD_FAILURE() << "physical mutation '" << mutator.name
                    << "' survived verification on trial " << trial;
    }
  }
  for (const NamedPhysicalMutator& mutator : kPhysicalMutators) {
    EXPECT_GE(applied[mutator.name], 5)
        << "mutation class '" << mutator.name << "' barely exercised";
    EXPECT_EQ(rejected[mutator.name], applied[mutator.name]);
  }
}

// ---------------------------------------------------------------------
// Semantic mutators: corrupt the *query*, not the tree. The resulting
// plan is a perfectly well-formed plan — for the wrong query (the
// cache-mixup scenario), which no structural pass can see. Each returns
// whether the mutation applied.

using QueryMutator = bool (*)(const ConjunctiveQuery&, ConjunctiveQuery*,
                              Rng&);

std::vector<AttrId> BoundVars(const ConjunctiveQuery& query) {
  std::vector<AttrId> bound;
  for (AttrId a : query.AllAttrs()) {
    if (std::find(query.free_vars().begin(), query.free_vars().end(), a) ==
        query.free_vars().end()) {
      bound.push_back(a);
    }
  }
  return bound;
}

bool DropAtomFromQuery(const ConjunctiveQuery& query, ConjunctiveQuery* out,
                       Rng& rng) {
  if (query.num_atoms() < 2) return false;
  const size_t drop = rng.NextBounded(
      static_cast<uint64_t>(query.num_atoms()));
  std::vector<Atom> atoms;
  for (size_t i = 0; i < query.atoms().size(); ++i) {
    if (i != drop) atoms.push_back(query.atoms()[i]);
  }
  for (AttrId f : query.free_vars()) {
    const bool used = std::any_of(
        atoms.begin(), atoms.end(),
        [f](const Atom& atom) { return atom.UsesAttr(f); });
    if (!used) return false;  // would invalidate the target schema
  }
  *out = ConjunctiveQuery(std::move(atoms), query.free_vars());
  return true;
}

bool SwapHeadVariable(const ConjunctiveQuery& query, ConjunctiveQuery* out,
                      Rng& rng) {
  if (query.free_vars().empty()) return false;
  std::vector<AttrId> bound = BoundVars(query);
  if (bound.empty()) return false;
  std::vector<AttrId> head = query.free_vars();
  head[rng.NextBounded(head.size())] = bound[rng.NextBounded(bound.size())];
  std::sort(head.begin(), head.end());
  *out = ConjunctiveQuery(query.atoms(), std::move(head));
  return true;
}

bool MergeDistinctVariables(const ConjunctiveQuery& query,
                            ConjunctiveQuery* out, Rng& rng) {
  std::vector<AttrId> bound = BoundVars(query);
  if (bound.size() < 2) return false;
  const size_t keep_at = rng.NextBounded(bound.size());
  size_t gone_at = rng.NextBounded(bound.size() - 1);
  if (gone_at >= keep_at) gone_at++;
  const AttrId keep = bound[keep_at];
  const AttrId gone = bound[gone_at];
  std::vector<Atom> atoms = query.atoms();
  for (Atom& atom : atoms) {
    for (AttrId& arg : atom.args) {
      if (arg == gone) arg = keep;
    }
  }
  *out = ConjunctiveQuery(std::move(atoms), query.free_vars());
  return true;
}

struct NamedQueryMutator {
  const char* name;
  QueryMutator apply;
};

constexpr NamedQueryMutator kQueryMutators[] = {
    {"drop-atom", DropAtomFromQuery},
    {"swap-head-variable", SwapHeadVariable},
    {"merge-distinct-variables", MergeDistinctVariables},
};

TEST(SemanticMutationFuzzTest, CertifierIsSoundOnWrongQueryPlans) {
  // The cache-mixup scenario end to end: a plan is built — and passes
  // every build-time structural check — for the mutated query, then
  // gets served for the original one. At reuse time the only line of
  // defense is the semantic certifier, which interprets the plan's leaf
  // indices and labels under the query it is *asked about*. It must
  // either reject, or accept only when the plan really still computes
  // the original query (a dropped lone variable, a redundant atom) —
  // checked against the actual database, which is safe to run precisely
  // because acceptance proves the plan well-formed under that query.
  Rng rng(0xc0ffee);
  std::map<std::string, int> applied;
  std::map<std::string, int> caught;
  constexpr int kTrials = 150;
  for (int trial = 0; trial < kTrials; ++trial) {
    Workload w = RandomWorkload(rng);
    const NamedQueryMutator& mutator =
        kQueryMutators[rng.NextBounded(std::size(kQueryMutators))];
    ConjunctiveQuery mutated;
    if (!mutator.apply(w.query, &mutated, rng)) continue;
    if (!mutated.Validate(w.db).ok()) continue;

    const Plan plan =
        BuildStrategyPlan(RandomStrategy(rng), mutated, rng.NextU64());
    ASSERT_TRUE(VerifyLogicalPlan(mutated, plan).ok())
        << "plan for mutated query rejected structurally on trial " << trial;
    applied[mutator.name]++;

    const CertificationReport report = CertifyPlan(w.query, plan);
    if (!report.ok()) {
      caught[mutator.name]++;
      continue;
    }
    // The certifier vouched for the wrong-query plan. That can be
    // legitimate — but then the plan must produce exactly the original
    // query's answer.
    ExecutionResult expect = ExecuteStraightforward(w.query, w.db);
    ExecutionResult got = ExecutePlan(w.query, plan, w.db);
    ASSERT_TRUE(expect.status.ok());
    ASSERT_TRUE(got.status.ok());
    EXPECT_TRUE(expect.output.SetEquals(got.output))
        << "certifier accepted a '" << mutator.name
        << "' wrong-query plan that changes the answer on trial " << trial
        << "\n  query: " << w.query.ToString()
        << "\n  mutant: " << mutated.ToString();
  }
  for (const NamedQueryMutator& mutator : kQueryMutators) {
    EXPECT_GE(applied[mutator.name], 10)
        << "mutation class '" << mutator.name << "' barely exercised";
    EXPECT_GE(caught[mutator.name], 5)
        << "mutation class '" << mutator.name
        << "' was never rejected — the certifier is not looking";
  }
}

// Premature projection with consistent labels: remove an attribute from
// an internal node's projected label even though the attribute occurs
// again outside the subtree, then re-derive every ancestor's labels so
// the tree stays label-consistent. Only the Section 4 safety condition
// is violated — there is no last-occurrence witness for the drop.

void CollectSubtreeAtoms(const PlanNode* node, std::vector<int>* out) {
  if (node->IsLeaf()) out->push_back(node->atom_index);
  for (const auto& child : node->children) {
    CollectSubtreeAtoms(child.get(), out);
  }
}

void RederiveLabels(PlanNode* node) {
  if (node->IsLeaf()) return;
  for (auto& child : node->children) RederiveLabels(child.get());
  std::vector<AttrId> working;
  for (const auto& child : node->children) {
    working.insert(working.end(), child->projected.begin(),
                   child->projected.end());
  }
  std::sort(working.begin(), working.end());
  working.erase(std::unique(working.begin(), working.end()), working.end());
  node->working = working;
  std::vector<AttrId> projected;
  for (AttrId a : node->projected) {
    if (std::binary_search(working.begin(), working.end(), a)) {
      projected.push_back(a);
    }
  }
  node->projected = std::move(projected);
}

bool SeedPrematureProjection(const ConjunctiveQuery& query, Plan& plan,
                             Rng& rng) {
  std::vector<PlanNode*> nodes;
  CollectNodes(plan.mutable_root(), &nodes);
  // Candidates: (non-root internal node, attr) where the attr occurs in
  // an atom outside the node's subtree — dropping it there severs a
  // live unification.
  std::vector<std::pair<PlanNode*, AttrId>> candidates;
  for (size_t i = 1; i < nodes.size(); ++i) {
    PlanNode* node = nodes[i];
    if (node->IsLeaf()) continue;
    std::vector<int> subtree;
    CollectSubtreeAtoms(node, &subtree);
    for (AttrId a : node->projected) {
      for (int atom = 0; atom < query.num_atoms(); ++atom) {
        if (std::find(subtree.begin(), subtree.end(), atom) !=
            subtree.end()) {
          continue;
        }
        if (query.atoms()[static_cast<size_t>(atom)].UsesAttr(a)) {
          candidates.emplace_back(node, a);
          break;
        }
      }
    }
  }
  if (candidates.empty()) return false;
  auto [node, attr] = candidates[rng.NextBounded(candidates.size())];
  node->projected.erase(
      std::find(node->projected.begin(), node->projected.end(), attr));
  RederiveLabels(plan.mutable_root());
  return true;
}

TEST(SemanticMutationFuzzTest, CertifierCatchesPrematureProjections) {
  Rng rng(0xfeedface);
  int applied = 0;
  int caught = 0;
  constexpr int kTrials = 80;
  for (int trial = 0; trial < kTrials; ++trial) {
    Workload w = RandomWorkload(rng);
    const Plan pristine =
        BuildStrategyPlan(RandomStrategy(rng), w.query, rng.NextU64());
    Plan mutant = ClonePlan(pristine);
    if (!SeedPrematureProjection(w.query, mutant, rng)) continue;
    applied++;
    const CertificationReport report = CertifyPlan(w.query, mutant);
    if (!report.ok()) {
      caught++;
    } else {
      // The certifier accepting means it proved the severed unification
      // harmless; cross-check the claim on the actual database — the
      // mutant must then produce exactly the pristine answer.
      ExecutionResult expect = ExecutePlan(w.query, pristine, w.db);
      ExecutionResult got = ExecutePlan(w.query, mutant, w.db);
      ASSERT_TRUE(expect.status.ok());
      ASSERT_TRUE(got.status.ok());
      EXPECT_TRUE(expect.output.SetEquals(got.output))
          << "certifier accepted a premature projection that changes the "
             "answer on trial "
          << trial;
    }
  }
  EXPECT_GE(applied, 20) << "premature-projection class barely exercised";
  // Severing a live unification usually changes the query; the rare
  // accepted mutant went through the answer-equality oracle above.
  EXPECT_GE(caught, applied / 2);
  EXPECT_GE(caught, 10);
}

}  // namespace
}  // namespace ppr
