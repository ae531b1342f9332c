#include "core/strategies.h"

#include <algorithm>
#include <map>

#include "common/check.h"
#include "core/theory.h"
#include "graph/tree_decomposition.h"

namespace ppr {
namespace {

std::vector<AttrId> SortedFreeVars(const ConjunctiveQuery& query) {
  std::vector<AttrId> target = query.free_vars();
  std::sort(target.begin(), target.end());
  return target;
}

// Number of atoms containing each attribute (distinct per atom), indexed
// by attribute id.
std::vector<int> AtomOccurrenceCounts(const ConjunctiveQuery& query) {
  AttrId max_attr = -1;
  for (const Atom& atom : query.atoms()) {
    for (AttrId a : atom.args) max_attr = std::max(max_attr, a);
  }
  std::vector<int> counts(static_cast<size_t>(max_attr + 1), 0);
  for (const Atom& atom : query.atoms()) {
    for (AttrId a : atom.DistinctAttrs()) counts[static_cast<size_t>(a)]++;
  }
  return counts;
}

bool IsFree(const ConjunctiveQuery& query, AttrId a) {
  return std::find(query.free_vars().begin(), query.free_vars().end(), a) !=
         query.free_vars().end();
}

}  // namespace

Plan StraightforwardPlan(const ConjunctiveQuery& query) {
  PPR_CHECK(query.num_atoms() > 0);
  std::unique_ptr<PlanNode> node = MakeLeaf(query, 0);
  for (int i = 1; i < query.num_atoms(); ++i) {
    // Keep everything: projected = working (no projection pushing).
    std::vector<std::unique_ptr<PlanNode>> children;
    children.push_back(std::move(node));
    children.push_back(MakeLeaf(query, i));
    std::vector<AttrId> keep_all;
    {
      // Union of the two children's projected labels.
      for (const auto& c : children) {
        keep_all.insert(keep_all.end(), c->projected.begin(),
                        c->projected.end());
      }
      std::sort(keep_all.begin(), keep_all.end());
      keep_all.erase(std::unique(keep_all.begin(), keep_all.end()),
                     keep_all.end());
    }
    node = MakeJoin(std::move(children), std::move(keep_all));
  }
  // Single final projection onto the target schema (the outer SELECT).
  std::vector<std::unique_ptr<PlanNode>> root_children;
  root_children.push_back(std::move(node));
  return Plan(MakeJoin(std::move(root_children), SortedFreeVars(query)));
}

Plan EarlyProjectionPlan(const ConjunctiveQuery& query) {
  std::vector<int> perm(static_cast<size_t>(query.num_atoms()));
  for (int i = 0; i < query.num_atoms(); ++i) perm[static_cast<size_t>(i)] = i;
  return EarlyProjectionPlanWithOrder(query, perm);
}

Plan EarlyProjectionPlanWithOrder(const ConjunctiveQuery& query,
                                  const std::vector<int>& perm) {
  const int m = query.num_atoms();
  PPR_CHECK(m > 0);
  PPR_CHECK(static_cast<int>(perm.size()) == m);
  {
    std::vector<uint8_t> seen(static_cast<size_t>(m), 0);
    for (int p : perm) {
      PPR_CHECK(p >= 0 && p < m && !seen[static_cast<size_t>(p)]);
      seen[static_cast<size_t>(p)] = 1;
    }
  }

  std::vector<int> remaining = AtomOccurrenceCounts(query);
  std::vector<AttrId> live;  // sorted live variables of the current prefix

  std::unique_ptr<PlanNode> node;
  for (int i = 0; i < m; ++i) {
    const int atom_index = perm[static_cast<size_t>(i)];
    const Atom& atom = query.atoms()[static_cast<size_t>(atom_index)];

    // The prefix now includes this atom: add its attrs to the live set and
    // consume one occurrence of each.
    for (AttrId a : atom.DistinctAttrs()) {
      if (!std::binary_search(live.begin(), live.end(), a)) {
        live.insert(std::upper_bound(live.begin(), live.end(), a), a);
      }
      remaining[static_cast<size_t>(a)]--;
    }
    // Project out variables with no occurrences left, unless free.
    std::vector<AttrId> next_live;
    for (AttrId a : live) {
      if (remaining[static_cast<size_t>(a)] > 0 || IsFree(query, a)) {
        next_live.push_back(a);
      }
    }
    live = std::move(next_live);

    std::unique_ptr<PlanNode> leaf = MakeLeaf(query, atom_index);
    std::vector<std::unique_ptr<PlanNode>> children;
    if (node != nullptr) children.push_back(std::move(node));
    children.push_back(std::move(leaf));
    if (children.size() == 1 &&
        children.front()->projected == live) {
      node = std::move(children.front());  // no projection needed yet
    } else {
      node = MakeJoin(std::move(children), live);
    }
  }

  // After the last atom, live == free vars; ensure the root projects the
  // target schema even for single-atom queries.
  std::vector<AttrId> target = SortedFreeVars(query);
  PPR_CHECK(live == target);
  if (node->projected != target) {
    std::vector<std::unique_ptr<PlanNode>> root_children;
    root_children.push_back(std::move(node));
    node = MakeJoin(std::move(root_children), target);
  }
  return Plan(std::move(node));
}

std::vector<int> GreedyReorder(const ConjunctiveQuery& query, Rng* rng) {
  const int m = query.num_atoms();
  std::vector<int> remaining_count = AtomOccurrenceCounts(query);
  std::vector<uint8_t> placed(static_cast<size_t>(m), 0);
  std::vector<int> order;
  order.reserve(static_cast<size_t>(m));

  for (int step = 0; step < m; ++step) {
    // Score each remaining atom: (-#vars-that-die, #vars-shared) and keep
    // the lexicographically smallest, collecting ties for random breaks.
    std::vector<int> best_atoms;
    std::pair<int, int> best_score{0, 0};
    for (int ai = 0; ai < m; ++ai) {
      if (placed[static_cast<size_t>(ai)]) continue;
      const Atom& atom = query.atoms()[static_cast<size_t>(ai)];
      int dies = 0;
      int shared = 0;
      for (AttrId a : atom.DistinctAttrs()) {
        if (remaining_count[static_cast<size_t>(a)] == 1) {
          if (!IsFree(query, a)) ++dies;
        } else {
          ++shared;
        }
      }
      const std::pair<int, int> score{-dies, shared};
      if (best_atoms.empty() || score < best_score) {
        best_score = score;
        best_atoms.assign(1, ai);
      } else if (score == best_score) {
        best_atoms.push_back(ai);
      }
    }
    const int pick =
        (rng != nullptr && best_atoms.size() > 1)
            ? best_atoms[static_cast<size_t>(
                  rng->NextBounded(best_atoms.size()))]
            : best_atoms.front();
    placed[static_cast<size_t>(pick)] = 1;
    order.push_back(pick);
    for (AttrId a :
         query.atoms()[static_cast<size_t>(pick)].DistinctAttrs()) {
      remaining_count[static_cast<size_t>(a)]--;
    }
  }
  return order;
}

Plan ReorderingPlan(const ConjunctiveQuery& query, Rng* rng) {
  return EarlyProjectionPlanWithOrder(query, GreedyReorder(query, rng));
}

Plan BucketEliminationPlan(const ConjunctiveQuery& query,
                           const std::vector<AttrId>& numbering) {
  const int m = query.num_atoms();
  PPR_CHECK(m > 0);
  const int n = static_cast<int>(numbering.size());

  // position[a] = index of attribute a in the numbering.
  std::map<AttrId, int> position;
  for (int i = 0; i < n; ++i) {
    const bool inserted =
        position.emplace(numbering[static_cast<size_t>(i)], i).second;
    PPR_CHECK(inserted);  // numbering must not repeat attributes
  }
  for (const Atom& atom : query.atoms()) {
    for (AttrId a : atom.args) PPR_CHECK(position.count(a) > 0);
  }

  auto max_position = [&](const std::vector<AttrId>& attrs) {
    int best = -1;
    for (AttrId a : attrs) best = std::max(best, position.at(a));
    return best;
  };

  // Fill the initial buckets: each atom goes to the bucket of its
  // highest-numbered attribute.
  std::vector<std::vector<std::unique_ptr<PlanNode>>> buckets(
      static_cast<size_t>(n));
  for (int ai = 0; ai < m; ++ai) {
    std::unique_ptr<PlanNode> leaf = MakeLeaf(query, ai);
    const int pos = max_position(leaf->working);
    PPR_CHECK(pos >= 0);
    buckets[static_cast<size_t>(pos)].push_back(std::move(leaf));
  }

  // Process buckets from the highest-numbered variable down. Each bucket
  // joins its contents and projects out its variable (unless free); the
  // result moves to the bucket of its highest remaining variable.
  std::vector<std::unique_ptr<PlanNode>> leftovers;
  for (int i = n - 1; i >= 0; --i) {
    auto& bucket = buckets[static_cast<size_t>(i)];
    if (bucket.empty()) continue;
    const AttrId var = numbering[static_cast<size_t>(i)];

    std::vector<AttrId> all_attrs;
    for (const auto& node : bucket) {
      all_attrs.insert(all_attrs.end(), node->projected.begin(),
                       node->projected.end());
    }
    std::sort(all_attrs.begin(), all_attrs.end());
    all_attrs.erase(std::unique(all_attrs.begin(), all_attrs.end()),
                    all_attrs.end());

    std::vector<AttrId> projected;
    for (AttrId a : all_attrs) {
      if (a != var || IsFree(query, a)) projected.push_back(a);
    }

    std::unique_ptr<PlanNode> result;
    if (bucket.size() == 1 && bucket.front()->projected == projected) {
      result = std::move(bucket.front());
    } else {
      result = MakeJoin(std::move(bucket), projected);
    }
    bucket.clear();

    // Destination: highest-numbered attribute strictly below this bucket.
    int dest = -1;
    for (AttrId a : result->projected) {
      const int p = position.at(a);
      if (p < i) dest = std::max(dest, p);
    }
    if (dest < 0) {
      leftovers.push_back(std::move(result));
    } else {
      buckets[static_cast<size_t>(dest)].push_back(std::move(result));
    }
  }

  // Join whatever remains to form the answer (Section 5: "we join the
  // remaining relations to get the answer to the query").
  PPR_CHECK(!leftovers.empty());
  std::vector<AttrId> target = SortedFreeVars(query);
  std::unique_ptr<PlanNode> root;
  if (leftovers.size() == 1 && leftovers.front()->projected == target) {
    root = std::move(leftovers.front());
  } else {
    root = MakeJoin(std::move(leftovers), target);
  }
  return Plan(std::move(root));
}

Plan BucketEliminationPlanMcs(const ConjunctiveQuery& query, Rng* rng) {
  const Graph join_graph = BuildJoinGraph(query);
  const std::vector<int> numbering =
      MaxCardinalityNumbering(join_graph, query.free_vars(), rng);
  std::vector<AttrId> attrs(numbering.begin(), numbering.end());
  return BucketEliminationPlan(query, attrs);
}

Plan TreewidthPlan(const ConjunctiveQuery& query,
                   const EliminationOrder& order) {
  const Graph join_graph = BuildJoinGraph(query);
  const TreeDecomposition td = DecompositionFromOrder(join_graph, order);
  return PlanFromTreeDecomposition(query, td);
}

}  // namespace ppr
