#ifndef PPR_TESTS_TEST_UTIL_H_
#define PPR_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/plan.h"
#include "graph/graph.h"

namespace ppr {

/// Random connected-ish graph for property tests: a random Hamiltonian
/// path (so no vertex is isolated and attribute ids are dense in the
/// derived queries) plus uniformly random extra edges up to `num_edges`.
/// Requires num_edges >= n - 1.
inline Graph ConnectedRandomGraph(int num_vertices, int num_edges, Rng& rng) {
  PPR_CHECK(num_edges >= num_vertices - 1);
  const int64_t max_edges =
      static_cast<int64_t>(num_vertices) * (num_vertices - 1) / 2;
  PPR_CHECK(num_edges <= max_edges);
  Graph g(num_vertices);
  std::vector<int> path(static_cast<size_t>(num_vertices));
  std::iota(path.begin(), path.end(), 0);
  rng.Shuffle(path);
  for (int i = 0; i + 1 < num_vertices; ++i) {
    g.AddEdge(path[static_cast<size_t>(i)], path[static_cast<size_t>(i + 1)]);
  }
  while (g.num_edges() < num_edges) {
    int u = rng.NextInt(0, num_vertices - 1);
    int v = rng.NextInt(0, num_vertices - 1);
    if (u != v) g.AddEdge(u, v);
  }
  return g;
}

/// The plan's nodes in pre-order (root first, node before its children,
/// children left to right): the numbering of PhysicalNode ids, trace
/// spans' node ids and the width analyzer's per-node bounds.
inline void AppendPreOrder(const PlanNode* node,
                           std::vector<const PlanNode*>* nodes) {
  nodes->push_back(node);
  for (const auto& child : node->children) AppendPreOrder(child.get(), nodes);
}

inline std::vector<const PlanNode*> PreOrderNodes(const Plan& plan) {
  std::vector<const PlanNode*> nodes;
  if (!plan.empty()) AppendPreOrder(plan.root(), &nodes);
  return nodes;
}

}  // namespace ppr

#endif  // PPR_TESTS_TEST_UTIL_H_
