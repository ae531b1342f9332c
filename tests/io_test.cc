#include <gtest/gtest.h>

#include "core/strategies.h"
#include "encode/kcolor.h"
#include "graph/elimination.h"
#include "graph/generators.h"
#include "graph/tree_decomposition.h"
#include "io/dot.h"

namespace ppr {
namespace {

TEST(DotTest, GraphExportContainsAllEdges) {
  Graph g = Cycle(4);
  std::string dot = GraphToDot(g);
  EXPECT_NE(dot.find("graph G {"), std::string::npos);
  EXPECT_NE(dot.find("v0 -- v1"), std::string::npos);
  EXPECT_NE(dot.find("v0 -- v3"), std::string::npos);
}

TEST(DotTest, TreeDecompositionExportShowsBags) {
  Graph g = Cycle(5);
  TreeDecomposition td =
      DecompositionFromOrder(g, McsEliminationOrder(g, {}, nullptr));
  std::string dot = TreeDecompositionToDot(td);
  EXPECT_NE(dot.find("graph TD {"), std::string::npos);
  EXPECT_NE(dot.find("label=\"{"), std::string::npos);
  // One node per bag.
  size_t count = 0;
  for (size_t pos = dot.find("label="); pos != std::string::npos;
       pos = dot.find("label=", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, static_cast<size_t>(td.num_bags()));
}

TEST(DotTest, PlanExportHighlightsProjections) {
  ConjunctiveQuery q = PentagonQuery();
  std::string dot = PlanToDot(q, EarlyProjectionPlan(q));
  EXPECT_NE(dot.find("digraph Plan {"), std::string::npos);
  EXPECT_NE(dot.find("edge(x0, x1)"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=lightblue"), std::string::npos);
  // Straightforward plans project only at the root: exactly one highlight.
  std::string sf = PlanToDot(q, StraightforwardPlan(q));
  size_t highlights = 0;
  for (size_t pos = sf.find("lightblue"); pos != std::string::npos;
       pos = sf.find("lightblue", pos + 1)) {
    ++highlights;
  }
  EXPECT_EQ(highlights, 1u);
}

}  // namespace
}  // namespace ppr
