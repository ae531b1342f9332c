#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/plan.h"
#include "encode/kcolor.h"

namespace ppr {
namespace {

// pi_{x0} edge(x0,x1) |><| edge(x1,x2): tiny path query.
ConjunctiveQuery PathQuery() {
  return ConjunctiveQuery({Atom{"edge", {0, 1}}, Atom{"edge", {1, 2}}}, {0});
}

TEST(PlanNodeTest, MakeLeafLabels) {
  ConjunctiveQuery q = PathQuery();
  auto leaf = MakeLeaf(q, 1);
  EXPECT_TRUE(leaf->IsLeaf());
  EXPECT_EQ(leaf->atom_index, 1);
  EXPECT_EQ(leaf->working, (std::vector<AttrId>{1, 2}));
  EXPECT_EQ(leaf->projected, leaf->working);
  EXPECT_FALSE(leaf->Projects());
}

TEST(PlanNodeTest, MakeJoinComputesWorkingLabel) {
  ConjunctiveQuery q = PathQuery();
  std::vector<std::unique_ptr<PlanNode>> children;
  children.push_back(MakeLeaf(q, 0));
  children.push_back(MakeLeaf(q, 1));
  auto join = MakeJoin(std::move(children), {0});
  EXPECT_FALSE(join->IsLeaf());
  EXPECT_EQ(join->working, (std::vector<AttrId>{0, 1, 2}));
  EXPECT_EQ(join->projected, (std::vector<AttrId>{0}));
  EXPECT_TRUE(join->Projects());
}

TEST(PlanTest, WidthAndCounts) {
  ConjunctiveQuery q = PathQuery();
  std::vector<std::unique_ptr<PlanNode>> children;
  children.push_back(MakeLeaf(q, 0));
  children.push_back(MakeLeaf(q, 1));
  Plan plan(MakeJoin(std::move(children), {0}));
  EXPECT_EQ(plan.Width(), 3);
  EXPECT_EQ(plan.NumNodes(), 3);
  EXPECT_EQ(plan.Depth(), 2);
  EXPECT_EQ(plan.MaxProjectedArity(), 1);
  EXPECT_FALSE(plan.empty());
}

TEST(PlanTest, ToStringShowsLabels) {
  ConjunctiveQuery q = PathQuery();
  std::vector<std::unique_ptr<PlanNode>> children;
  children.push_back(MakeLeaf(q, 0));
  children.push_back(MakeLeaf(q, 1));
  Plan plan(MakeJoin(std::move(children), {0}));
  std::string s = plan.ToString(q);
  EXPECT_NE(s.find("join"), std::string::npos);
  EXPECT_NE(s.find("edge(x0, x1)"), std::string::npos);
  EXPECT_NE(s.find("L_w={x0, x1, x2}"), std::string::npos);
}

TEST(ValidatePlanTest, AcceptsWellFormed) {
  ConjunctiveQuery q = PathQuery();
  std::vector<std::unique_ptr<PlanNode>> children;
  children.push_back(MakeLeaf(q, 0));
  children.push_back(MakeLeaf(q, 1));
  Plan plan(MakeJoin(std::move(children), {0}));
  EXPECT_TRUE(ValidatePlan(q, plan).ok());
}

TEST(ValidatePlanTest, AcceptsSafeEarlyProjection) {
  // x2 only occurs in atom 1, so the leaf may project it away.
  ConjunctiveQuery q = PathQuery();
  std::vector<std::unique_ptr<PlanNode>> inner;
  inner.push_back(MakeLeaf(q, 1));
  auto projected_leaf = MakeJoin(std::move(inner), {1});  // drop x2
  std::vector<std::unique_ptr<PlanNode>> children;
  children.push_back(MakeLeaf(q, 0));
  children.push_back(std::move(projected_leaf));
  Plan plan(MakeJoin(std::move(children), {0}));
  EXPECT_TRUE(ValidatePlan(q, plan).ok());
  EXPECT_EQ(plan.Width(), 2);
}

TEST(ValidatePlanTest, RejectsUnsafeProjection) {
  // Dropping x1 below atom 0 is unsafe: atom 1 still needs x1.
  ConjunctiveQuery q = PathQuery();
  std::vector<std::unique_ptr<PlanNode>> inner;
  inner.push_back(MakeLeaf(q, 0));
  auto bad = MakeJoin(std::move(inner), {0});  // drops x1 too early
  std::vector<std::unique_ptr<PlanNode>> children;
  children.push_back(std::move(bad));
  children.push_back(MakeLeaf(q, 1));
  Plan plan(MakeJoin(std::move(children), {0}));
  EXPECT_FALSE(ValidatePlan(q, plan).ok());
}

TEST(ValidatePlanTest, RejectsMissingAtom) {
  ConjunctiveQuery q = PathQuery();
  std::vector<std::unique_ptr<PlanNode>> children;
  children.push_back(MakeLeaf(q, 0));
  Plan plan(MakeJoin(std::move(children), {0}));  // atom 1 never joined
  EXPECT_FALSE(ValidatePlan(q, plan).ok());
}

TEST(ValidatePlanTest, RejectsDuplicateAtom) {
  ConjunctiveQuery q = PathQuery();
  std::vector<std::unique_ptr<PlanNode>> children;
  children.push_back(MakeLeaf(q, 0));
  children.push_back(MakeLeaf(q, 0));
  children.push_back(MakeLeaf(q, 1));
  Plan plan(MakeJoin(std::move(children), {0}));
  EXPECT_FALSE(ValidatePlan(q, plan).ok());
}

TEST(ValidatePlanTest, RejectsWrongRootSchema) {
  ConjunctiveQuery q = PathQuery();
  std::vector<std::unique_ptr<PlanNode>> children;
  children.push_back(MakeLeaf(q, 0));
  children.push_back(MakeLeaf(q, 1));
  Plan plan(MakeJoin(std::move(children), {0, 1}));  // target is {0}
  EXPECT_FALSE(ValidatePlan(q, plan).ok());
}

TEST(ValidatePlanTest, RejectsProjectingFreeVariable) {
  ConjunctiveQuery q({Atom{"edge", {0, 1}}, Atom{"edge", {0, 1}}}, {0, 1});
  std::vector<std::unique_ptr<PlanNode>> inner;
  inner.push_back(MakeLeaf(q, 0));
  inner.push_back(MakeLeaf(q, 1));
  auto drop_free = MakeJoin(std::move(inner), {0});  // drops free var 1
  std::vector<std::unique_ptr<PlanNode>> outer;
  outer.push_back(std::move(drop_free));
  // Root cannot even restore {0,1}; working is {0}. Build root over {0}:
  Plan plan(MakeJoin(std::move(outer), {0}));
  EXPECT_FALSE(ValidatePlan(q, plan).ok());

  // That root is also the wrong schema. Here another atom carries the
  // dropped x2 to the root, so the root is right and only the
  // free-variable check can reject the plan:
  // pi_{x0,x2} edge(x0,x1) |><| edge(x1,x2) |><| edge(x0,x2).
  ConjunctiveQuery triangle({Atom{"edge", {0, 1}}, Atom{"edge", {1, 2}},
                             Atom{"edge", {0, 2}}},
                            {0, 2});
  std::vector<std::unique_ptr<PlanNode>> below;
  below.push_back(MakeLeaf(triangle, 1));
  std::vector<std::unique_ptr<PlanNode>> children;
  children.push_back(MakeLeaf(triangle, 0));
  children.push_back(MakeJoin(std::move(below), {1}));  // node 2 drops x2
  children.push_back(MakeLeaf(triangle, 2));
  Plan restored(MakeJoin(std::move(children), {0, 2}));
  const Status s = ValidatePlan(triangle, restored);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("free variable x2 at node 2"), std::string::npos)
      << s.ToString();
}

TEST(ValidatePlanTest, RejectsEmptyPlan) {
  ConjunctiveQuery q = PathQuery();
  Plan plan;
  EXPECT_FALSE(ValidatePlan(q, plan).ok());
  EXPECT_TRUE(plan.empty());
}

}  // namespace
}  // namespace ppr
