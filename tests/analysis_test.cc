// Tests for the static-analysis layer: logical/physical verifiers accept
// every strategy plan and reject each corruption class; the width
// analyzer's static max-arity prediction matches executed statistics and
// its size bounds are sound; the verified compile's gates decide whether
// its tiers run, and explain surfaces their verdicts.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "analysis/explain.h"
#include "analysis/physical_verifier.h"
#include "analysis/plan_verifier.h"
#include "analysis/schedule.h"
#include "analysis/verifier.h"
#include "analysis/width_analyzer.h"
#include "benchlib/harness.h"
#include "common/rng.h"
#include "core/strategies.h"
#include "core/theory.h"
#include "encode/kcolor.h"
#include "encode/sat.h"
#include "exec/executor.h"
#include "exec/physical_plan.h"
#include "graph/elimination.h"
#include "graph/generators.h"
#include "test_util.h"

namespace ppr {
namespace {

Database ThreeColorDb() {
  Database db;
  AddColoringRelations(3, &db);
  return db;
}

// Two-atom path query pi_{x0,x2} edge(x0,x1) |><| edge(x1,x2) with a
// hand-built plan, the fixture for targeted corruption tests.
ConjunctiveQuery PathQuery() {
  return ConjunctiveQuery({Atom{"edge", {0, 1}}, Atom{"edge", {1, 2}}},
                          {0, 2});
}

Plan PathPlan() {
  ConjunctiveQuery q = PathQuery();
  std::vector<std::unique_ptr<PlanNode>> children;
  children.push_back(MakeLeaf(q, 0));
  children.push_back(MakeLeaf(q, 1));
  return Plan(MakeJoin(std::move(children), {0, 2}));
}

TEST(LogicalVerifierTest, AcceptsAllStrategyPlans) {
  Rng rng(7);
  for (int n : {6, 9, 12}) {
    ConjunctiveQuery q = KColorQuery(ConnectedRandomGraph(n, n + 4, rng));
    for (StrategyKind kind : AllStrategies()) {
      Plan plan = BuildStrategyPlan(kind, q, 3);
      EXPECT_TRUE(VerifyLogicalPlan(q, plan).ok())
          << StrategyName(kind) << " on n=" << n;
    }
  }
}

TEST(LogicalVerifierTest, RejectsEmptyPlan) {
  ConjunctiveQuery q = PathQuery();
  Plan empty;
  EXPECT_FALSE(VerifyLogicalPlan(q, empty).ok());
}

TEST(LogicalVerifierTest, RejectsUnboundVariable) {
  ConjunctiveQuery q = PathQuery();
  Plan plan = PathPlan();
  // x9 appears in no atom: no scan can ever bind it.
  plan.mutable_root()->working.push_back(9);
  Status s = VerifyLogicalPlan(q, plan);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unbound"), std::string::npos) << s.ToString();
}

TEST(LogicalVerifierTest, RejectsPrematureProjection) {
  ConjunctiveQuery q = PathQuery();
  Plan plan = PathPlan();
  // Leaf edge(x0,x1) drops x1, but atom edge(x1,x2) outside the leaf's
  // subtree still needs it. The parent's working label stays consistent
  // (the other leaf still projects x1), isolating the safety violation.
  PlanNode* leaf0 = plan.mutable_root()->children[0].get();
  leaf0->projected = {0};
  Status s = VerifyLogicalPlan(q, plan);
  ASSERT_FALSE(s.ok());
  // The rejection names the node (the leaf is pre-order node 1), the
  // dropped variable and an atom that still needs it.
  for (const char* part : {"unsafe projection", "node 1", "x1", "atom 1"}) {
    EXPECT_NE(s.message().find(part), std::string::npos)
        << part << " in " << s.ToString();
  }
}

TEST(LogicalVerifierTest, RejectsProjectingOutFreeVariable) {
  ConjunctiveQuery q = PathQuery();
  Plan plan = PathPlan();
  PlanNode* root = plan.mutable_root();
  root->projected = {0};  // drops free variable x2
  EXPECT_FALSE(VerifyLogicalPlan(q, plan).ok());
}

TEST(LogicalVerifierTest, RejectsDuplicateLabelAttribute) {
  ConjunctiveQuery q = PathQuery();
  Plan plan = PathPlan();
  PlanNode* leaf0 = plan.mutable_root()->children[0].get();
  leaf0->working = {0, 1, 1};
  EXPECT_FALSE(VerifyLogicalPlan(q, plan).ok());
}

TEST(LogicalVerifierTest, RejectsMissingAndDuplicateAtoms) {
  ConjunctiveQuery q = PathQuery();
  Plan plan = PathPlan();
  // Both leaves claim atom 0: atom 1 is missing, atom 0 duplicated.
  plan.mutable_root()->children[1]->atom_index = 0;
  EXPECT_FALSE(VerifyLogicalPlan(q, plan).ok());

  Plan plan2 = PathPlan();
  plan2.mutable_root()->children[1]->atom_index = 5;  // out of range
  EXPECT_FALSE(VerifyLogicalPlan(q, plan2).ok());
}

TEST(LogicalVerifierTest, RejectsWrongRootSchema) {
  ConjunctiveQuery q = PathQuery();
  Plan plan = PathPlan();
  plan.mutable_root()->projected = {0, 1};  // target is {0, 2}
  EXPECT_FALSE(VerifyLogicalPlan(q, plan).ok());
}

// The logical tier checks the tree, not the catalog. The analyzer reads
// per-column statistics of each atom's relation, so it refuses a relation
// absent from the catalog or present with the wrong arity, and the
// verified compile fails on the analysis's status.
TEST(LogicalVerifierTest, RejectsRelationAbsentFromCatalog) {
  ConjunctiveQuery q = PathQuery();
  Plan plan = PathPlan();
  Database empty_db;
  EXPECT_TRUE(VerifyLogicalPlan(q, plan).ok());  // structurally ok

  // Relation present but with the wrong arity.
  Database bad_arity;
  bad_arity.Put("edge", Relation{Schema({0, 1, 2})});

  EXPECT_FALSE(AnalyzePlan(q, plan, empty_db).status.ok());
  EXPECT_FALSE(AnalyzePlan(q, plan, bad_arity).status.ok());

  EnablePlanVerification(true);
  for (const Database* db : {&empty_db, &bad_arity}) {
    const StaticAnalysis analysis = AnalyzePlan(q, plan, *db);
    VerifierReport report;
    Result<PhysicalPlan> compiled =
        CompileVerified(q, plan, *db, analysis, &report);
    ASSERT_FALSE(compiled.ok());
    EXPECT_EQ(compiled.status().ToString(), analysis.status.ToString());
    EXPECT_EQ(report.structural, compiled.status().ToString());
  }
  EnablePlanVerification(false);
}

TEST(ScheduleTest, LinearizesInBudgetChargeOrder) {
  ConjunctiveQuery q = PathQuery();
  Plan plan = PathPlan();
  OpSchedule schedule = BuildSchedule(q, plan);
  // scan, scan, join, project — the exact executor order.
  ASSERT_EQ(schedule.num_ops(), 4);
  EXPECT_EQ(schedule.ops[0].kind, OpKind::kScan);
  EXPECT_EQ(schedule.ops[1].kind, OpKind::kScan);
  EXPECT_EQ(schedule.ops[2].kind, OpKind::kJoin);
  EXPECT_EQ(schedule.ops[3].kind, OpKind::kProject);
  EXPECT_EQ(schedule.root_op, 3);
  // Each operator carries its node's pre-order id: the leaves are nodes
  // 1 and 2, the root's join and projection node 0.
  EXPECT_EQ(schedule.num_nodes, 3);
  EXPECT_EQ(schedule.ops[0].node_id, 1);
  EXPECT_EQ(schedule.ops[1].node_id, 2);
  EXPECT_EQ(schedule.ops[2].node_id, 0);
  EXPECT_EQ(schedule.ops[3].node_id, 0);
  EXPECT_TRUE(ValidateSchedule(q, schedule).ok());
  // Rendering names every operator.
  EXPECT_NE(schedule.ToString(q).find("join"), std::string::npos);
}

TEST(ScheduleTest, RejectsChargePointsOutOfOrder) {
  ConjunctiveQuery q = PathQuery();
  OpSchedule schedule = BuildSchedule(q, PathPlan());
  // Make the join consume an operator that has not charged yet.
  schedule.ops[2].right_input = 3;
  Status s = ValidateSchedule(q, schedule);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("budget"), std::string::npos) << s.ToString();
}

TEST(ScheduleTest, RejectsDoubleConsumption) {
  ConjunctiveQuery q = PathQuery();
  OpSchedule schedule = BuildSchedule(q, PathPlan());
  // The join reads scan #0 twice; scan #1 goes unconsumed.
  schedule.ops[2].right_input = 0;
  EXPECT_FALSE(ValidateSchedule(q, schedule).ok());
}

class PhysicalVerifierTest : public ::testing::Test {
 protected:
  PhysicalVerifierTest()
      : db_(ThreeColorDb()),
        query_(PentagonQuery()),
        plan_(BucketEliminationPlanMcs(query_, nullptr)),
        compiled_(std::move(
            PhysicalPlan::Compile(query_, plan_, db_).value())) {}

  Database db_;
  ConjunctiveQuery query_;
  Plan plan_;
  PhysicalPlan compiled_;

  // Pre-order id of the first node that `pick` accepts.
  template <typename Pick>
  int32_t First(Pick pick) const {
    for (int32_t id = 0; id < compiled_.NumNodes(); ++id) {
      if (pick(compiled_.node(id))) return id;
    }
    ADD_FAILURE() << "no such node";
    return 0;
  }
  // The first internal node (joins nonempty), projecting node, and leaf.
  int32_t FirstJoin() const {
    return First([](const PhysicalNode& n) { return !n.joins.empty(); });
  }
  int32_t FirstProjection() const {
    return First([](const PhysicalNode& n) { return n.has_project; });
  }
  int32_t FirstLeaf() const {
    return First([](const PhysicalNode& n) { return n.IsLeaf(); });
  }
};

// Corruptions point a spec's view at an edited copy of its list, which
// each test keeps alive while it verifies.

TEST_F(PhysicalVerifierTest, AcceptsCompiledPlan) {
  EXPECT_TRUE(VerifyPhysicalPlan(query_, plan_, db_, compiled_).ok());
}

TEST_F(PhysicalVerifierTest, RejectsKeyMapOutOfBounds) {
  JoinSpec& spec = compiled_.mutable_joins(FirstJoin())[0];
  std::vector<int> keys(spec.left_key_cols.begin(), spec.left_key_cols.end());
  ASSERT_FALSE(keys.empty());
  keys[0] = 99;
  spec.left_key_cols = keys;
  Status s = VerifyPhysicalPlan(query_, plan_, db_, compiled_);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("key column out of bounds"), std::string::npos)
      << s.ToString();
}

TEST_F(PhysicalVerifierTest, RejectsDroppedJoinKey) {
  JoinSpec& spec = compiled_.mutable_joins(FirstJoin())[0];
  ASSERT_FALSE(spec.left_key_cols.empty());
  // Forgetting a key turns the join into a partial cross product.
  spec.left_key_cols = spec.left_key_cols.first(spec.left_key_cols.size() - 1);
  spec.right_key_cols =
      spec.right_key_cols.first(spec.right_key_cols.size() - 1);
  EXPECT_FALSE(VerifyPhysicalPlan(query_, plan_, db_, compiled_).ok());
}

TEST_F(PhysicalVerifierTest, RejectsMismatchedKeyMapLengths) {
  JoinSpec& spec = compiled_.mutable_joins(FirstJoin())[0];
  std::vector<int> keys(spec.right_key_cols.begin(),
                        spec.right_key_cols.end());
  keys.push_back(0);
  spec.right_key_cols = keys;
  EXPECT_FALSE(VerifyPhysicalPlan(query_, plan_, db_, compiled_).ok());
}

TEST_F(PhysicalVerifierTest, RejectsMaskOutOfBounds) {
  ProjectSpec& spec = compiled_.mutable_node(FirstProjection()).project;
  std::vector<int> cols(spec.cols.begin(), spec.cols.end());
  ASSERT_FALSE(cols.empty());
  cols[0] = 99;
  spec.cols = cols;
  Status s = VerifyPhysicalPlan(query_, plan_, db_, compiled_);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("out of bounds"), std::string::npos)
      << s.ToString();
}

TEST_F(PhysicalVerifierTest, RejectsMaskSchemaMismatch) {
  ProjectSpec& spec = compiled_.mutable_node(FirstProjection()).project;
  // Keep the mask in bounds but break its attribute correspondence.
  const std::vector<AttrId> attrs = {41};
  spec.out_attrs = attrs;
  EXPECT_FALSE(VerifyPhysicalPlan(query_, plan_, db_, compiled_).ok());
}

TEST_F(PhysicalVerifierTest, RejectsDroppedProjection) {
  compiled_.mutable_node(FirstProjection()).has_project = false;
  EXPECT_FALSE(VerifyPhysicalPlan(query_, plan_, db_, compiled_).ok());
}

// A child id off its pre-order index would make the walker run another
// subtree in its place.
TEST_F(PhysicalVerifierTest, RejectsChildOffPreOrder) {
  PhysicalNode& node = compiled_.mutable_node(FirstJoin());
  std::vector<int32_t> children(node.children.begin(), node.children.end());
  std::swap(children.front(), children.back());
  node.children = children;
  Status s = VerifyPhysicalPlan(query_, plan_, db_, compiled_);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("pre-order"), std::string::npos) << s.ToString();
}

TEST_F(PhysicalVerifierTest, RejectsDistinctFlagsTheLabelsDoNotImply) {
  PhysicalNode* leaf = &compiled_.mutable_node(FirstLeaf());
  ASSERT_FALSE(leaf->distinct);
  leaf->distinct = true;
  Status s = VerifyPhysicalPlan(query_, plan_, db_, compiled_);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("marked distinct"), std::string::npos)
      << s.ToString();
  leaf->distinct = false;

  PhysicalNode* projecting = &compiled_.mutable_node(FirstProjection());
  ASSERT_TRUE(projecting->distinct);
  projecting->distinct = false;
  EXPECT_FALSE(VerifyPhysicalPlan(query_, plan_, db_, compiled_).ok());
}

TEST_F(PhysicalVerifierTest, RejectsForeignStoredRelation) {
  db_.Put("other", ColoringEdgeRelation(3));
  compiled_.mutable_node(FirstLeaf()).stored = *db_.Get("other");
  Status s = VerifyPhysicalPlan(query_, plan_, db_, compiled_);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("catalog"), std::string::npos) << s.ToString();
}

TEST(WidthAnalyzerTest, PredictionMatchesExecutedArity) {
  Database db = ThreeColorDb();
  Rng rng(11);
  for (int n : {6, 8, 10, 12}) {
    ConjunctiveQuery q = KColorQuery(ConnectedRandomGraph(n, n + 5, rng));
    for (StrategyKind kind : AllStrategies()) {
      Plan plan = BuildStrategyPlan(kind, q, 5);
      StaticAnalysis analysis = AnalyzePlan(q, plan, db);
      ASSERT_TRUE(analysis.status.ok());
      ExecutionResult run = ExecutePlan(q, plan, db);
      ASSERT_TRUE(run.status.ok());
      EXPECT_EQ(analysis.max_intermediate_arity,
                run.stats.max_intermediate_arity)
          << StrategyName(kind) << " on n=" << n;
      EXPECT_EQ(analysis.max_intermediate_arity, plan.Width());
      // Size bounds are sound.
      EXPECT_LE(static_cast<double>(run.stats.max_intermediate_rows),
                analysis.max_intermediate_rows_bound);
      EXPECT_LE(static_cast<double>(run.stats.tuples_produced),
                analysis.tuples_produced_bound);
    }
  }
}

TEST(WidthAnalyzerTest, PredictionMatchesOnSatQueries) {
  Database db;
  AddSatRelations(3, &db);
  Rng rng(23);
  for (int trial = 0; trial < 6; ++trial) {
    Cnf cnf = RandomKSat(8, 12, 3, rng);
    ConjunctiveQuery q = trial % 2 == 0
                             ? SatQuery(cnf)
                             : SatQueryNonBoolean(cnf, 0.2, rng);
    for (StrategyKind kind : AllStrategies()) {
      Plan plan = BuildStrategyPlan(kind, q, trial);
      StaticAnalysis analysis = AnalyzePlan(q, plan, db);
      ASSERT_TRUE(analysis.status.ok());
      ExecutionResult run = ExecutePlan(q, plan, db);
      ASSERT_TRUE(run.status.ok());
      EXPECT_EQ(analysis.max_intermediate_arity,
                run.stats.max_intermediate_arity)
          << StrategyName(kind) << " trial " << trial;
      EXPECT_LE(static_cast<double>(run.stats.max_intermediate_rows),
                analysis.max_intermediate_rows_bound);
      EXPECT_LE(static_cast<double>(run.stats.tuples_produced),
                analysis.tuples_produced_bound);
    }
  }
}

TEST(WidthAnalyzerTest, SufficientBudgetNeverExhausts) {
  // tuples_produced_bound is a static sufficient budget: running with a
  // budget above it must not time out.
  Database db = ThreeColorDb();
  ConjunctiveQuery q = KColorQuery(Ladder(4));
  Plan plan = StraightforwardPlan(q);
  StaticAnalysis analysis = AnalyzePlan(q, plan, db);
  ASSERT_TRUE(analysis.status.ok());
  ASSERT_LT(analysis.tuples_produced_bound, 1e15);
  const Counter budget =
      static_cast<Counter>(analysis.tuples_produced_bound) + 1;
  EXPECT_TRUE(ExecutePlan(q, plan, db, budget).status.ok());
}

TEST(WidthAnalyzerTest, CrossCheckAcceptsStrategiesAndTracksTheory) {
  Database db = ThreeColorDb();
  Rng rng(3);
  ConjunctiveQuery q = KColorQuery(ConnectedRandomGraph(9, 14, rng));
  for (StrategyKind kind : AllStrategies()) {
    Plan plan = BuildStrategyPlan(kind, q, 1);
    EXPECT_TRUE(CrossCheckWidth(q, plan, AnalyzePlan(q, plan, db)).ok())
        << StrategyName(kind);
  }
}

TEST(WidthAnalyzerTest, WidthGuaranteeFromDecomposition) {
  // Lemma 3: a plan built from a decomposition of width k has join width
  // <= k + 1, and the cross-check proves the analyzer's max arity equals
  // that join width.
  Database db = ThreeColorDb();
  Rng rng(17);
  ConjunctiveQuery q = KColorQuery(ConnectedRandomGraph(10, 16, rng));
  const Graph join_graph = BuildJoinGraph(q);
  EliminationOrder order = McsEliminationOrder(join_graph, {}, nullptr);
  Plan plan = TreewidthPlan(q, order);
  const int k = InducedWidth(join_graph, order);
  EXPECT_LE(plan.Width(), k + 1);
  const StaticAnalysis analysis = AnalyzePlan(q, plan, db);
  EXPECT_TRUE(CrossCheckWidth(q, plan, analysis).ok());
  EXPECT_EQ(analysis.max_intermediate_arity, plan.Width());
}

// An analysis that does not match the plan is refuted, and a failed one
// is passed on.
TEST(WidthAnalyzerTest, CrossCheckRejectsAWrongAnalysis) {
  Database db = ThreeColorDb();
  ConjunctiveQuery q = PentagonQuery();
  Plan plan = BucketEliminationPlanMcs(q, nullptr);
  StaticAnalysis analysis = AnalyzePlan(q, plan, db);
  ASSERT_TRUE(CrossCheckWidth(q, plan, analysis).ok());
  analysis.max_intermediate_arity = 1;
  Status s = CrossCheckWidth(q, plan, analysis);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("plan join width"), std::string::npos)
      << s.ToString();

  const StaticAnalysis failed = AnalyzePlan(q, plan, Database());
  ASSERT_FALSE(failed.status.ok());
  EXPECT_EQ(CrossCheckWidth(q, plan, failed).ToString(),
            failed.status.ToString());
}

// per_op carries each operator's node, and per_node folds it onto the
// plan's pre-order nodes: each node's bounds are the max over its
// operators, and a leaf's scan or a node's last fold join emits the
// node's working label, so that is its arity bound.
TEST(WidthAnalyzerTest, PerNodeBoundsFoldPerOpBounds) {
  Database db = ThreeColorDb();
  ConjunctiveQuery q = KColorQuery(AugmentedLadder(4));
  for (StrategyKind kind : AllStrategies()) {
    SCOPED_TRACE(StrategyName(kind));
    const Plan plan = BuildStrategyPlan(kind, q, 1);
    const StaticAnalysis analysis = AnalyzePlan(q, plan, db);
    ASSERT_TRUE(analysis.status.ok());
    const std::vector<const PlanNode*> nodes = PreOrderNodes(plan);
    ASSERT_EQ(analysis.per_node.size(), nodes.size());
    std::vector<PlanNodeBound> folded(nodes.size());
    for (const OpBound& op : analysis.per_op) {
      ASSERT_GE(op.node_id, 0);
      ASSERT_LT(static_cast<size_t>(op.node_id), folded.size());
      PlanNodeBound& node = folded[static_cast<size_t>(op.node_id)];
      node.arity_bound = std::max(node.arity_bound, op.arity);
      node.rows_bound = std::max(node.rows_bound, op.size_bound);
    }
    for (size_t i = 0; i < nodes.size(); ++i) {
      const PlanNodeBound& bound = analysis.per_node[i];
      EXPECT_EQ(bound.arity_bound, folded[i].arity_bound) << "node " << i;
      EXPECT_EQ(bound.rows_bound, folded[i].rows_bound) << "node " << i;
      if (nodes[i]->children.size() != 1) {
        EXPECT_EQ(bound.arity_bound,
                  static_cast<int>(nodes[i]->working.size()))
            << "node " << i;
      }
    }
    EXPECT_EQ(analysis.per_op.back().node_id, 0);
  }
}

// The size bounds read each stored relation's row count,
// duplicate-freeness and per-column distinct counts. Pinned here for
// queries whose atoms share relations: a 3-COLOR query whose 25 atoms
// all name `edge`, and a query mixing `edge` with a 3-row `pair` that
// holds a duplicate row, named twice (once with a repeated attribute).
TEST(WidthAnalyzerTest, BoundsArePinnedWhenAtomsShareARelation) {
  Database db = ThreeColorDb();
  db.Put("pair", Relation{Schema({0, 1}), {{1, 1}, {1, 2}, {1, 1}}});
  const ConjunctiveQuery coloring = KColorQuery(AugmentedLadder(3));
  const ConjunctiveQuery mixed(
      {Atom{"edge", {0, 1}}, Atom{"pair", {1, 2}}, Atom{"edge", {2, 3}},
       Atom{"pair", {3, 3}}, Atom{"edge", {3, 0}}},
      {0, 2});
  struct Pinned {
    const ConjunctiveQuery* query;
    StrategyKind kind;
    double tuples_produced_bound;
    std::vector<std::pair<int, double>> per_node;  // (arity, rows) bounds
  };
  const std::vector<Pinned> pinned = {
      {&coloring, StrategyKind::kStraightforward, 857007,
       {{1, 3},      {12, 531441}, {11, 177147}, {10, 59049}, {10, 59049},
        {9, 19683},  {8, 6561},    {7, 2187},    {6, 729},    {6, 729},
        {5, 243},    {4, 81},      {3, 27},      {2, 6},      {2, 6},
        {2, 6},      {2, 6},       {2, 6},       {2, 6},      {2, 6},
        {2, 6},      {2, 6},       {2, 6},       {2, 6},      {2, 6},
        {2, 6}}},
      {&coloring, StrategyKind::kBucketElimination, 351,
       {{1, 3},  {1, 3}, {2, 6}, {2, 6},  {2, 6}, {3, 27}, {2, 6},
        {1, 3},  {2, 6}, {3, 27}, {2, 6}, {2, 6}, {1, 3},  {2, 6},
        {3, 27}, {2, 6}, {1, 3}, {2, 6},  {3, 27}, {2, 6}, {2, 6},
        {1, 3},  {2, 6}, {1, 3}, {2, 6}}},
      {&mixed, StrategyKind::kStraightforward, 263,
       {{2, 6}, {4, 162}, {4, 54}, {4, 18}, {3, 9}, {2, 3}, {2, 3}, {2, 2},
        {1, 3}, {2, 3}}},
      {&mixed, StrategyKind::kBucketElimination, 65,
       {{2, 6}, {3, 9}, {2, 3}, {2, 3}, {3, 18}, {2, 2}, {1, 3}, {2, 3}}},
  };
  for (const Pinned& p : pinned) {
    SCOPED_TRACE(std::string(p.query == &coloring ? "coloring " : "mixed ") +
                 StrategyName(p.kind));
    const StaticAnalysis analysis =
        AnalyzePlan(*p.query, BuildStrategyPlan(p.kind, *p.query, 1), db);
    ASSERT_TRUE(analysis.status.ok());
    EXPECT_EQ(analysis.tuples_produced_bound, p.tuples_produced_bound);
    ASSERT_EQ(analysis.per_node.size(), p.per_node.size());
    for (size_t i = 0; i < p.per_node.size(); ++i) {
      EXPECT_EQ(analysis.per_node[i].arity_bound, p.per_node[i].first)
          << "node " << i;
      EXPECT_EQ(analysis.per_node[i].rows_bound, p.per_node[i].second)
          << "node " << i;
    }
  }
}

// Turns the structural gate on for one test and always restores the
// default, so no test leaks the process-wide gate.
class CompileVerifiedTest : public ::testing::Test {
 protected:
  void SetUp() override { EnablePlanVerification(true); }
  void TearDown() override { EnablePlanVerification(false); }
};

TEST_F(CompileVerifiedTest, RejectsCorruptPlansWhenGated) {
  Database db = ThreeColorDb();
  ConjunctiveQuery q = PathQuery();
  Plan corrupt = PathPlan();
  corrupt.mutable_root()->projected = {0, 1};  // root != target schema

  // Unverified, the compiler happily lowers the corrupt tree.
  EXPECT_TRUE(PhysicalPlan::Compile(q, corrupt, db).ok());

  VerifierReport report;
  EXPECT_FALSE(
      CompileVerified(q, corrupt, db, AnalyzePlan(q, corrupt, db), &report)
          .ok());
  EXPECT_FALSE(report.structural.empty());
  EXPECT_NE(report.structural, "OK");
  // Valid plans still compile and execute.
  Plan plan = PathPlan();
  Result<PhysicalPlan> compiled =
      CompileVerified(q, plan, db, AnalyzePlan(q, plan, db), &report);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(report.structural, "OK");
  EXPECT_TRUE(ExecuteCompiled(*compiled).status.ok());

  // The gate decides: off, the corrupt tree is lowered.
  EnablePlanVerification(false);
  VerifierReport ungated;
  EXPECT_TRUE(
      CompileVerified(q, corrupt, db, AnalyzePlan(q, corrupt, db), &ungated)
          .ok());
  EXPECT_TRUE(ungated.structural.empty());
}

// The structural tier cross-checks the analysis it is handed against the
// plan, not one it computes itself: an analysis whose widest arity
// disagrees with the plan's join width is rejected, and a failed one is
// passed on.
TEST_F(CompileVerifiedTest, ChecksTheAnalysisItIsGiven) {
  Database db = ThreeColorDb();
  ConjunctiveQuery q = PentagonQuery();
  Plan plan = BucketEliminationPlanMcs(q, nullptr);
  StaticAnalysis analysis = AnalyzePlan(q, plan, db);
  ASSERT_TRUE(CompileVerified(q, plan, db, analysis).ok());

  analysis.max_intermediate_arity = plan.Width() + 1;
  VerifierReport report;
  Result<PhysicalPlan> rejected =
      CompileVerified(q, plan, db, analysis, &report);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("plan join width"),
            std::string::npos)
      << rejected.status().ToString();
  EXPECT_EQ(report.structural, rejected.status().ToString());

  StaticAnalysis failed;
  failed.status = Status::Internal("seeded analysis failure");
  Result<PhysicalPlan> passed_on = CompileVerified(q, plan, db, failed);
  ASSERT_FALSE(passed_on.ok());
  EXPECT_EQ(passed_on.status().ToString(), failed.status.ToString());

  // Ungated, nothing reads the analysis.
  EnablePlanVerification(false);
  EXPECT_TRUE(CompileVerified(q, plan, db, analysis).ok());
}

TEST_F(CompileVerifiedTest, ExplainSurfacesVerdict) {
  Database db = ThreeColorDb();
  ConjunctiveQuery q = PentagonQuery();
  ExplainResult good = ExplainPlan(q, BucketEliminationPlanMcs(q, nullptr),
                                   db, 3.0);
  ASSERT_TRUE(good.status.ok());
  EXPECT_EQ(good.verifier_verdict, "OK");
  EXPECT_NE(good.ToString().find("verifier: OK"), std::string::npos);

  Plan corrupt = StraightforwardPlan(q);
  corrupt.mutable_root()->working.push_back(40);  // unbound attribute
  ExplainResult bad = ExplainPlan(q, corrupt, db, 3.0);
  EXPECT_FALSE(bad.status.ok());
  EXPECT_NE(bad.verifier_verdict, "OK");
  EXPECT_FALSE(bad.verifier_verdict.empty());
  EXPECT_TRUE(bad.nodes.empty());  // rejected plans are never executed
}

TEST(PeakBytesRegressionTest, EmptyDatabaseReportsZeroPeakBytes) {
  // Regression: scans and projections used to charge their fixed arena
  // scratch (key/tuple buffers) even when the input was empty, so a run
  // against an empty database reported a small nonzero peak_bytes.
  Database db;
  db.Put("edge", Relation{Schema({0, 1})});  // present but empty
  ConjunctiveQuery q = PentagonQuery();
  for (StrategyKind kind : AllStrategies()) {
    Plan plan = BuildStrategyPlan(kind, q, 1);
    Result<PhysicalPlan> compiled = PhysicalPlan::Compile(q, plan, db);
    ASSERT_TRUE(compiled.ok());
    ExecArena arena;
    ExecutionResult run = compiled->ExecuteShared(&arena);
    ASSERT_TRUE(run.status.ok());
    EXPECT_TRUE(run.output.empty());
    EXPECT_EQ(run.stats.peak_bytes, 0) << StrategyName(kind);
    // Still zero on re-execution of the compiled plan in the same arena
    // (no stale arena high-water mark leaking through).
    EXPECT_EQ(compiled->ExecuteShared(&arena).stats.peak_bytes, 0)
        << StrategyName(kind);
  }
  ExplainResult explain = ExplainPlan(q, StraightforwardPlan(q), db, 3.0);
  ASSERT_TRUE(explain.status.ok());
  EXPECT_EQ(explain.stats.peak_bytes, 0);
  EXPECT_NE(explain.ToString().find("peak_bytes=0"), std::string::npos);
}

}  // namespace
}  // namespace ppr
