// Semantic translation validation (analysis/semantic/): plan→query
// extraction, Chandra–Merlin certification of logical and compiled
// plans, and the PPR_VERIFY_SEMANTICS verifier tier.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/explain.h"
#include "analysis/semantic/certify.h"
#include "analysis/semantic/extract.h"
#include "analysis/verifier.h"
#include "analysis/width_analyzer.h"
#include "benchlib/harness.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "core/strategies.h"
#include "encode/kcolor.h"
#include "encode/sat.h"
#include "exec/physical_plan.h"
#include "graph/generators.h"
#include "minimize/minimize.h"
#include "obs/metrics.h"
#include "obs/obs_lock.h"
#include "test_util.h"

namespace ppr {
namespace {

/// Turns the semantic tier's gate on, and restores the disabled default on
/// scope exit so the process-wide gate never leaks between tests.
struct ScopedSemanticVerifier {
  ScopedSemanticVerifier() { EnableSemanticVerification(true); }
  ~ScopedSemanticVerifier() { EnableSemanticVerification(false); }
};

template <typename... Nodes>
std::vector<std::unique_ptr<PlanNode>> MakeChildren(Nodes... nodes) {
  std::vector<std::unique_ptr<PlanNode>> out;
  (out.push_back(std::move(nodes)), ...);
  return out;
}

ConjunctiveQuery PathQuery() {
  // pi_{x0,x2} r(x0,x1), r(x1,x2)
  return ConjunctiveQuery({Atom{"r", {0, 1}}, Atom{"r", {1, 2}}}, {0, 2});
}

Database PathDatabase() {
  Database db;
  Relation r{Schema({0, 1})};
  r.AddTuple({1, 2});
  r.AddTuple({2, 3});
  db.Put("r", std::move(r));
  return db;
}

// ---------------------------------------------------------------------
// Extraction.

TEST(ExtractTest, StraightforwardPlanExtractsOriginalQuery) {
  ConjunctiveQuery q = PathQuery();
  Plan plan = StraightforwardPlan(q);
  Result<ExtractedQuery> extracted = ExtractQuery(q, plan);
  ASSERT_TRUE(extracted.ok());
  EXPECT_EQ(extracted->split_vars, 0);
  EXPECT_TRUE(*AreEquivalent(q, extracted->query));
}

TEST(ExtractTest, AllStrategiesExtractEquivalentQueries) {
  Rng rng(11);
  Graph g = ConnectedRandomGraph(6, 9, rng);
  ConjunctiveQuery q = KColorQuery(g);
  for (StrategyKind kind : AllStrategies()) {
    Plan plan = BuildStrategyPlan(kind, q, 7);
    Result<ExtractedQuery> extracted = ExtractQuery(q, plan);
    ASSERT_TRUE(extracted.ok()) << StrategyName(kind);
    EXPECT_EQ(extracted->split_vars, 0) << StrategyName(kind);
    EXPECT_TRUE(*AreEquivalent(q, extracted->query)) << StrategyName(kind);
  }
}

TEST(ExtractTest, PrematureProjectionSplitsTheVariable) {
  // Drop x1 from the r(x0,x1) leaf before it can join with r(x1,x2):
  // the denoted query degenerates to a cross product over split copies
  // of x1.
  ConjunctiveQuery q = PathQuery();
  auto left = MakeJoin(MakeChildren(MakeLeaf(q, 0)), {0});
  auto root = MakeJoin(MakeChildren(std::move(left), MakeLeaf(q, 1)), {0, 2});
  Plan plan(std::move(root));
  Result<ExtractedQuery> extracted = ExtractQuery(q, plan);
  ASSERT_TRUE(extracted.ok());
  EXPECT_GE(extracted->split_vars, 1);
  EXPECT_FALSE(*AreEquivalent(q, extracted->query));
}

TEST(ExtractTest, OutOfRangeLeafIsAnError) {
  ConjunctiveQuery q = PathQuery();
  Plan plan = StraightforwardPlan(q);
  PlanNode* leaf = plan.mutable_root();
  while (!leaf->IsLeaf()) leaf = leaf->children[0].get();
  leaf->atom_index = 99;
  Result<ExtractedQuery> extracted = ExtractQuery(q, plan);
  ASSERT_FALSE(extracted.ok());
  EXPECT_NE(extracted.status().message().find("atom 99"), std::string::npos);
}

TEST(ExtractTest, CompiledPlanExtractsOriginalQuery) {
  ConjunctiveQuery q = PathQuery();
  Database db = PathDatabase();
  for (StrategyKind kind : AllStrategies()) {
    Plan plan = BuildStrategyPlan(kind, q, 3);
    Result<PhysicalPlan> compiled = PhysicalPlan::Compile(q, plan, db);
    ASSERT_TRUE(compiled.ok()) << StrategyName(kind);
    Result<ExtractedQuery> extracted = ExtractCompiledQuery(db, *compiled);
    ASSERT_TRUE(extracted.ok()) << StrategyName(kind);
    EXPECT_EQ(extracted->split_vars, 0) << StrategyName(kind);
    EXPECT_TRUE(*AreEquivalent(q, extracted->query)) << StrategyName(kind);
  }
}

TEST(ExtractTest, CompiledExtractionRestoresRepeatedAttributes) {
  // r(x0,x0),s(x0,x1): the scan stores the repeat as an equality check;
  // extraction must put the attribute back in both argument positions.
  ConjunctiveQuery q({Atom{"r", {0, 0}}, Atom{"s", {0, 1}}}, {1});
  Database db;
  Relation r{Schema({0, 1})};
  r.AddTuple({5, 5});
  db.Put("r", std::move(r));
  Relation s{Schema({0, 1})};
  s.AddTuple({5, 6});
  db.Put("s", std::move(s));
  Plan plan = EarlyProjectionPlan(q);
  Result<PhysicalPlan> compiled = PhysicalPlan::Compile(q, plan, db);
  ASSERT_TRUE(compiled.ok());
  Result<ExtractedQuery> extracted = ExtractCompiledQuery(db, *compiled);
  ASSERT_TRUE(extracted.ok());
  EXPECT_TRUE(*AreEquivalent(q, extracted->query));
}

// ---------------------------------------------------------------------
// Certification.

TEST(CertifyTest, CertifiesAllStrategiesOnColoringAndSat) {
  Rng rng(21);
  {
    Graph g = ConnectedRandomGraph(6, 8, rng);
    ConjunctiveQuery q = KColorQuery(g);
    for (StrategyKind kind : AllStrategies()) {
      Plan plan = BuildStrategyPlan(kind, q, 13);
      CertificationReport report = CertifyPlan(q, plan);
      EXPECT_TRUE(report.ok()) << StrategyName(kind) << ": "
                               << report.verdict.message();
      EXPECT_EQ(report.split_vars, 0);
    }
  }
  {
    const Cnf cnf = RandomKSat(6, 8, 3, rng);
    ConjunctiveQuery q = SatQuery(cnf);
    for (StrategyKind kind : AllStrategies()) {
      Plan plan = BuildStrategyPlan(kind, q, 13);
      CertificationReport report = CertifyPlan(q, plan);
      EXPECT_TRUE(report.ok()) << StrategyName(kind) << ": "
                               << report.verdict.message();
    }
  }
}

TEST(CertifyTest, RejectsPlanDenotingADifferentQuery) {
  // A structurally immaculate plan for q', certified against q: the
  // wrong-plan-for-the-query scenario (e.g. a cache handing back a plan
  // compiled for another query) that structural verification cannot see.
  ConjunctiveQuery q = PathQuery();
  ConjunctiveQuery q_prime({Atom{"r", {0, 1}}, Atom{"r", {0, 2}}}, {0, 2});
  Plan plan = EarlyProjectionPlan(q_prime);
  CertificationReport report = CertifyPlan(q, plan);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.verdict.message().find("semantic certification failed"),
            std::string::npos)
      << report.verdict.message();
}

TEST(CertifyTest, FailureMessageNamesSplitVariables) {
  ConjunctiveQuery q = PathQuery();
  auto left = MakeJoin(MakeChildren(MakeLeaf(q, 0)), {0});
  auto root = MakeJoin(MakeChildren(std::move(left), MakeLeaf(q, 1)), {0, 2});
  Plan plan(std::move(root));
  CertificationReport report = CertifyPlan(q, plan);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.verdict.message().find("split"), std::string::npos)
      << report.verdict.message();
}

TEST(CertifyTest, BooleanQueryCertifies) {
  Rng rng(31);
  Graph g = ConnectedRandomGraph(5, 6, rng);
  ConjunctiveQuery q = KColorQuery(g);
  q.SetFreeVars({});  // Boolean: is the graph 3-colorable at all?
  for (StrategyKind kind : AllStrategies()) {
    Plan plan = BuildStrategyPlan(kind, q, 5);
    CertificationReport report = CertifyPlan(q, plan);
    EXPECT_TRUE(report.ok()) << StrategyName(kind) << ": "
                             << report.verdict.message();
  }
}

TEST(CertifyTest, WrongHeadIsRejectedWithVariableNames) {
  // The root projects x1 instead of x2: extraction succeeds (the plan is
  // a fine plan — for another head) and the equivalence check must name
  // the offending variables via the containment error.
  ConjunctiveQuery q = PathQuery();
  Plan plan = StraightforwardPlan(q);
  PlanNode* root = plan.mutable_root();
  root->projected = {0, 1};
  CertificationReport report = CertifyPlan(q, plan);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.verdict.message().find("x1"), std::string::npos)
      << report.verdict.message();
  EXPECT_NE(report.verdict.message().find("x2"), std::string::npos)
      << report.verdict.message();
}

TEST(CertifyTest, PublishesAnalysisMetrics) {
  MetricsSnapshot before;
  {
    MutexLock lock(GlobalObsMutex());
    before = GlobalMetrics().Snapshot();
  }
  ConjunctiveQuery q = PathQuery();
  Plan good = EarlyProjectionPlan(q);
  EXPECT_TRUE(CertifyPlan(q, good).ok());
  Plan bad = StraightforwardPlan(q);
  bad.mutable_root()->projected = {0, 1};
  EXPECT_FALSE(CertifyPlan(q, bad).ok());

  MetricsSnapshot after;
  {
    MutexLock lock(GlobalObsMutex());
    after = GlobalMetrics().Snapshot();
  }
  MetricsSnapshot delta = DeltaSince(before, after);
  EXPECT_EQ(delta.counter("analysis.semantic.certifications"), 2);
  EXPECT_EQ(delta.counter("analysis.semantic.failures"), 1);
  const Log2Histogram* wall = delta.histogram("analysis.semantic.wall_ns");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->count, 2u);
}

// ---------------------------------------------------------------------
// The verifier tier: gating, compile/explain integration.

TEST(SemanticTierTest, CompileRunsTheSemanticTier) {
  ScopedSemanticVerifier scoped;
  ConjunctiveQuery q = PathQuery();
  Database db = PathDatabase();
  Plan good = EarlyProjectionPlan(q);
  VerifierReport report;
  Result<PhysicalPlan> compiled =
      CompileVerified(q, good, db, AnalyzePlan(q, good, db), &report);
  EXPECT_TRUE(compiled.ok()) << compiled.status().message();
  EXPECT_EQ(report.semantic, "OK");
  EXPECT_GE(report.semantic_ns, 0);

  // A structurally valid plan for the wrong query must fail compilation
  // with a semantic (not structural) error — and only while the gate is
  // on.
  ConjunctiveQuery q_prime({Atom{"r", {0, 1}}, Atom{"r", {0, 2}}}, {0, 2});
  Plan wrong = EarlyProjectionPlan(q_prime);
  const StaticAnalysis analysis = AnalyzePlan(q, wrong, db);
  Result<PhysicalPlan> rejected = CompileVerified(q, wrong, db, analysis);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("semantic certification failed"),
            std::string::npos)
      << rejected.status().message();

  EnableSemanticVerification(false);
  Result<PhysicalPlan> ungated = CompileVerified(q, wrong, db, analysis);
  EXPECT_TRUE(ungated.ok());
}

TEST(SemanticTierTest, ExplainReportsVerdictAndCost) {
  ScopedSemanticVerifier scoped;
  ConjunctiveQuery q = PathQuery();
  Database db = PathDatabase();
  Plan plan = EarlyProjectionPlan(q);
  ExplainResult r = ExplainPlan(q, plan, db, /*domain_size=*/4.0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.semantic_verdict, "OK");
  EXPECT_GE(r.semantic_ns, 0);
  EXPECT_NE(r.ToString().find("semantics: OK ("), std::string::npos)
      << r.ToString();
}

TEST(SemanticTierTest, ReentrantCertificationTerminates) {
  // The equivalence proof executes plans over canonical databases through
  // ExecutePlan, which compiles without verifying, so a certification
  // with the gate on never certifies its own inner runs. Success is the
  // regression signal: a verified inner compile would recurse without
  // bound.
  ScopedSemanticVerifier scoped;
  ConjunctiveQuery q = PathQuery();
  CertificationReport report = CertifyPlan(q, EarlyProjectionPlan(q));
  EXPECT_TRUE(report.ok()) << report.verdict.message();
}

}  // namespace
}  // namespace ppr
