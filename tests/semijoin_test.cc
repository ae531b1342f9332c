#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/mutex.h"
#include "common/rng.h"
#include "core/strategies.h"
#include "encode/kcolor.h"
#include "exec/executor.h"
#include "exec/semijoin_pass.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"

namespace ppr {
namespace {

Database ThreeColorDb() {
  Database db;
  AddColoringRelations(3, &db);
  return db;
}

TEST(SemijoinPassTest, UselessOnColoringQueries) {
  // Section 2's observation: "Projecting out a column from our relation
  // yields a relation with all possible tuples. Thus, in our setting,
  // semijoins ... are useless."
  Database db = ThreeColorDb();
  for (int order : {3, 5, 8}) {
    ConjunctiveQuery q = KColorQuery(AugmentedLadder(order));
    SemijoinPassResult result = SemijoinReduce(q, db);
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.tuples_removed, 0) << "order " << order;
    EXPECT_FALSE(result.proven_empty);
    EXPECT_GT(result.semijoins_performed, 0);
  }
}

TEST(SemijoinPassTest, SelectiveRelationPropagates) {
  // Add a unary "pin" relation fixing one vertex's color: semijoins now
  // shrink the neighboring edge atoms.
  Database db = ThreeColorDb();
  db.Put("pin", Relation{Schema({0}), {{1}}});  // vertex must take color 1

  ConjunctiveQuery q(
      {Atom{"pin", {0}}, Atom{"edge", {0, 1}}, Atom{"edge", {1, 2}}}, {2});
  SemijoinPassResult result = SemijoinReduce(q, db);
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(result.tuples_removed, 0);
  // edge(0,1) keeps only tuples with first column = 1: 2 of 6.
  const Relation* reduced = *result.db.Get("atom1");
  EXPECT_EQ(reduced->size(), 2);
}

TEST(SemijoinPassTest, ReducedQueryComputesSameAnswer) {
  Database db = ThreeColorDb();
  db.Put("pin", Relation{Schema({0}), {{2}}});
  Rng rng(3);
  Graph g = ConnectedRandomGraph(8, 14, rng);
  ConjunctiveQuery coloring = KColorQuery(g);
  ConjunctiveQuery q({Atom{"pin", {0}}}, {});
  for (const Atom& atom : coloring.atoms()) q.AddAtom(atom);
  q.SetFreeVars({0, 1});

  ExecutionResult reference = ExecuteStraightforward(q, db);
  ASSERT_TRUE(reference.status.ok());

  SemijoinPassResult pass = SemijoinReduce(q, db);
  ASSERT_TRUE(pass.status.ok());
  ExecutionResult reduced = ExecutePlan(
      pass.query, BucketEliminationPlanMcs(pass.query, nullptr), pass.db);
  ASSERT_TRUE(reduced.status.ok());
  EXPECT_TRUE(reduced.output.SetEquals(reference.output));
}

TEST(SemijoinPassTest, DetectsEmptyAnswer) {
  // Two pins forcing adjacent vertices to the same color: unsatisfiable,
  // and the semijoin fixpoint alone discovers it.
  Database db = ThreeColorDb();
  db.Put("pin1", Relation{Schema({0}), {{1}}});
  db.Put("pin2", Relation{Schema({0}), {{1}}});
  ConjunctiveQuery q(
      {Atom{"pin1", {0}}, Atom{"pin2", {1}}, Atom{"edge", {0, 1}}}, {0});
  SemijoinPassResult result = SemijoinReduce(q, db);
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.proven_empty);

  ExecutionResult run = ExecutePlan(
      result.query, StraightforwardPlan(result.query), result.db);
  ASSERT_TRUE(run.status.ok());
  EXPECT_FALSE(run.nonempty());
}

TEST(SemijoinPassTest, AcyclicQueryFullyReduced) {
  // On an acyclic (tree) query with a pin, the fixpoint is a full
  // reduction: every remaining tuple participates in some answer, so the
  // straightforward join over reduced relations never generates dangling
  // tuples — the output of each prefix join is bounded by the final
  // result times the domain. We verify answers match and reduction ran.
  Database db = ThreeColorDb();
  db.Put("pin", Relation{Schema({0}), {{3}}});
  ConjunctiveQuery q({Atom{"pin", {0}},
                      Atom{"edge", {0, 1}},
                      Atom{"edge", {1, 2}},
                      Atom{"edge", {1, 3}},
                      Atom{"edge", {3, 4}}},
                     {4});
  ExecutionResult reference = ExecuteStraightforward(q, db);
  SemijoinPassResult pass = SemijoinReduce(q, db);
  ASSERT_TRUE(pass.status.ok());
  EXPECT_GT(pass.tuples_removed, 0);
  ExecutionResult reduced = ExecutePlan(
      pass.query, StraightforwardPlan(pass.query), pass.db);
  ASSERT_TRUE(reduced.status.ok());
  EXPECT_TRUE(reduced.output.SetEquals(reference.output));
}

TEST(SemijoinPassTest, InvalidQueryReportsError) {
  Database db;
  ConjunctiveQuery q({Atom{"missing", {0, 1}}}, {0});
  SemijoinPassResult result = SemijoinReduce(q, db);
  EXPECT_FALSE(result.status.ok());
}

TEST(SemijoinPassTest, ReportedCountMatchesKernelSpansWhenTraced) {
  // semijoins_performed is taken from the kernel-side counter, so the
  // pass-level number, the exec.num_semijoins metric, and the recorded
  // kSemiJoin spans can never drift apart.
  Database db = ThreeColorDb();
  ConjunctiveQuery q = KColorQuery(AugmentedLadder(4));

  const std::string path =
      ::testing::TempDir() + "ppr_semijoin_trace.json";
  EnableTracing(path);
  uint64_t mark = 0;
  MetricsSnapshot before;
  {
    MutexLock lock(GlobalObsMutex());
    mark = GlobalTraceSink().total_recorded();
    before = GlobalMetrics().Snapshot();
  }

  SemijoinPassResult result = SemijoinReduce(q, db);
  ASSERT_TRUE(result.status.ok());

  Counter spans = 0;
  MetricsSnapshot after;
  {
    MutexLock lock(GlobalObsMutex());
    for (const TraceSpan& span : GlobalTraceSink().SnapshotSince(mark)) {
      if (span.op == TraceOp::kSemiJoin) ++spans;
    }
    after = GlobalMetrics().Snapshot();
  }
  const MetricsSnapshot delta = DeltaSince(before, after);
  DisableTracing();
  std::remove(path.c_str());
  std::remove((path + ".metrics.jsonl").c_str());

  EXPECT_GT(result.semijoins_performed, 0);
  EXPECT_EQ(result.semijoins_performed, spans);
  EXPECT_EQ(delta.counter("exec.num_semijoins"), result.semijoins_performed);
}

class SemijoinEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SemijoinEquivalenceTest, ReductionPreservesAnswersOnRandomQueries) {
  Rng rng(GetParam());
  Database db = ThreeColorDb();
  // Pin a random vertex to a random color so the pass has something to do.
  const int n = rng.NextInt(6, 10);
  Graph g = ConnectedRandomGraph(n, rng.NextInt(n, 2 * n), rng);
  db.Put("pin", Relation{Schema({0}), {{rng.NextInt(1, 3)}}});

  ConjunctiveQuery coloring = KColorQuery(g);
  ConjunctiveQuery q;
  q.AddAtom(Atom{"pin", {rng.NextInt(0, n - 1)}});
  for (const Atom& atom : coloring.atoms()) q.AddAtom(atom);
  q.SetFreeVars({0});

  ExecutionResult reference = ExecuteStraightforward(q, db);
  ASSERT_TRUE(reference.status.ok());
  SemijoinPassResult pass = SemijoinReduce(q, db);
  ASSERT_TRUE(pass.status.ok());
  ExecutionResult reduced = ExecutePlan(
      pass.query, BucketEliminationPlanMcs(pass.query, nullptr), pass.db);
  ASSERT_TRUE(reduced.status.ok());
  EXPECT_TRUE(reduced.output.SetEquals(reference.output));
  if (pass.proven_empty) {
    EXPECT_TRUE(reference.output.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemijoinEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 15));

}  // namespace
}  // namespace ppr
