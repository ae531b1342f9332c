// Tests for the physical execution layer: strategy answers against an
// independent bindings-based oracle, compile-once/execute-many reuse, and
// exact tuple-budget boundaries for both join algorithms.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "benchlib/harness.h"
#include "common/rng.h"
#include "core/plan.h"
#include "core/strategies.h"
#include "exec/executor.h"
#include "exec/physical_plan.h"
#include "query/conjunctive_query.h"

namespace ppr {
namespace {

Relation RandomRelation(std::vector<AttrId> attrs, int64_t rows, Value domain,
                        Rng& rng) {
  Relation rel{Schema(std::move(attrs))};
  std::vector<Value> tuple(static_cast<size_t>(rel.arity()));
  for (int64_t i = 0; i < rows; ++i) {
    for (auto& v : tuple) {
      v = static_cast<Value>(1 + rng.NextBounded(static_cast<uint64_t>(domain)));
    }
    rel.AddTuple(tuple);
  }
  return rel;
}

// Oracle: evaluates the query as a set of variable bindings, one atom at
// a time, with none of the engine's operators, schemas, or hash tables.
using Binding = std::map<AttrId, Value>;

std::vector<Binding> AtomBindings(const Relation& stored, const Atom& atom) {
  std::vector<Binding> out;
  for (int64_t i = 0; i < stored.size(); ++i) {
    Binding b;
    bool consistent = true;
    for (size_t c = 0; c < atom.args.size(); ++c) {
      const Value v = stored.at(i, static_cast<int>(c));
      auto [it, inserted] = b.emplace(atom.args[c], v);
      if (!inserted && it->second != v) {
        consistent = false;
        break;
      }
    }
    if (consistent) out.push_back(std::move(b));
  }
  return out;
}

Relation OracleAnswer(const ConjunctiveQuery& query, const Database& db) {
  std::vector<Binding> acc = {Binding{}};
  for (const Atom& atom : query.atoms()) {
    const std::vector<Binding> atom_b = AtomBindings(**db.Get(atom.relation), atom);
    std::vector<Binding> next;
    for (const Binding& a : acc) {
      for (const Binding& b : atom_b) {
        Binding merged = a;
        bool compatible = true;
        for (const auto& [attr, v] : b) {
          auto [it, inserted] = merged.emplace(attr, v);
          if (!inserted && it->second != v) {
            compatible = false;
            break;
          }
        }
        if (compatible) next.push_back(std::move(merged));
      }
    }
    acc = std::move(next);
  }
  std::set<std::vector<Value>> rows;
  for (const Binding& b : acc) {
    std::vector<Value> row;
    row.reserve(query.free_vars().size());
    for (AttrId a : query.free_vars()) row.push_back(b.at(a));
    rows.insert(std::move(row));
  }
  Relation out{Schema(query.free_vars())};
  for (const auto& row : rows) out.AddTuple(row);
  return out;
}

// A cycle query with a repeated-attribute atom riding along.
ConjunctiveQuery CycleQuery() {
  ConjunctiveQuery q({{"R0", {0, 1}},
                      {"R1", {1, 2}},
                      {"R2", {2, 3}},
                      {"R3", {3, 0}},
                      {"T", {1, 1}}},
                     {0, 2});
  return q;
}

Database CycleDb(uint64_t seed) {
  Rng rng(seed);
  Database db;
  db.Put("R0", RandomRelation({10, 11}, 40, 4, rng));
  db.Put("R1", RandomRelation({10, 11}, 40, 4, rng));
  db.Put("R2", RandomRelation({10, 11}, 40, 4, rng));
  db.Put("R3", RandomRelation({10, 11}, 40, 4, rng));
  db.Put("T", RandomRelation({10, 11}, 40, 4, rng));
  return db;
}

TEST(PhysicalPlanTest, AllStrategiesMatchOracle) {
  const Database db = CycleDb(7);
  const ConjunctiveQuery q = CycleQuery();
  const Relation oracle = OracleAnswer(q, db);
  for (StrategyKind kind : AllStrategies()) {
    const Plan plan = BuildStrategyPlan(kind, q, /*seed=*/5);
    const ExecutionResult r = ExecutePlan(q, plan, db);
    ASSERT_TRUE(r.status.ok()) << StrategyName(kind);
    EXPECT_TRUE(r.output.SetEquals(oracle)) << StrategyName(kind);
  }
}

TEST(PhysicalPlanTest, HashAndSortMergeAgreeOnAnswerAndStats) {
  const Database db = CycleDb(8);
  const ConjunctiveQuery q = CycleQuery();
  for (StrategyKind kind : AllStrategies()) {
    const Plan plan = BuildStrategyPlan(kind, q, /*seed=*/6);
    ExecutionOptions hash_opts, sm_opts;
    hash_opts.join_algorithm = JoinAlgorithm::kHash;
    sm_opts.join_algorithm = JoinAlgorithm::kSortMerge;
    const ExecutionResult h = ExecutePlanWithOptions(q, plan, db, hash_opts);
    const ExecutionResult s = ExecutePlanWithOptions(q, plan, db, sm_opts);
    ASSERT_TRUE(h.status.ok()) << StrategyName(kind);
    ASSERT_TRUE(s.status.ok()) << StrategyName(kind);
    EXPECT_TRUE(h.output.SetEquals(s.output)) << StrategyName(kind);
    EXPECT_EQ(h.stats.tuples_produced, s.stats.tuples_produced)
        << StrategyName(kind);
    EXPECT_EQ(h.stats.max_intermediate_arity, s.stats.max_intermediate_arity)
        << StrategyName(kind);
    EXPECT_EQ(h.stats.max_intermediate_rows, s.stats.max_intermediate_rows)
        << StrategyName(kind);
  }
}

TEST(PhysicalPlanTest, CompiledPlanIsReusableAcrossRuns) {
  const Database db = CycleDb(9);
  const ConjunctiveQuery q = CycleQuery();
  const Plan plan = BuildStrategyPlan(StrategyKind::kEarlyProjection, q, 3);
  Result<PhysicalPlan> compiled = PhysicalPlan::Compile(q, plan, db);
  ASSERT_TRUE(compiled.ok());

  const ExecutionResult first = compiled->Execute();
  ASSERT_TRUE(first.status.ok());
  // Repeated executions recycle the arena; results and stats must not
  // drift run over run.
  for (int i = 0; i < 3; ++i) {
    const ExecutionResult again = compiled->Execute();
    ASSERT_TRUE(again.status.ok());
    EXPECT_TRUE(again.output.SetEquals(first.output));
    EXPECT_EQ(again.stats.tuples_produced, first.stats.tuples_produced);
    EXPECT_EQ(again.stats.peak_bytes, first.stats.peak_bytes);
  }
  // A budgeted run on the same compiled plan, then an unbudgeted one:
  // truncation must not corrupt later executions.
  const ExecutionResult truncated =
      compiled->Execute(first.stats.tuples_produced - 1);
  EXPECT_EQ(truncated.status.code(), StatusCode::kResourceExhausted);
  const ExecutionResult after = compiled->Execute();
  ASSERT_TRUE(after.status.ok());
  EXPECT_TRUE(after.output.SetEquals(first.output));
}

// The budget is exact: a run producing exactly `tuple_budget` tuples is
// OK; one fewer unit of budget must report RESOURCE_EXHAUSTED.
void CheckBudgetBoundary(JoinAlgorithm algorithm) {
  const Database db = CycleDb(10);
  const ConjunctiveQuery q = CycleQuery();
  const Plan plan = BuildStrategyPlan(StrategyKind::kStraightforward, q, 4);

  ExecutionOptions opts;
  opts.join_algorithm = algorithm;
  const ExecutionResult unbudgeted = ExecutePlanWithOptions(q, plan, db, opts);
  ASSERT_TRUE(unbudgeted.status.ok());
  const Counter total = unbudgeted.stats.tuples_produced;
  ASSERT_GT(total, 1);

  opts.tuple_budget = total;
  const ExecutionResult exact = ExecutePlanWithOptions(q, plan, db, opts);
  EXPECT_TRUE(exact.status.ok());
  EXPECT_EQ(exact.stats.tuples_produced, total);
  EXPECT_TRUE(exact.output.SetEquals(unbudgeted.output));

  opts.tuple_budget = total - 1;
  const ExecutionResult over = ExecutePlanWithOptions(q, plan, db, opts);
  EXPECT_EQ(over.status.code(), StatusCode::kResourceExhausted);
}

TEST(PhysicalPlanTest, BudgetBoundaryIsExactWithHashJoins) {
  CheckBudgetBoundary(JoinAlgorithm::kHash);
}

TEST(PhysicalPlanTest, BudgetBoundaryIsExactWithSortMergeJoins) {
  CheckBudgetBoundary(JoinAlgorithm::kSortMerge);
}

TEST(PhysicalPlanTest, EmptyRelationGivesEmptyAnswer) {
  Rng rng(11);
  Database db;
  db.Put("R0", RandomRelation({10, 11}, 30, 3, rng));
  db.Put("R1", Relation{Schema({10, 11})});  // empty
  ConjunctiveQuery q({{"R0", {0, 1}}, {"R1", {1, 2}}}, {0});
  for (StrategyKind kind : AllStrategies()) {
    const Plan plan = BuildStrategyPlan(kind, q, 12);
    const ExecutionResult r = ExecutePlan(q, plan, db);
    ASSERT_TRUE(r.status.ok()) << StrategyName(kind);
    EXPECT_TRUE(r.output.empty()) << StrategyName(kind);
  }
}

// A projection keyed on a join input that holds duplicate rows would
// return each duplicate's keys again. A stored relation may hold
// duplicates, so a bare scan never keys a projection, whatever it keeps;
// a projecting child does.
TEST(PhysicalPlanTest, OnlyDistinctInputsKeyAProjection) {
  const AttrId x = 0, y = 1, z = 2, u = 3;
  Database db;
  Relation r{Schema({10, 11})};
  for (const auto& [a, b] : {std::pair{1, 1}, {1, 1}, {2, 1}, {2, 2}, {3, 2},
                             {3, 2}, {1, 3}}) {
    r.AddTuple({a, b});
  }
  Relation s{Schema({10, 11})};
  for (const auto& [a, b] : {std::pair{1, 7}, {1, 8}, {2, 7}}) {
    s.AddTuple({a, b});
  }
  Relation t{Schema({10, 11})};
  for (const auto& [a, b] : {std::pair{1, 5}, {1, 6}, {2, 5}, {3, 5}}) {
    t.AddTuple({a, b});
  }
  db.Put("R", std::move(r));
  db.Put("S", std::move(s));
  db.Put("T", std::move(t));
  const ConjunctiveQuery q({{"R", {x, y}}, {"S", {y, z}}, {"T", {y, u}}},
                           {x, y});
  const Relation oracle = OracleAnswer(q, db);
  ASSERT_EQ(oracle.size(), 4);

  const auto leaf = [&q](int atom) { return MakeLeaf(q, atom); };
  const auto join = [](std::unique_ptr<PlanNode> a,
                       std::unique_ptr<PlanNode> b,
                       std::vector<AttrId> projected) {
    std::vector<std::unique_ptr<PlanNode>> children;
    children.push_back(std::move(a));
    children.push_back(std::move(b));
    return MakeJoin(std::move(children), std::move(projected));
  };
  // R (7 rows, duplicates) probes S and T (the smaller inputs), and the
  // projection onto {x, y} keeps every attribute of R.
  const Plan bare(join(join(leaf(0), leaf(1), {x, y}), leaf(2), {x, y}));
  const Plan projected(join(join(leaf(0), leaf(2), {x, y}), leaf(1), {x, y}));
  for (const Plan* plan : {&bare, &projected}) {
    ASSERT_TRUE(ValidatePlan(q, *plan).ok());
    Result<PhysicalPlan> compiled = PhysicalPlan::Compile(q, *plan, db);
    ASSERT_TRUE(compiled.ok());
    const PhysicalNode& root = compiled->root();
    EXPECT_EQ(root.children[0]->keyed, KeyedSide::kNone);
    EXPECT_TRUE(root.children[0]->distinct);
    EXPECT_FALSE(root.children[0]->children[0]->distinct);
    EXPECT_EQ(root.keyed, KeyedSide::kLeft);
    const ExecutionResult run = compiled->Execute();
    ASSERT_TRUE(run.status.ok());
    // SetEquals ignores duplicate rows; the row count does not.
    EXPECT_EQ(run.output.size(), oracle.size());
    EXPECT_TRUE(run.output.SetEquals(oracle)) << run.output.ToString();
  }
}

TEST(PhysicalPlanTest, OutputSchemaMatchesTargetArity) {
  const Database db = CycleDb(13);
  const ConjunctiveQuery q = CycleQuery();
  const Plan plan = BuildStrategyPlan(StrategyKind::kReordering, q, 14);
  Result<PhysicalPlan> compiled = PhysicalPlan::Compile(q, plan, db);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->output_schema().arity(),
            static_cast<int>(q.free_vars().size()));
  EXPECT_GT(compiled->NumNodes(), 0);
}

}  // namespace
}  // namespace ppr
