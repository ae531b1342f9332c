// Tests for the physical execution layer: strategy answers against an
// independent bindings-based oracle, compile-once/execute-many reuse,
// exact tuple-budget boundaries for both join algorithms, and the kernel
// spans of a run — one per kernel call, checked by the span verifier.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/physical_verifier.h"
#include "analysis/plan_verifier.h"
#include "analysis/width_analyzer.h"
#include "benchlib/harness.h"
#include "common/rng.h"
#include "core/plan.h"
#include "core/strategies.h"
#include "encode/kcolor.h"
#include "exec/executor.h"
#include "exec/physical_plan.h"
#include "graph/generators.h"
#include "obs/trace.h"
#include "query/conjunctive_query.h"
#include "query/parser.h"
#include "relational/batch_ops.h"
#include "test_util.h"

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

// The sort-merge join writes every fold step and shares no code with the
// hash join's counted chains, so it is an oracle for them at every budget
// boundary: for each cumulative span count c of the unbudgeted hash run,
// both algorithms stop at the same node with the same stats under budgets
// c - 1, c and c + 1, and return the same answers when they complete.
TEST(PhysicalPlanTest, HashAndSortMergeAgreeAtEveryBudgetBoundary) {
  Database db;
  AddColoringRelations(3, &db);
  int budgets = 0;
  for (const int order : {3, 4}) {
    Rng rng(2);
    const std::vector<ConjunctiveQuery> queries = {
        KColorQuery(AugmentedLadder(order)),
        KColorQueryNonBoolean(AugmentedLadder(order), 0.2, rng)};
    for (const ConjunctiveQuery& q : queries) {
      for (StrategyKind kind :
           {StrategyKind::kStraightforward, StrategyKind::kEarlyProjection,
            StrategyKind::kReordering, StrategyKind::kBucketElimination}) {
        SCOPED_TRACE(::testing::Message() << "order " << order << " "
                                          << StrategyName(kind) << " free "
                                          << q.free_vars().size());
        const Plan plan = BuildStrategyPlan(kind, q, /*seed=*/0);
        Result<PhysicalPlan> hash = PhysicalPlan::Compile(q, plan, db);
        Result<PhysicalPlan> merge =
            PhysicalPlan::Compile(q, plan, db, JoinAlgorithm::kSortMerge);
        ASSERT_TRUE(hash.ok() && merge.ok());
        TraceSink sink(TraceSink::kUnbounded);
        ASSERT_TRUE(
            hash->ExecuteShared(nullptr, kCounterMax, &sink).status.ok());
        std::set<Counter> boundaries;
        Counter c = 0;
        for (const TraceSpan& span : sink.Snapshot()) {
          c += span.rows_out;
          for (const Counter b : {c - 1, c, c + 1}) {
            if (b >= 0) boundaries.insert(b);
          }
        }
        for (const Counter budget : boundaries) {
          SCOPED_TRACE(::testing::Message() << "budget " << budget);
          const ExecutionResult h = hash->ExecuteShared(nullptr, budget);
          const ExecutionResult s = merge->ExecuteShared(nullptr, budget);
          ++budgets;
          ASSERT_EQ(h.status.code(), s.status.code());
          EXPECT_EQ(h.exhausted_node, s.exhausted_node);
          EXPECT_EQ(h.stats.tuples_produced, s.stats.tuples_produced);
          EXPECT_EQ(h.stats.num_joins, s.stats.num_joins);
          EXPECT_EQ(h.stats.num_projections, s.stats.num_projections);
          EXPECT_EQ(h.stats.max_intermediate_arity,
                    s.stats.max_intermediate_arity);
          EXPECT_EQ(h.stats.max_intermediate_rows,
                    s.stats.max_intermediate_rows);
          if (h.status.ok()) {
            EXPECT_TRUE(h.output.SetEquals(s.output));
          }
        }
      }
    }
  }
  EXPECT_GT(budgets, 1000);
}

TEST(PhysicalPlanTest, CompiledPlanIsReusableAcrossRuns) {
  const Database db = CycleDb(9);
  const ConjunctiveQuery q = CycleQuery();
  const Plan plan = BuildStrategyPlan(StrategyKind::kEarlyProjection, q, 3);
  Result<PhysicalPlan> compiled = PhysicalPlan::Compile(q, plan, db);
  ASSERT_TRUE(compiled.ok());

  ExecArena arena;
  const ExecutionResult first = compiled->ExecuteShared(&arena);
  ASSERT_TRUE(first.status.ok());
  // Repeated executions recycle the arena; results and stats must not
  // drift run over run.
  for (int i = 0; i < 3; ++i) {
    const ExecutionResult again = compiled->ExecuteShared(&arena);
    ASSERT_TRUE(again.status.ok());
    EXPECT_TRUE(again.output.SetEquals(first.output));
    EXPECT_EQ(again.stats.tuples_produced, first.stats.tuples_produced);
    EXPECT_EQ(again.stats.peak_bytes, first.stats.peak_bytes);
  }
  // A budgeted run on the same compiled plan, then an unbudgeted one:
  // truncation must not corrupt later executions.
  const ExecutionResult truncated =
      compiled->ExecuteShared(&arena, first.stats.tuples_produced - 1);
  EXPECT_EQ(truncated.status.code(), StatusCode::kResourceExhausted);
  const ExecutionResult after = compiled->ExecuteShared(&arena);
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
    const PhysicalNode& root = compiled->node(0);
    const PhysicalNode& inner = compiled->node(root.children[0]);
    EXPECT_EQ(inner.keyed, KeyedSide::kNone);
    EXPECT_TRUE(inner.distinct);
    EXPECT_FALSE(compiled->node(inner.children[0]).distinct);
    EXPECT_EQ(root.keyed, KeyedSide::kLeft);
    const ExecutionResult run = compiled->ExecuteShared(nullptr);
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
  EXPECT_EQ(compiled->output_attrs().size(), q.free_vars().size());
  EXPECT_GT(compiled->NumNodes(), 0);
}

// ---------------------------------------------------------------------------
// Kernel spans

Database ThreeColorDb() {
  Database db;
  AddColoringRelations(3, &db);
  return db;
}

struct Compiled {
  ConjunctiveQuery query;
  Plan plan;
  PhysicalPlan physical;
};

Compiled CompileFor(ConjunctiveQuery q, Plan plan, const Database& db) {
  Result<PhysicalPlan> compiled = PhysicalPlan::Compile(q, plan, db);
  PPR_CHECK(compiled.ok());
  return Compiled{std::move(q), std::move(plan), std::move(*compiled)};
}

// A bucket-elimination plan over a random 3-coloring query, whose
// projecting nodes stream their last join.
Compiled CompileRandomColoring(const Database& db) {
  Rng rng(21);
  ConjunctiveQuery q = KColorQuery(ConnectedRandomGraph(8, 12, rng));
  Plan plan = BucketEliminationPlanMcs(q, nullptr);
  return CompileFor(std::move(q), std::move(plan), db);
}

Compiled CompilePentagon(const Database& db) {
  ConjunctiveQuery q = PentagonQuery();
  Plan plan = BucketEliminationPlanMcs(q, nullptr);
  return CompileFor(std::move(q), std::move(plan), db);
}

// The straightforward chain of joins over the Boolean augmented ladder
// of order 4 (101,883 tuples unbudgeted), run under half that budget: a
// join exhausts it by counting through the three unwritten joins before
// it, enumerated from the last join written.
Compiled CompileLadderChain(const Database& db) {
  ConjunctiveQuery q = KColorQuery(AugmentedLadder(4));
  Plan plan = StraightforwardPlan(q);
  return CompileFor(std::move(q), std::move(plan), db);
}
constexpr Counter kLadderChainBudget = 50000;

// Reordering over the Boolean augmented ladder of order 3 (4,797 tuples
// unbudgeted): it joins each pendant edge as a cross product and projects
// the pendant away at once, a projection that keeps its join's whole
// distinct probe row and so deduplicates once per key group.
Compiled CompileLadderReordering(const Database& db) {
  ConjunctiveQuery q = KColorQuery(AugmentedLadder(3));
  Plan plan = ReorderingPlan(q, nullptr);
  return CompileFor(std::move(q), std::move(plan), db);
}
constexpr Counter kLadderReorderingBudget = 2400;

// The same plan with every keyed projection cleared, which streams its
// join through the dedup instead.
PhysicalPlan Unkeyed(const Compiled& c, const Database& db) {
  Result<PhysicalPlan> compiled = PhysicalPlan::Compile(c.query, c.plan, db);
  PPR_CHECK(compiled.ok());
  for (int32_t id = 0; id < compiled->NumNodes(); ++id) {
    compiled->mutable_node(id).keyed = KeyedSide::kNone;
  }
  return std::move(*compiled);
}

// The structural verifier tiers over one compiled plan, called one by
// one as CompileVerified calls them (which the sort-merge case cannot use,
// since it always compiles hash joins): the logical tier, the width
// cross-check of the plan's analysis, then the physical tier.
Status VerifyStructure(const ConjunctiveQuery& q, const Plan& plan,
                       const Database& db, const PhysicalPlan& physical) {
  Status verdict = VerifyLogicalPlan(q, plan);
  if (verdict.ok()) {
    verdict = CrossCheckWidth(q, plan, AnalyzePlan(q, plan, db));
  }
  if (verdict.ok()) verdict = VerifyPhysicalPlan(q, plan, db, physical);
  return verdict;
}

// A run of `plan` under `budget` with every span kept.
struct TracedRun {
  ExecutionResult result;
  std::vector<TraceSpan> spans;
};

TracedRun RunTraced(const PhysicalPlan& plan, Counter budget) {
  TraceSink sink(TraceSink::kUnbounded);
  TracedRun run;
  run.result = plan.ExecuteShared(nullptr, budget, &sink);
  run.spans = sink.Snapshot();
  return run;
}

// Whether a run's spans show a join call that produced rows but never
// wrote them, read by the next call, an operator `reader`. Writing
// probes again, so a written join over written inputs probes more than
// its probe rows; a level counted through a chain also counts the
// probes of enumerating the levels below it, but its footprint cannot
// hold its rows.
bool UnwrittenJoinReadBy(const std::vector<TraceSpan>& spans,
                         TraceOp reader) {
  for (size_t k = 0; k + 1 < spans.size(); ++k) {
    const TraceSpan& c = spans[k];
    if (c.op == TraceOp::kJoin && spans[k + 1].op == reader &&
        c.rows_out > 0 &&
        (c.ht_probe_ops == c.rows_in ||
         c.bytes < c.rows_out * c.arity_out *
                       static_cast<int64_t>(sizeof(Value)))) {
      return true;
    }
  }
  return false;
}

// Every ExecStats field but peak_bytes.
auto StatsTupleExceptPeak(const ExecStats& s) {
  return std::tuple(s.tuples_produced, s.num_joins, s.num_projections,
                    s.num_semijoins, s.max_intermediate_arity,
                    s.max_intermediate_rows);
}

// Every span field but the wall-clock ones.
auto SpanFields(const std::vector<TraceSpan>& spans) {
  std::vector<std::tuple<TraceOp, int32_t, int64_t, int64_t, int32_t,
                         int32_t, int64_t, int64_t, int64_t>>
      fields;
  for (const TraceSpan& s : spans) {
    fields.emplace_back(s.op, s.node_id, s.rows_in, s.rows_out, s.arity_in,
                        s.arity_out, s.bytes, s.ht_build_rows, s.ht_probe_ops);
  }
  return fields;
}

// Exact row-order equality, not set equality.
void ExpectSameRows(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.arity(), b.arity());
  ASSERT_EQ(a.size(), b.size());
  for (int64_t i = 0; i < a.size(); ++i) {
    for (int c = 0; c < a.arity(); ++c) {
      ASSERT_EQ(a.at(i, c), b.at(i, c)) << "row " << i << " col " << c;
    }
  }
}

// Each kernel call records exactly one span, and its `bytes` is the
// call's footprint: for one call on a fresh context, the context's
// peak_bytes. Over a whole run the spans are the run's kernel calls, one
// per scan, join and projection the stats count, and the widest
// footprint among them is the run's peak_bytes.
TEST(KernelSpanTest, EachKernelCallRecordsOneSpanOfItsFootprint) {
  const Database db = ThreeColorDb();
  const Relation& edge = **db.Get("edge");
  const AttrId x = 0, y = 1, z = 2;
  ExecContext plain;
  const Relation xy = BindAtom(edge, {x, y}, plain);
  const Relation yz = BindAtom(edge, {y, z}, plain);
  SpecPool join_pool;
  const JoinSpec join =
      PlanJoin(xy.schema().attrs(), yz.schema().attrs(), join_pool);

  // Each call with the rows its hash structure takes in: a join's build
  // side, a semijoin's filter keys, a projection's distinct keys.
  struct Call {
    std::string what;
    Counter budget;
    int64_t build_rows;
    std::function<Relation(ExecContext&)> run;
  };
  const std::vector<Call> calls = {
      {"scan", kCounterMax, 0,
       [&](ExecContext& ctx) {
         SpecPool pool;
         return ScanAtom(edge, PlanScan(2, {x, y}, pool), ctx);
       }},
      {"scan with a repeated attribute", kCounterMax, 0,
       [&](ExecContext& ctx) {
         SpecPool pool;
         return ScanAtom(edge, PlanScan(2, {x, x}, pool), ctx);
       }},
      {"join", kCounterMax, 6,
       [&](ExecContext& ctx) { return HashJoin(xy, yz, join, ctx); }},
      {"exhausting join", 3, 6,
       [&](ExecContext& ctx) { return HashJoin(xy, yz, join, ctx); }},
      {"projection", kCounterMax, 3,
       [&](ExecContext& ctx) {
         SpecPool pool;
         return ProjectColumns(xy, PlanProject(xy.schema().attrs(), {x}, pool),
                               ctx);
       }},
      {"semijoin", kCounterMax, 6,
       [&](ExecContext& ctx) {
         return SemiJoinFiltered(xy, yz, PlanSemiJoin(xy.schema(), yz.schema()),
                                 ctx);
       }},
  };
  for (const Call& call : calls) {
    SCOPED_TRACE(call.what);
    TraceSink sink(TraceSink::kUnbounded);
    ExecContext ctx(call.budget);
    ctx.set_tracer(&sink);
    const Relation out = call.run(ctx);
    const std::vector<TraceSpan> spans = sink.Snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].rows_out, out.size());
    EXPECT_EQ(spans[0].ht_build_rows, call.build_rows);
    EXPECT_GT(spans[0].bytes, 0);
    EXPECT_EQ(spans[0].bytes, static_cast<int64_t>(ctx.stats().peak_bytes));
  }

  // A counted join read unwritten ends with its count: one span for it,
  // then one for the projection that streams it, deduplicating every
  // pair or, keyed on the join's probe side (yz: the inputs tie, so the
  // join builds on the left), once per key group.
  for (const auto& [keep, keyed] :
       {std::pair{std::vector<AttrId>{x, z}, KeyedSide::kNone},
        std::pair{std::vector<AttrId>{y, z}, KeyedSide::kRight}}) {
    TraceSink sink(TraceSink::kUnbounded);
    ExecContext ctx;
    ctx.set_tracer(&sink);
    SpecPool pool;
    const Relation out =
        ProjectColumns(CountedJoin(xy, yz, join, ctx),
                       PlanProject(join.out_attrs, keep, pool), ctx, keyed);
    const std::vector<TraceSpan> spans = sink.Snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].op, TraceOp::kJoin);
    EXPECT_EQ(spans[0].rows_out, 12);
    EXPECT_EQ(spans[1].op, TraceOp::kProject);
    EXPECT_EQ(spans[1].rows_out, out.size());
    EXPECT_EQ(std::max(spans[0].bytes, spans[1].bytes),
              static_cast<int64_t>(ctx.stats().peak_bytes));
  }

  Compiled coloring = CompileRandomColoring(db);
  Compiled pentagon = CompilePentagon(db);
  Compiled chain = CompileLadderChain(db);
  Compiled reordering = CompileLadderReordering(db);
  struct Run {
    Compiled* c;
    Counter budget;
  };
  for (const Run& k : {Run{&coloring, kCounterMax}, Run{&pentagon, kCounterMax},
                       Run{&chain, kLadderChainBudget},
                       Run{&reordering, kCounterMax},
                       Run{&reordering, kLadderReorderingBudget}}) {
    const TracedRun run = RunTraced(k.c->physical, k.budget);
    const ExecStats& stats = run.result.stats;
    int64_t scans = 0;
    int64_t joins = 0;
    int64_t projections = 0;
    int64_t widest = 0;
    for (const TraceSpan& span : run.spans) {
      scans += span.op == TraceOp::kScan;
      joins += span.op == TraceOp::kJoin;
      projections += span.op == TraceOp::kProject;
      widest = std::max(widest, span.bytes);
    }
    if (run.result.status.ok()) {
      EXPECT_EQ(scans, static_cast<int64_t>(k.c->query.atoms().size()));
    }
    EXPECT_EQ(joins, stats.num_joins);
    EXPECT_EQ(projections, stats.num_projections);
    EXPECT_EQ(widest, static_cast<int64_t>(stats.peak_bytes));
  }
}

// The verifier reads a run's kernel spans: it accepts a real run's and
// rejects each kind of damage a kernel could do to them.
TEST(KernelSpanTest, SpanVerifierRejectsTamperedSpans) {
  const Database db = ThreeColorDb();
  Compiled c = CompilePentagon(db);
  const TracedRun r = RunTraced(c.physical, kCounterMax);
  ASSERT_TRUE(r.result.status.ok());
  const std::vector<TraceSpan>& spans = r.spans;
  auto verify = [&](const std::vector<TraceSpan>& tampered) {
    return VerifyKernelSpans(c.query, c.plan, db, tampered, r.result.stats,
                             kCounterMax);
  };
  ASSERT_TRUE(verify(spans).ok()) << verify(spans).ToString();

  // The first scan, join and projection calls, and a node that does not
  // project.
  const auto first_call = [&spans](TraceOp op) {
    size_t i = 0;
    while (i < spans.size() && spans[i].op != op) ++i;
    return i;
  };
  const size_t scan = first_call(TraceOp::kScan);
  const size_t join = first_call(TraceOp::kJoin);
  const size_t project = first_call(TraceOp::kProject);
  ASSERT_LT(scan, spans.size());
  ASSERT_LT(join, spans.size());
  ASSERT_LT(project, spans.size());
  ASSERT_FALSE(c.plan.root()->IsLeaf());
  const std::vector<const PlanNode*> nodes = PreOrderNodes(c.plan);
  const auto plain = std::find_if(nodes.begin(), nodes.end(),
                                  [](const PlanNode* n) {
                                    return !n->Projects();
                                  });
  ASSERT_NE(plain, nodes.end());
  const auto plain_id = static_cast<int32_t>(plain - nodes.begin());

  auto tamper = [&](size_t at, const auto& edit) {
    std::vector<TraceSpan> bad = spans;
    edit(bad[at]);
    return verify(bad);
  };
  auto expect_rejected = [](const Status& status, const std::string& what,
                            const std::string& fragment) {
    EXPECT_FALSE(status.ok()) << what;
    EXPECT_NE(status.message().find(fragment), std::string::npos)
        << what << ": " << status.ToString();
  };

  expect_rejected(tamper(0, [](TraceSpan& s) { s.rows_out += 1; }),
                  "rows_out + 1", "rows");
  expect_rejected(tamper(0, [](TraceSpan& s) { s.rows_out = -1; }),
                  "negative rows_out", "negative row count");
  expect_rejected(tamper(0, [](TraceSpan& s) { s.arity_out += 1; }),
                  "arity_out + 1", "arity");
  expect_rejected(tamper(0, [](TraceSpan& s) { s.node_id = 999; }),
                  "node id 999", "node id out of range");
  expect_rejected(tamper(scan, [](TraceSpan& s) { s.node_id = 0; }),
                  "scan on an internal node", "scan on a join node");
  expect_rejected(tamper(join, [](TraceSpan& s) { s.arity_out = 99; }),
                  "join wider than the query", "matches no fold step");
  expect_rejected(tamper(project, [](TraceSpan& s) { s.arity_out += 1; }),
                  "projection arity + 1", "projected-label arity");
  expect_rejected(
      tamper(join, [&](TraceSpan& s) { s.node_id = spans[scan].node_id; }),
      "join on a leaf", "join on a leaf node");
  expect_rejected(tamper(project, [&](TraceSpan& s) { s.node_id = plain_id; }),
                  "projection on a non-projecting node",
                  "projection on a non-projecting node");
  {
    std::vector<TraceSpan> bad = spans;
    TraceSpan semijoin;
    semijoin.op = TraceOp::kSemiJoin;
    semijoin.node_id = 0;
    bad.push_back(semijoin);
    expect_rejected(verify(bad), "semijoin span", "semijoin");
  }

  // The span rows must add up to the run's charges: exactly on a
  // completed run, at most on a budget-exhausted one.
  ExecStats fewer = r.result.stats;
  fewer.tuples_produced -= 1;
  EXPECT_FALSE(
      VerifyKernelSpans(c.query, c.plan, db, spans, fewer, kCounterMax).ok());
  EXPECT_FALSE(VerifyKernelSpans(c.query, c.plan, db, spans, fewer,
                                 fewer.tuples_produced - 1)
                   .ok());
  ExecStats more = r.result.stats;
  more.tuples_produced += 1;
  EXPECT_FALSE(
      VerifyKernelSpans(c.query, c.plan, db, spans, more, kCounterMax).ok());
  EXPECT_TRUE(VerifyKernelSpans(c.query, c.plan, db, spans, more,
                                more.tuples_produced - 1)
                  .ok());
}

// Runs pass the span verifier, completed and budget-truncated alike. The
// same holds for both consumers of a counted join: the pentagon's
// projecting nodes stream their last join, the ladder chain's root
// streams its top, and under its budget a join exhausts it by counting
// through a chain of unwritten ones; and for the
// ladder reordering's keyed projections, which return the rows and every
// stat but peak_bytes of the same plan with them cleared.
TEST(KernelSpanTest, VerifiedRunsPassTheSpanVerifier) {
  const Database db = ThreeColorDb();
  Compiled coloring = CompileRandomColoring(db);
  Compiled pentagon = CompilePentagon(db);
  Compiled chain = CompileLadderChain(db);
  Compiled reordering = CompileLadderReordering(db);
  for (const Compiled* c : {&coloring, &pentagon, &chain, &reordering}) {
    const Status verdict =
        VerifyStructure(c->query, c->plan, db, c->physical);
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  }
  const TracedRun full = RunTraced(coloring.physical, kCounterMax);
  ASSERT_TRUE(full.result.status.ok());
  EXPECT_TRUE(VerifyKernelSpans(coloring.query, coloring.plan, db, full.spans,
                                full.result.stats, kCounterMax)
                  .ok());
  const Counter truncated_budget = full.result.stats.tuples_produced / 2;
  const TracedRun truncated = RunTraced(coloring.physical, truncated_budget);
  EXPECT_EQ(truncated.result.status.code(), StatusCode::kResourceExhausted);
  const Status truncated_verdict =
      VerifyKernelSpans(coloring.query, coloring.plan, db, truncated.spans,
                        truncated.result.stats, truncated_budget);
  EXPECT_TRUE(truncated_verdict.ok()) << truncated_verdict.ToString();

  struct Case {
    Compiled* c;
    Counter budget;
    StatusCode status;
    TraceOp reader;
  };
  for (const Case& k :
       {Case{&pentagon, kCounterMax, StatusCode::kOk, TraceOp::kProject},
        Case{&chain, kCounterMax, StatusCode::kOk, TraceOp::kProject},
        Case{&chain, kLadderChainBudget, StatusCode::kResourceExhausted,
             TraceOp::kJoin},
        Case{&reordering, kCounterMax, StatusCode::kOk, TraceOp::kProject},
        Case{&reordering, kLadderReorderingBudget,
             StatusCode::kResourceExhausted, TraceOp::kProject}}) {
    SCOPED_TRACE(::testing::Message() << "budget " << k.budget);
    const TracedRun run = RunTraced(k.c->physical, k.budget);
    EXPECT_EQ(run.result.status.code(), k.status)
        << run.result.status.ToString();
    EXPECT_TRUE(UnwrittenJoinReadBy(run.spans, k.reader));
    const Status verdict = VerifyKernelSpans(
        k.c->query, k.c->plan, db, run.spans, run.result.stats, k.budget);
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();
    if (k.c == &reordering) {
      // The keyed projections ran: with them cleared, the plan returns
      // the same rows and stats through spans of its own.
      const TracedRun streamed = RunTraced(Unkeyed(*k.c, db), k.budget);
      EXPECT_EQ(streamed.result.status.code(), run.result.status.code());
      ExpectSameRows(run.result.output, streamed.result.output);
      EXPECT_EQ(StatsTupleExceptPeak(run.result.stats),
                StatsTupleExceptPeak(streamed.result.stats));
      EXPECT_NE(SpanFields(run.spans), SpanFields(streamed.spans));
    }
  }
}

// The sort-merge join records one span per call too, including a call
// whose input is empty.
TEST(KernelSpanTest, VerifiedSortMergeRunWithAnEmptyIntermediate) {
  Database db;
  AddColoringRelations(2, &db);
  // A triangle is not 2-colorable, so the third atom's join leaves an
  // empty intermediate that the fourth atom's join then takes as input.
  Result<ParsedQuery> parsed = ParseQuery(
      "pi{} edge(X, Y) & edge(Y, Z) & edge(Z, X) & edge(X, W)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ConjunctiveQuery& q = parsed->query;
  const Plan plan = StraightforwardPlan(q);
  Result<PhysicalPlan> physical =
      PhysicalPlan::Compile(q, plan, db, JoinAlgorithm::kSortMerge);
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  const Status compiled_verdict = VerifyStructure(q, plan, db, *physical);
  EXPECT_TRUE(compiled_verdict.ok()) << compiled_verdict.ToString();

  const TracedRun r = RunTraced(*physical, kCounterMax);
  ASSERT_TRUE(r.result.status.ok()) << r.result.status.ToString();
  EXPECT_TRUE(r.result.output.empty());
  // The empty-input join span still reports its arity.
  bool saw_empty_input_join = false;
  for (const TraceSpan& s : r.spans) {
    if (s.op != TraceOp::kJoin) continue;
    saw_empty_input_join |= s.rows_out == 0 && s.bytes == 0;
    EXPECT_GT(s.arity_out, 0);
  }
  EXPECT_TRUE(saw_empty_input_join);
  const Status verdict = VerifyKernelSpans(q, plan, db, r.spans,
                                           r.result.stats, kCounterMax);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
}

}  // namespace
}  // namespace ppr
