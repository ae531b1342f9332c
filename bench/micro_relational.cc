// google-benchmark microbenchmarks for the relational engine — the
// substrate whose tuple throughput underlies every figure reproduction.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/strategies.h"
#include "exec/physical_plan.h"
#include "obs/metrics.h"
#include "obs/telemetry/query_log.h"
#include "obs/trace.h"
#include "query/conjunctive_query.h"
#include "runtime/batch_executor.h"
#include "relational/database.h"
#include "relational/exec_context.h"
#include "relational/ops.h"

namespace ppr {
namespace {

Relation RandomRelation(std::vector<AttrId> attrs, int64_t rows,
                        Value domain, uint64_t seed) {
  Rng rng(seed);
  Relation rel{Schema(std::move(attrs))};
  rel.Reserve(rows);
  std::vector<Value> tuple(static_cast<size_t>(rel.arity()));
  for (int64_t i = 0; i < rows; ++i) {
    for (auto& v : tuple) v = static_cast<Value>(rng.NextBounded(
        static_cast<uint64_t>(domain)));
    rel.AddTuple(tuple);
  }
  return rel;
}

void BM_NaturalJoinSharedAttr(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Relation left = RandomRelation({0, 1}, rows, 100, 1);
  Relation right = RandomRelation({1, 2}, rows, 100, 2);
  int64_t produced = 0;
  for (auto _ : state) {
    ExecContext ctx;
    Relation out = NaturalJoin(left, right, ctx);
    produced += out.size();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(produced);
}
BENCHMARK(BM_NaturalJoinSharedAttr)->Range(1 << 8, 1 << 14);

void BM_CartesianProduct(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Relation left = RandomRelation({0}, rows, 3, 3);
  Relation right = RandomRelation({1}, rows, 3, 4);
  for (auto _ : state) {
    ExecContext ctx;
    Relation out = NaturalJoin(left, right, ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * rows * rows);
}
BENCHMARK(BM_CartesianProduct)->Range(1 << 4, 1 << 9);

void BM_ProjectDistinct(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Relation input = RandomRelation({0, 1, 2, 3}, rows, 3, 5);
  for (auto _ : state) {
    ExecContext ctx;
    Relation out = Project(input, {0, 2}, ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_ProjectDistinct)->Range(1 << 8, 1 << 18);

void BM_SemiJoin(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Relation left = RandomRelation({0, 1}, rows, 50, 6);
  Relation right = RandomRelation({1, 2}, rows / 2, 50, 7);
  for (auto _ : state) {
    ExecContext ctx;
    Relation out = SemiJoin(left, right, ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_SemiJoin)->Range(1 << 8, 1 << 14);

// The acceptance workload for the physical layer: a join followed by a
// distinct projection on the same inputs as BM_NaturalJoinSharedAttr.
// items/s counts tuples flowing through both operators.
void BM_JoinProjectPipeline(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Relation left = RandomRelation({0, 1}, rows, 100, 1);
  Relation right = RandomRelation({1, 2}, rows, 100, 2);
  int64_t produced = 0;
  for (auto _ : state) {
    ExecContext ctx;
    Relation joined = NaturalJoin(left, right, ctx);
    Relation out = Project(joined, {0, 2}, ctx);
    produced += joined.size() + out.size();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(produced);
}
BENCHMARK(BM_JoinProjectPipeline)->Range(1 << 8, 1 << 14);

// Compile-once / execute-many: the PhysicalPlan steady state, where the
// scratch arena's blocks are recycled across runs and execution performs
// no schema or catalog work at all.
void BM_CompiledPlanExecute(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Database db;
  db.Put("R", RandomRelation({0, 1}, rows, 100, 11));
  db.Put("S", RandomRelation({1, 2}, rows, 100, 12));
  ConjunctiveQuery query({{"R", {0, 1}}, {"S", {1, 2}}}, {0, 2});
  const Plan plan = EarlyProjectionPlan(query);
  auto compiled = PhysicalPlan::Compile(query, plan, db);
  ExecArena arena;
  int64_t produced = 0;
  for (auto _ : state) {
    ExecutionResult result = compiled->ExecuteShared(&arena);
    produced += static_cast<int64_t>(result.stats.tuples_produced);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(produced);
}
BENCHMARK(BM_CompiledPlanExecute)->Range(1 << 8, 1 << 13);

// Same workload with per-operator span recording into an explicit sink,
// publishing each run's stats and span histograms into a registry: the
// enabled-path cost of the trace layer. Comparing against
// BM_CompiledPlanExecute (whose null sink costs one branch per operator)
// is the overhead check the observability layer is held to.
void BM_CompiledPlanExecuteTraced(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Database db;
  db.Put("R", RandomRelation({0, 1}, rows, 100, 11));
  db.Put("S", RandomRelation({1, 2}, rows, 100, 12));
  ConjunctiveQuery query({{"R", {0, 1}}, {"S", {1, 2}}}, {0, 2});
  const Plan plan = EarlyProjectionPlan(query);
  auto compiled = PhysicalPlan::Compile(query, plan, db);
  ExecArena arena;
  TraceSink sink;
  MetricsRegistry metrics;
  int64_t produced = 0;
  for (auto _ : state) {
    ExecutionResult result =
        compiled->ExecuteShared(&arena, kCounterMax, &sink, &metrics);
    produced += static_cast<int64_t>(result.stats.tuples_produced);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(produced);
}
BENCHMARK(BM_CompiledPlanExecuteTraced)->Range(1 << 8, 1 << 13);

// Telemetry twins: the BM_CompiledPlanExecute workload submitted through
// BatchExecutor one job at a time, with the query log off (the disabled
// path costs one null-check branch per job) and on (record assembly,
// sharded append, latency-bucket fold; the flush is a no-op because the
// in-memory log has no export path). The acceptance bar for the
// telemetry pillar: On within 2% of Off.
void BM_BatchExecuteTelemetryOff(benchmark::State& state) {
  const int64_t rows = state.range(0);
  DisableQueryLog();
  Database db;
  db.Put("R", RandomRelation({0, 1}, rows, 100, 11));
  db.Put("S", RandomRelation({1, 2}, rows, 100, 12));
  std::vector<BatchJob> jobs(1);
  jobs[0].query = ConjunctiveQuery({{"R", {0, 1}}, {"S", {1, 2}}}, {0, 2});
  jobs[0].strategy = StrategyKind::kEarlyProjection;
  BatchOptions options;
  MetricsRegistry scratch;
  options.metrics = &scratch;
  BatchExecutor executor(db, options);
  int64_t produced = 0;
  for (auto _ : state) {
    BatchResult result = executor.Run(jobs);
    produced += static_cast<int64_t>(result.totals.tuples_produced);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(produced);
}
BENCHMARK(BM_BatchExecuteTelemetryOff)->Range(1 << 8, 1 << 13);

void BM_BatchExecuteTelemetryOn(benchmark::State& state) {
  const int64_t rows = state.range(0);
  EnableQueryLog("");  // in-memory: no JSONL export in the loop
  Database db;
  db.Put("R", RandomRelation({0, 1}, rows, 100, 11));
  db.Put("S", RandomRelation({1, 2}, rows, 100, 12));
  std::vector<BatchJob> jobs(1);
  jobs[0].query = ConjunctiveQuery({{"R", {0, 1}}, {"S", {1, 2}}}, {0, 2});
  jobs[0].strategy = StrategyKind::kEarlyProjection;
  BatchOptions options;
  MetricsRegistry scratch;
  options.metrics = &scratch;
  BatchExecutor executor(db, options);
  int64_t produced = 0;
  for (auto _ : state) {
    BatchResult result = executor.Run(jobs);
    produced += static_cast<int64_t>(result.totals.tuples_produced);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(produced);
  DisableQueryLog();
}
BENCHMARK(BM_BatchExecuteTelemetryOn)->Range(1 << 8, 1 << 13);

void BM_BindAtom(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Relation stored = RandomRelation({0, 1}, rows, 10, 8);
  for (auto _ : state) {
    ExecContext ctx;
    Relation out = BindAtom(stored, {7, 7}, ctx);  // repeated attribute
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_BindAtom)->Range(1 << 8, 1 << 14);

}  // namespace
}  // namespace ppr

BENCHMARK_MAIN();
