#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "encode/kcolor.h"
#include "exec/executor.h"
#include "exec/physical_plan.h"
#include "core/strategies.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"
#include "relational/exec_context.h"

namespace ppr {
namespace {

TraceSpan MakeSpan(int64_t rows_out) {
  TraceSpan span;
  span.op = TraceOp::kJoin;
  span.node_id = 7;
  span.rows_out = rows_out;
  return span;
}

TEST(TraceSinkTest, RecordsAndSnapshotsInOrder) {
  TraceSink sink(16);
  for (int64_t i = 0; i < 5; ++i) sink.Record(MakeSpan(i));
  EXPECT_EQ(sink.total_recorded(), 5u);
  EXPECT_EQ(sink.dropped(), 0u);
  const std::vector<TraceSpan> spans = sink.Snapshot();
  ASSERT_EQ(spans.size(), 5u);
  for (int64_t i = 0; i < 5; ++i) EXPECT_EQ(spans[static_cast<size_t>(i)].rows_out, i);
}

TEST(TraceSinkTest, RingOverwritesOldestAndCountsDropped) {
  TraceSink sink(4);
  for (int64_t i = 0; i < 10; ++i) sink.Record(MakeSpan(i));
  EXPECT_EQ(sink.total_recorded(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);
  const std::vector<TraceSpan> spans = sink.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first: the surviving spans are 6, 7, 8, 9.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].rows_out, static_cast<int64_t>(6 + i));
  }
}

TEST(TraceSinkTest, SnapshotSinceIsolatesOneRun) {
  TraceSink sink(8);
  for (int64_t i = 0; i < 3; ++i) sink.Record(MakeSpan(i));
  const uint64_t mark = sink.total_recorded();
  for (int64_t i = 100; i < 102; ++i) sink.Record(MakeSpan(i));
  const std::vector<TraceSpan> spans = sink.SnapshotSince(mark);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].rows_out, 100);
  EXPECT_EQ(spans[1].rows_out, 101);
  // A mark older than the oldest buffered span clamps, never crashes.
  EXPECT_EQ(sink.SnapshotSince(0).size(), 5u);
  // A mark at the end returns nothing.
  EXPECT_TRUE(sink.SnapshotSince(sink.total_recorded()).empty());
}

TEST(TraceSinkTest, ClearResetsSequenceNumbering) {
  TraceSink sink(4);
  for (int64_t i = 0; i < 7; ++i) sink.Record(MakeSpan(i));
  sink.Clear();
  EXPECT_EQ(sink.total_recorded(), 0u);
  EXPECT_TRUE(sink.Snapshot().empty());
  // Slots realign after the reset: recording past capacity again keeps
  // oldest-first order correct.
  for (int64_t i = 0; i < 6; ++i) sink.Record(MakeSpan(i));
  const std::vector<TraceSpan> spans = sink.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].rows_out, static_cast<int64_t>(2 + i));
  }
}

TEST(SpanRecorderTest, NullSinkIsDisabledAndRecordsNothing) {
  SpanRecorder rec(nullptr, TraceOp::kScan, 3);
  EXPECT_FALSE(rec.enabled());
}

TEST(SpanRecorderTest, RecordsSpanWithFilledFieldsOnDestruction) {
  TraceSink sink(8);
  {
    SpanRecorder rec(&sink, TraceOp::kProject, 2);
    ASSERT_TRUE(rec.enabled());
    rec.span().rows_in = 10;
    rec.span().rows_out = 4;
    rec.span().arity_out = 3;
  }
  const std::vector<TraceSpan> spans = sink.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].op, TraceOp::kProject);
  EXPECT_EQ(spans[0].node_id, 2);
  EXPECT_EQ(spans[0].rows_in, 10);
  EXPECT_EQ(spans[0].rows_out, 4);
  EXPECT_EQ(spans[0].arity_out, 3);
  EXPECT_GE(spans[0].duration_ns, 0);
  EXPECT_GE(spans[0].start_ns, 0);
}

TEST(Log2HistogramTest, BucketBoundaries) {
  EXPECT_EQ(Log2Histogram::BucketOf(0), 0);
  EXPECT_EQ(Log2Histogram::BucketOf(1), 1);
  EXPECT_EQ(Log2Histogram::BucketOf(2), 2);
  EXPECT_EQ(Log2Histogram::BucketOf(3), 2);
  EXPECT_EQ(Log2Histogram::BucketOf(4), 3);
  EXPECT_EQ(Log2Histogram::BucketOf(1024), 11);
  EXPECT_EQ(Log2Histogram::BucketOf(UINT64_MAX), 64);
  EXPECT_EQ(Log2Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Log2Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Log2Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Log2Histogram::BucketUpperBound(64), UINT64_MAX);
}

TEST(Log2HistogramTest, RecordAccumulates) {
  Log2Histogram h;
  h.Record(0);
  h.Record(5);
  h.Record(5);
  h.Record(100);
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 110u);
  EXPECT_EQ(h.max, 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 27.5);
  EXPECT_EQ(h.buckets[0], 1u);                          // the zero
  EXPECT_EQ(h.buckets[static_cast<size_t>(Log2Histogram::BucketOf(5))], 2u);
  EXPECT_EQ(h.buckets[static_cast<size_t>(Log2Histogram::BucketOf(100))], 1u);
}

TEST(MetricsRegistryTest, CountersMaxesHistograms) {
  MetricsRegistry reg;
  reg.AddCounter("c", 3);
  reg.AddCounter("c", 4);
  reg.RaiseMax("m", 10);
  reg.RaiseMax("m", 7);  // lower: no effect
  reg.RecordHistogram("h", 16);
  EXPECT_EQ(reg.counter("c"), 7);
  EXPECT_EQ(reg.max_value("m"), 10);
  ASSERT_NE(reg.histogram("h"), nullptr);
  EXPECT_EQ(reg.histogram("h")->count, 1u);
  EXPECT_EQ(reg.counter("missing"), 0);
  EXPECT_EQ(reg.histogram("missing"), nullptr);
  reg.Clear();
  EXPECT_EQ(reg.counter("c"), 0);
}

TEST(MetricsRegistryTest, SnapshotDeltaSemantics) {
  MetricsRegistry reg;
  reg.AddCounter("runs", 2);
  reg.RecordHistogram("h", 8);
  const MetricsSnapshot before = reg.Snapshot();
  reg.AddCounter("runs", 5);
  reg.RaiseMax("peak", 42);
  reg.RecordHistogram("h", 9);
  const MetricsSnapshot delta = DeltaSince(before, reg.Snapshot());
  EXPECT_EQ(delta.counter("runs"), 5);
  EXPECT_EQ(delta.max_value("peak"), 42);  // maxes keep `after`
  ASSERT_NE(delta.histogram("h"), nullptr);
  EXPECT_EQ(delta.histogram("h")->count, 1u);
}

// A delta histogram's max is its window's, not the process-wide high-water
// mark: a window below an earlier maximum reports a bound that its own
// observations allow, and a window that sets a new maximum reports it
// exactly.
TEST(MetricsRegistryTest, DeltaHistogramMaxBelongsToItsWindow) {
  MetricsRegistry reg;
  reg.RecordHistogram("ns", 56'760);
  const MetricsSnapshot first = reg.Snapshot();
  reg.RecordHistogram("ns", 16'000);
  reg.RecordHistogram("ns", 17'379);
  const MetricsSnapshot second = reg.Snapshot();
  const MetricsSnapshot below = DeltaSince(first, second);
  const Log2Histogram* window = below.histogram("ns");
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(window->count, 2u);
  EXPECT_LE(window->max, window->sum);
  EXPECT_GE(window->max, 17'379u);
  EXPECT_LE(window->Quantile(1.0), static_cast<double>(window->max));

  reg.RecordHistogram("ns", 60'679);
  const MetricsSnapshot above = DeltaSince(second, reg.Snapshot());
  ASSERT_NE(above.histogram("ns"), nullptr);
  EXPECT_EQ(above.histogram("ns")->max, 60'679u);

  const MetricsSnapshot empty = DeltaSince(second, second);
  ASSERT_NE(empty.histogram("ns"), nullptr);
  EXPECT_EQ(empty.histogram("ns")->max, 0u);
}

TEST(MetricsRegistryTest, JsonLinesContainEveryMetric) {
  MetricsRegistry reg;
  reg.AddCounter("exec.runs", 1);
  reg.RaiseMax("exec.peak_bytes", 512);
  reg.RecordHistogram("op.ns", 1000);
  const std::string json = reg.ToJsonLines();
  EXPECT_NE(json.find("\"exec.runs\""), std::string::npos);
  EXPECT_NE(json.find("\"exec.peak_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"op.ns\""), std::string::npos);
  EXPECT_NE(json.find("\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"max\""), std::string::npos);
  EXPECT_NE(json.find("\"log2_histogram\""), std::string::npos);
}

TEST(ExecStatsViewTest, PublishAndReconstructRoundTrip) {
  ExecStats stats;
  stats.tuples_produced = 100;
  stats.num_joins = 4;
  stats.num_projections = 3;
  stats.num_semijoins = 2;
  stats.max_intermediate_arity = 5;
  stats.max_intermediate_rows = 60;
  stats.peak_bytes = 4096;

  MetricsRegistry reg;
  stats.PublishTo(&reg);
  EXPECT_EQ(reg.counter("exec.runs"), 1);
  const ExecStats back = ExecStatsFromDelta(reg.Snapshot());
  EXPECT_EQ(back.tuples_produced, stats.tuples_produced);
  EXPECT_EQ(back.num_joins, stats.num_joins);
  EXPECT_EQ(back.num_projections, stats.num_projections);
  EXPECT_EQ(back.num_semijoins, stats.num_semijoins);
  EXPECT_EQ(back.max_intermediate_arity, stats.max_intermediate_arity);
  EXPECT_EQ(back.max_intermediate_rows, stats.max_intermediate_rows);
  EXPECT_EQ(back.peak_bytes, stats.peak_bytes);
}

TEST(ExportersTest, ChromeTraceRendersSpanArgs) {
  TraceSpan span = MakeSpan(12);
  span.ht_build_rows = 6;
  span.ht_probe_ops = 9;
  const std::string json = SpansToChromeTrace({span});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"join\""), std::string::npos);
  EXPECT_NE(json.find("\"node\":7"), std::string::npos);
  EXPECT_NE(json.find("\"rows_out\":12"), std::string::npos);
  EXPECT_NE(json.find("\"ht_build_rows\":6"), std::string::npos);
  EXPECT_NE(json.find("\"ht_probe_ops\":9"), std::string::npos);
}

TEST(ExportersTest, PublishSpanMetricsFillsHistograms) {
  TraceSpan span = MakeSpan(12);
  span.duration_ns = 500;
  span.bytes = 256;
  MetricsRegistry reg;
  PublishSpanMetrics({span}, &reg);
  ASSERT_NE(reg.histogram("op.rows_out"), nullptr);
  EXPECT_EQ(reg.histogram("op.rows_out")->max, 12u);
  ASSERT_NE(reg.histogram("op.ns"), nullptr);
  ASSERT_NE(reg.histogram("op.bytes"), nullptr);
  ASSERT_NE(reg.histogram("op.join.ns"), nullptr);
  EXPECT_EQ(reg.histogram("op.join.ns")->count, 1u);
}

TEST(TracingGateTest, DisabledByDefaultAndTogglable) {
  // The test environment must not set PPR_TRACE (the build never does).
  ASSERT_FALSE(TracingEnabled());
  {
    MutexLock lock(GlobalObsMutex());
    EXPECT_EQ(GlobalTraceSink().total_recorded(), 0u);
    EXPECT_TRUE(FlushTraceArtifacts().ok());  // no-op when disabled
  }

  const std::string path = ::testing::TempDir() + "ppr_obs_test_trace.json";
  EnableTracing(path);
  EXPECT_TRUE(TracingEnabled());
  {
    MutexLock lock(GlobalObsMutex());
    EXPECT_EQ(TracePath(), path);
  }
  // A traced one-shot run folds its private sink into the global one.
  ConjunctiveQuery q = PentagonQuery();
  Database db;
  AddColoringRelations(3, &db);
  ASSERT_TRUE(ExecutePlan(q, EarlyProjectionPlan(q), db).status.ok());
  {
    MutexLock lock(GlobalObsMutex());
    EXPECT_GT(GlobalTraceSink().total_recorded(), 0u);
  }
  DisableTracing();
  EXPECT_FALSE(TracingEnabled());
  {
    MutexLock lock(GlobalObsMutex());
    EXPECT_EQ(GlobalTraceSink().total_recorded(), 0u);
  }
  std::remove(path.c_str());
  std::remove((path + ".metrics.jsonl").c_str());
}

class TracedExecutionTest : public ::testing::Test {
 protected:
  void SetUp() override { AddColoringRelations(3, &db_); }
  Database db_;
};

TEST_F(TracedExecutionTest, GlobalSinkCollectsSpansWithNodeIds) {
  ConjunctiveQuery q = PentagonQuery();
  Plan plan = BucketEliminationPlanMcs(q, nullptr);
  Result<PhysicalPlan> compiled = PhysicalPlan::Compile(q, plan, db_);
  ASSERT_TRUE(compiled.ok());

  const std::string path = ::testing::TempDir() + "ppr_obs_test_spans.json";
  EnableTracing(path);
  uint64_t mark = 0;
  MetricsSnapshot before;
  {
    MutexLock lock(GlobalObsMutex());
    GlobalMetrics().Clear();
    mark = GlobalTraceSink().total_recorded();
    before = GlobalMetrics().Snapshot();
  }
  ExecutionResult traced = ExecuteCompiled(*compiled);
  std::vector<TraceSpan> spans;
  MetricsSnapshot after;
  {
    MutexLock lock(GlobalObsMutex());
    spans = GlobalTraceSink().SnapshotSince(mark);
    after = GlobalMetrics().Snapshot();
  }
  DisableTracing();
  std::remove(path.c_str());
  std::remove((path + ".metrics.jsonl").c_str());

  ASSERT_TRUE(traced.status.ok());
  ASSERT_FALSE(spans.empty());
  for (const TraceSpan& span : spans) {
    EXPECT_GE(span.node_id, 0);
    EXPECT_LT(span.node_id, plan.NumNodes());
    EXPECT_GE(span.duration_ns, 0);
    EXPECT_LE(span.arity_out, traced.stats.max_intermediate_arity);
  }
  // One scan per atom reaches the sink.
  int scans = 0;
  for (const TraceSpan& span : spans) {
    if (span.op == TraceOp::kScan) ++scans;
  }
  EXPECT_EQ(scans, q.num_atoms());

  // The traced run published its stats: the registry delta reconstructs
  // exactly the run's ExecStats (the "view" contract).
  const MetricsSnapshot delta = DeltaSince(before, after);
  const ExecStats back = ExecStatsFromDelta(delta);
  EXPECT_EQ(back.tuples_produced, traced.stats.tuples_produced);
  EXPECT_EQ(back.num_joins, traced.stats.num_joins);
  EXPECT_EQ(back.max_intermediate_rows, traced.stats.max_intermediate_rows);
  EXPECT_EQ(delta.counter("exec.runs"), 1);
  ASSERT_NE(delta.histogram("op.ns"), nullptr);
  EXPECT_EQ(delta.histogram("op.ns")->count, spans.size());
}

TEST_F(TracedExecutionTest, UntracedRunMatchesTracedRunExactly) {
  ConjunctiveQuery q = PentagonQuery();
  Plan plan = EarlyProjectionPlan(q);
  Result<PhysicalPlan> compiled = PhysicalPlan::Compile(q, plan, db_);
  ASSERT_TRUE(compiled.ok());

  ExecutionResult plain = compiled->ExecuteShared(nullptr);
  TraceSink sink;
  MetricsRegistry registry;
  ExecutionResult traced =
      compiled->ExecuteShared(nullptr, kCounterMax, &sink, &registry);
  ASSERT_TRUE(plain.status.ok());
  ASSERT_TRUE(traced.status.ok());
  EXPECT_GT(sink.total_recorded(), 0u);
  EXPECT_EQ(plain.output.size(), traced.output.size());
  EXPECT_EQ(plain.stats.tuples_produced, traced.stats.tuples_produced);
  EXPECT_EQ(plain.stats.num_joins, traced.stats.num_joins);
  EXPECT_EQ(plain.stats.num_projections, traced.stats.num_projections);
  EXPECT_EQ(plain.stats.max_intermediate_arity,
            traced.stats.max_intermediate_arity);
  EXPECT_EQ(plain.stats.max_intermediate_rows,
            traced.stats.max_intermediate_rows);
  EXPECT_EQ(plain.stats.peak_bytes, traced.stats.peak_bytes);
}

TEST_F(TracedExecutionTest, EnvGatedFlushWritesBothArtifacts) {
  const std::string path = ::testing::TempDir() + "ppr_obs_test_flush.json";
  EnableTracing(path);
  ConjunctiveQuery q = PentagonQuery();
  ExecutionResult r = ExecutePlan(q, EarlyProjectionPlan(q), db_);
  DisableTracing();
  ASSERT_TRUE(r.status.ok());

  // DisableTracing wrote the artifacts before it cleared the sink.
  std::FILE* trace = std::fopen(path.c_str(), "r");
  ASSERT_NE(trace, nullptr);
  std::fclose(trace);
  const std::string metrics_path = path + ".metrics.jsonl";
  std::FILE* metrics = std::fopen(metrics_path.c_str(), "r");
  ASSERT_NE(metrics, nullptr);
  std::fclose(metrics);
  std::remove(path.c_str());
  std::remove(metrics_path.c_str());
}

// A traced one-shot run publishes its spans and metrics but writes no
// artifact: the semantic tier runs several per plan-cache miss, and
// rewriting the files after each one held the obs lock for the whole
// render. The artifacts appear when tracing is turned off (or at exit).
TEST_F(TracedExecutionTest, OneShotRunsLeaveTheArtifactsToDisableTracing) {
  const std::string path =
      ::testing::TempDir() + "ppr_obs_test_no_flush_per_run.json";
  const std::string metrics_path = path + ".metrics.jsonl";
  std::remove(path.c_str());
  std::remove(metrics_path.c_str());
  const auto exists = [](const std::string& file) {
    std::FILE* f = std::fopen(file.c_str(), "r");
    if (f != nullptr) std::fclose(f);
    return f != nullptr;
  };
  EnableTracing(path);
  ConjunctiveQuery q = PentagonQuery();
  const Plan plan = EarlyProjectionPlan(q);
  for (int run = 0; run < 20; ++run) {
    ASSERT_TRUE(ExecutePlan(q, plan, db_).status.ok());
  }
  {
    MutexLock lock(GlobalObsMutex());
    EXPECT_GT(GlobalTraceSink().total_recorded(), 0u);
  }
  EXPECT_FALSE(exists(path));
  EXPECT_FALSE(exists(metrics_path));
  DisableTracing();
  EXPECT_TRUE(exists(path));
  EXPECT_TRUE(exists(metrics_path));
  std::remove(path.c_str());
  std::remove(metrics_path.c_str());
}

// ---------------------------------------------------------------------------
// Sharded-merge APIs (the single synchronization point of the concurrent
// runtime: workers record into private shards, one thread folds them).

TEST(MetricsMergeTest, CountersAddMaxesRaiseHistogramsFold) {
  MetricsRegistry target;
  target.AddCounter("jobs", 2);
  target.RaiseMax("width", 3);
  target.RecordHistogram("rows", 8);

  MetricsRegistry shard;
  shard.AddCounter("jobs", 5);
  shard.AddCounter("only_in_shard", 1);
  shard.RaiseMax("width", 7);
  shard.RecordHistogram("rows", 100);
  shard.RecordHistogram("rows", 1);

  target.Merge(shard);
  EXPECT_EQ(target.counter("jobs"), 7);
  EXPECT_EQ(target.counter("only_in_shard"), 1);
  EXPECT_EQ(target.max_value("width"), 7);
  const Log2Histogram* rows = target.histogram("rows");
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->count, 3u);
  EXPECT_EQ(rows->sum, 109u);
  EXPECT_EQ(rows->max, 100u);
  // The shard is read-only input: merging must not change it.
  EXPECT_EQ(shard.counter("jobs"), 5);
}

TEST(MetricsMergeTest, MergeOrderDoesNotChangeTheResult) {
  MetricsRegistry a, b;
  a.AddCounter("n", 3);
  a.RaiseMax("m", 10);
  a.RecordHistogram("h", 4);
  b.AddCounter("n", 9);
  b.RaiseMax("m", 2);
  b.RecordHistogram("h", 1000);
  b.RecordHistogram("h", 0);

  MetricsRegistry ab, ba;
  ab.Merge(a);
  ab.Merge(b);
  ba.Merge(b);
  ba.Merge(a);
  EXPECT_EQ(ab.ToJsonLines(), ba.ToJsonLines());
}

TEST(Log2HistogramMergeTest, BucketsCountSumAndMaxCombine) {
  Log2Histogram a, b;
  a.Record(1);
  a.Record(5);
  b.Record(5);
  b.Record(77);
  a.Merge(b);
  EXPECT_EQ(a.count, 4u);
  EXPECT_EQ(a.sum, 88u);
  EXPECT_EQ(a.max, 77u);
  EXPECT_EQ(a.buckets[static_cast<size_t>(Log2Histogram::BucketOf(5))], 2u);
}

TEST(TraceSinkMergeTest, AppendsShardSpansToTheTargetTimeline) {
  TraceSink target(16);
  target.Record(MakeSpan(1));
  TraceSink shard(16);
  shard.Record(MakeSpan(2));
  shard.Record(MakeSpan(3));

  target.Merge(shard);
  const std::vector<TraceSpan> spans = target.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].rows_out, 1);
  EXPECT_EQ(spans[1].rows_out, 2);
  EXPECT_EQ(spans[2].rows_out, 3);
  // The shard's spans are rebased onto the target's epoch, so rebased
  // starts are never *earlier* than the same span on the shard clock
  // (the shard was constructed after the target).
  const std::vector<TraceSpan> shard_spans = shard.Snapshot();
  EXPECT_GE(spans[1].start_ns, shard_spans[0].start_ns);
  // Merging does not consume the shard.
  EXPECT_EQ(shard.total_recorded(), 2u);
}

TEST(TraceSinkMergeTest, OverflowDropsOldestLikeRecord) {
  TraceSink target(4);
  for (int64_t i = 0; i < 3; ++i) target.Record(MakeSpan(i));
  TraceSink shard(8);
  for (int64_t i = 10; i < 13; ++i) shard.Record(MakeSpan(i));
  target.Merge(shard);
  EXPECT_EQ(target.total_recorded(), 6u);
  EXPECT_EQ(target.dropped(), 2u);
  const std::vector<TraceSpan> spans = target.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].rows_out, 2);   // 0 and 1 fell off
  EXPECT_EQ(spans[3].rows_out, 12);
}

}  // namespace
}  // namespace ppr
