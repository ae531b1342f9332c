// Tests for the telemetry pipeline (src/obs/telemetry): query log,
// anomaly flight recorder, percentile extraction, Prometheus serializer,
// and the /metrics exposition server — plus the Chrome trace exporter
// goldens and the Log2Histogram quantile edge cases that ride along.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/batch_workload.h"
#include "benchlib/harness.h"
#include "common/mutex.h"
#include "encode/kcolor.h"
#include "exec/verify_hook.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/telemetry/flight_recorder.h"
#include "obs/telemetry/prometheus.h"
#include "obs/telemetry/query_log.h"
#include "obs/telemetry/stats_server.h"
#include "obs/trace.h"
#include "relational/database.h"
#include "runtime/batch_executor.h"
#include "runtime/plan_cache.h"

namespace ppr {
namespace {

// ---------------------------------------------------------------------
// Log2Histogram quantiles

TEST(Log2HistogramQuantileTest, EmptyHistogramIsZero) {
  Log2Histogram h;
  EXPECT_EQ(h.Quantile(0.0), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Quantile(1.0), 0.0);
}

TEST(Log2HistogramQuantileTest, AllInOneBucketStaysInsideIt) {
  Log2Histogram h;
  for (int i = 0; i < 7; ++i) h.Record(100);  // bucket 7: [64, 127]
  for (double q : {0.01, 0.25, 0.5, 0.9, 1.0}) {
    EXPECT_GE(h.Quantile(q), 64.0) << "q=" << q;
    EXPECT_LE(h.Quantile(q), 100.0) << "q=" << q;  // clamped to max
  }
  EXPECT_EQ(h.Quantile(1.0), 100.0);
}

TEST(Log2HistogramQuantileTest, OverflowBucketClampsToMax) {
  Log2Histogram h;
  h.Record(UINT64_MAX);  // bucket 64, upper bound UINT64_MAX
  h.Record(UINT64_MAX - 1);
  EXPECT_EQ(h.Quantile(1.0), static_cast<double>(h.max));
  EXPECT_LE(h.Quantile(0.5), static_cast<double>(h.max));
  EXPECT_GT(h.Quantile(0.5), 0.0);
}

TEST(Log2HistogramQuantileTest, QuantilesAreMonotoneInQ) {
  Log2Histogram h;
  for (uint64_t v : {1u, 2u, 5u, 40u, 900u, 100000u}) h.Record(v);
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double cur = h.Quantile(q);
    EXPECT_GE(cur, prev) << "q=" << q;
    prev = cur;
  }
}

TEST(Log2HistogramQuantileTest, MergeAgreesWithDirectRecording) {
  Log2Histogram a;
  Log2Histogram b;
  Log2Histogram all;
  for (uint64_t v : {3u, 9u, 17u, 120u}) {
    a.Record(v);
    all.Record(v);
  }
  for (uint64_t v : {1000u, 4000u, 70000u}) {
    b.Record(v);
    all.Record(v);
  }
  a.Merge(b);
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(a.Quantile(q), all.Quantile(q)) << "q=" << q;
  }
}

TEST(Log2HistogramQuantileTest, MedianLandsInTheMiddleBucket) {
  Log2Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(10);    // bucket 4: [8, 15]
  for (int i = 0; i < 2; ++i) h.Record(100000);  // far outlier
  const double p50 = h.Quantile(0.5);
  EXPECT_GE(p50, 8.0);
  EXPECT_LE(p50, 15.0);
  EXPECT_GT(h.Quantile(0.999), 15.0);
}

// ---------------------------------------------------------------------
// Chrome trace exporter goldens

TEST(ChromeTraceGoldenTest, EmptySinkRendersEmptyEventArray) {
  EXPECT_EQ(SpansToChromeTrace({}), "{\"traceEvents\":[\n]}\n");
}

TEST(ChromeTraceGoldenTest, SingleSpanRendersAllArgs) {
  TraceSpan s;
  s.op = TraceOp::kJoin;
  s.node_id = 2;
  s.start_ns = 1500;
  s.duration_ns = 2500;
  s.rows_in = 10;
  s.rows_out = 4;
  s.arity_in = 3;
  s.arity_out = 2;
  s.bytes = 256;
  s.ht_build_rows = 6;
  s.ht_probe_ops = 10;
  const std::string golden =
      "{\"traceEvents\":[\n"
      "{\"name\":\"join\",\"cat\":\"op\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
      "\"ts\":1.5,\"dur\":2.5,\"args\":{\"node\":2,\"rows_in\":10,"
      "\"rows_out\":4,\"arity_in\":3,\"arity_out\":2,\"bytes\":256,"
      "\"ht_build_rows\":6,\"ht_probe_ops\":10}}\n"
      "]}\n";
  EXPECT_EQ(SpansToChromeTrace({s}), golden);
}

// ---------------------------------------------------------------------
// QueryRecord serialization

TEST(QueryRecordTest, JsonGolden) {
  QueryRecord rec;
  rec.seq = 7;
  rec.fingerprint = 0xDEADBEEF;
  rec.strategy = 3;
  rec.source = QuerySource::kBatch;
  rec.cache_hit = true;
  rec.outcome = QueryOutcome::kOk;
  rec.wall_ns = 12345;
  rec.tuples_produced = 48;
  rec.output_rows = 3;
  rec.peak_bytes = 496;
  rec.max_arity = 3;
  rec.predicted_width = 3;
  rec.bound_headroom = 0;
  EXPECT_EQ(QueryRecordToJson(rec),
            "{\"seq\":7,\"fingerprint\":\"0x00000000deadbeef\","
            "\"strategy\":3,\"source\":\"batch\",\"cache_hit\":true,"
            "\"outcome\":\"ok\",\"status_code\":0,\"wall_ns\":12345,"
            "\"tuples_produced\":48,\"output_rows\":3,\"peak_bytes\":496,"
            "\"max_arity\":3,\"predicted_width\":3,\"bound_headroom\":0,"
            "\"error\":\"\"}");
}

TEST(QueryRecordTest, ErrorMessagesAreJsonEscaped) {
  QueryRecord rec;
  ClassifyStatus(Status::Internal("bad \"plan\"\nline2"), &rec);
  EXPECT_EQ(rec.outcome, QueryOutcome::kFailed);
  const std::string json = QueryRecordToJson(rec);
  EXPECT_NE(json.find("\\\"plan\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
}

TEST(QueryRecordTest, ClassifyStatusMapsBudgetAndFailure) {
  QueryRecord ok;
  ClassifyStatus(Status::Ok(), &ok);
  EXPECT_EQ(ok.outcome, QueryOutcome::kOk);
  EXPECT_TRUE(ok.error.empty());

  QueryRecord budget;
  ClassifyStatus(Status::ResourceExhausted("tuple budget exceeded"), &budget);
  EXPECT_EQ(budget.outcome, QueryOutcome::kBudgetExhausted);

  QueryRecord failed;
  ClassifyStatus(Status::InvalidArgument("no such relation"), &failed);
  EXPECT_EQ(failed.outcome, QueryOutcome::kFailed);
  EXPECT_EQ(failed.error, "no such relation");
}

// ---------------------------------------------------------------------
// QueryLog

QueryRecord OkRecord(uint64_t fingerprint, int64_t wall_ns) {
  QueryRecord rec;
  rec.fingerprint = fingerprint;
  rec.outcome = QueryOutcome::kOk;
  rec.wall_ns = wall_ns;
  return rec;
}

TEST(QueryLogTest, AppendsSnapshotInSequenceOrder) {
  QueryLog log(/*capacity=*/64, /*num_shards=*/4);
  for (uint64_t f = 0; f < 10; ++f) (void)log.Append(OkRecord(f * 917, 100));
  const std::vector<QueryRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 10u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i + 1);
  }
  EXPECT_EQ(log.total_appended(), 10u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(QueryLogTest, RingOverwritesOldestAndCountsDropped) {
  QueryLog log(/*capacity=*/4, /*num_shards=*/1);
  for (int i = 0; i < 10; ++i) (void)log.Append(OkRecord(1, 100));
  EXPECT_EQ(log.total_appended(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  const std::vector<QueryRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().seq, 7u);
  EXPECT_EQ(records.back().seq, 10u);
}

TEST(QueryLogTest, MedianTracksOkRecordsPerFingerprint) {
  QueryLog log;
  for (int i = 0; i < 32; ++i) (void)log.Append(OkRecord(42, 1000));
  // Failures must not contaminate the latency buckets.
  QueryRecord failed = OkRecord(42, 1);
  failed.outcome = QueryOutcome::kFailed;
  (void)log.Append(failed);
  EXPECT_EQ(log.LatencySamples(42), 32u);
  const uint64_t median = log.MedianWallNs(42);
  EXPECT_GE(median, 512u);  // bucket 10: [512, 1023]
  EXPECT_LE(median, 1023u);
  EXPECT_EQ(log.LatencySamples(7777), 0u);
  EXPECT_EQ(log.MedianWallNs(7777), 0u);
}

TEST(QueryLogTest, ClearResetsRecordsAndSequence) {
  QueryLog log;
  (void)log.Append(OkRecord(1, 10));
  log.Clear();
  EXPECT_EQ(log.total_appended(), 0u);
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_EQ(log.Append(OkRecord(1, 10)), 1u);  // sequence restarts
}

TEST(QueryLogTest, ToJsonlEmitsOneLinePerRecord) {
  QueryLog log;
  for (int i = 0; i < 3; ++i) (void)log.Append(OkRecord(5, 100));
  const std::string jsonl = log.ToJsonl();
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 3);
  EXPECT_EQ(jsonl.find("{\"seq\":1,"), 0u);
}

// The tsan target runs this; it is also a plain correctness check that
// concurrent appends never lose a count.
TEST(QueryLogTest, ConcurrentAppendsAndSnapshotsAreSafe) {
  QueryLog log(/*capacity=*/1024, /*num_shards=*/8);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        (void)log.Append(OkRecord(static_cast<uint64_t>(t * 31 + i), 100));
        if (i % 256 == 0) (void)log.Snapshot();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(log.total_appended(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  // Every surviving record carries a distinct seq.
  std::vector<QueryRecord> records = log.Snapshot();
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_LT(records[i - 1].seq, records[i].seq);
  }
}

// ---------------------------------------------------------------------
// Batch integration: population + cross-worker-count byte identity

std::vector<BatchJob> ColorJobs() {
  ColorBatchSpec spec;
  spec.num_bases = 4;
  spec.copies_per_base = 6;
  spec.num_vertices = 8;
  spec.seed = 11;
  std::vector<BatchJob> jobs;
  for (ConjunctiveQuery& q : IsomorphicColorBatch(spec)) {
    BatchJob job;
    job.query = std::move(q);
    job.strategy = StrategyKind::kBucketElimination;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

// Wall time is the one nondeterministic record field; the byte-identity
// contract is stated modulo it.
std::string NormalizeWallNs(std::string jsonl) {
  static const std::regex kWall("\"wall_ns\":-?[0-9]+");
  return std::regex_replace(jsonl, kWall, "\"wall_ns\":0");
}

struct QueryLogSession {
  explicit QueryLogSession(const std::string& path = "") {
    DisableQueryLog();  // drop any prior state, reset sequence
    EnableQueryLog(path);
  }
  ~QueryLogSession() { DisableQueryLog(); }
};

TEST(BatchTelemetryTest, PopulatesOneRecordPerJobWithDeterministicHits) {
  QueryLogSession session;
  Database db;
  AddColoringRelations(3, &db);
  const std::vector<BatchJob> jobs = ColorJobs();

  BatchOptions options;
  options.num_threads = 4;
  MetricsRegistry scratch;
  options.metrics = &scratch;
  BatchExecutor executor(db, options);
  const BatchResult result = executor.Run(jobs);

  QueryLog* log = GlobalQueryLogIfEnabled();
  ASSERT_NE(log, nullptr);
  const std::vector<QueryRecord> records = log->Snapshot();
  ASSERT_EQ(records.size(), jobs.size());
  int64_t misses = 0;
  for (const QueryRecord& rec : records) {
    EXPECT_EQ(rec.source, QuerySource::kBatch);
    EXPECT_EQ(rec.strategy,
              static_cast<int32_t>(StrategyKind::kBucketElimination));
    EXPECT_EQ(rec.outcome, QueryOutcome::kOk);
    EXPECT_NE(rec.fingerprint, 0u);
    EXPECT_GE(rec.predicted_width, rec.max_arity);  // sound static bound
    EXPECT_EQ(rec.bound_headroom, rec.predicted_width - rec.max_arity);
    if (!rec.cache_hit) ++misses;
  }
  // Reattributed misses match the cache's deterministic miss counter.
  EXPECT_EQ(misses, result.cache.misses);
}

TEST(BatchTelemetryTest, JsonlByteIdenticalAcrossWorkerCounts) {
  Database db;
  AddColoringRelations(3, &db);
  const std::vector<BatchJob> jobs = ColorJobs();

  std::string reference;
  std::string reference_metrics;
  for (int threads : {1, 2, 4, 8}) {
    QueryLogSession session;  // fresh log (and sequence) per worker count
    BatchOptions options;
    options.num_threads = threads;
    MetricsRegistry metrics;
    options.metrics = &metrics;
    BatchExecutor executor(db, options);  // fresh cache: same miss pattern
    (void)executor.Run(jobs);

    QueryLog* log = GlobalQueryLogIfEnabled();
    ASSERT_NE(log, nullptr);
    const std::string jsonl = NormalizeWallNs(log->ToJsonl());
    // runtime.batch.threads reports the worker count itself — the one
    // metric whose value is *supposed* to differ across this sweep.
    const std::string merged = std::regex_replace(
        metrics.ToJsonLines(),
        std::regex("\\{\"metric\":\"runtime\\.batch\\.threads\"[^\n]*\n"),
        "");
    if (reference.empty()) {
      reference = jsonl;
      reference_metrics = merged;
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(jsonl, reference) << "workers=" << threads;
      EXPECT_EQ(merged, reference_metrics) << "workers=" << threads;
    }
  }
}

TEST(BatchTelemetryTest, FlushWritesJsonlArtifact) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ppr_query_log_test.jsonl")
          .string();
  QueryLogSession session(path);
  Database db;
  AddColoringRelations(3, &db);
  std::vector<BatchJob> jobs = ColorJobs();
  jobs.resize(3);
  BatchExecutor executor(db, BatchOptions{});
  (void)executor.Run(jobs);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 3);
  EXPECT_NE(content.find("\"source\":\"batch\""), std::string::npos);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------
// Flight recorder

struct FlightSession {
  explicit FlightSession(FlightRecorderOptions options) {
    DisableQueryLog();
    EnableQueryLog("");  // recorder needs the in-memory log for medians
    EnableFlightRecorder(std::move(options));
  }
  ~FlightSession() {
    DisableFlightRecorder();
    DisableQueryLog();
  }
};

std::string TempFlightDir(const char* name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadLastDumpLocked() {
  std::string path;
  {
    MutexLock lock(GlobalObsMutex());
    FlightRecorder* recorder = GlobalFlightRecorderIfEnabled();
    if (recorder == nullptr) return "";
    path = recorder->last_dump_path();
  }
  if (path.empty()) return "";
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  return content.str();
}

TEST(FlightRecorderTest, BudgetExhaustionProducesValidatedDump) {
  const std::string dir = TempFlightDir("ppr_flights_budget");
  FlightRecorderOptions options;
  options.dir = dir;
  FlightSession session(options);

  Database db;
  AddColoringRelations(3, &db);
  std::vector<BatchJob> jobs = ColorJobs();
  jobs.resize(2);
  jobs[0].tuple_budget = 1;  // injected exhaustion
  BatchExecutor executor(db, BatchOptions{});
  const BatchResult result = executor.Run(jobs);
  EXPECT_EQ(result.results[0].status.code(), StatusCode::kResourceExhausted);

  const std::string dump = ReadLastDumpLocked();
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("\"trigger\":\"budget_exhausted\""), std::string::npos);
  EXPECT_NE(dump.find("\"outcome\":\"budget_exhausted\""), std::string::npos);
  EXPECT_NE(dump.find("\"record\":{\"seq\":"), std::string::npos);
  EXPECT_NE(dump.find("\"spans\":["), std::string::npos);
  std::filesystem::remove_all(dir);
}

// With tracing off, a batch job's dump holds that job's own spans: the
// workers keep span shards for the flight recorder, and each job's dump
// reads the spans it recorded into its worker's shard.
TEST(FlightRecorderTest, BatchDumpHoldsTheJobsSpansWithTracingOff) {
  ASSERT_FALSE(TracingEnabled());
  const std::string dir = TempFlightDir("ppr_flights_batch_spans");
  FlightRecorderOptions options;
  options.dir = dir;
  FlightSession session(options);

  Database db;
  AddColoringRelations(3, &db);
  std::vector<BatchJob> jobs = ColorJobs();
  jobs.resize(1);
  jobs[0].tuple_budget = 1;
  BatchExecutor executor(db, BatchOptions{});
  const BatchResult result = executor.Run(jobs);
  EXPECT_EQ(result.results[0].status.code(), StatusCode::kResourceExhausted);

  const std::string dump = ReadLastDumpLocked();
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("\"trigger\":\"budget_exhausted\""), std::string::npos);
  // The job ran the plan its canonical query compiles to.
  const int nodes =
      BuildStrategyPlan(jobs[0].strategy,
                        CanonicalizeQuery(jobs[0].query).query, jobs[0].seed)
          .NumNodes();
  const std::regex node_field("\"node\":(-?[0-9]+)");
  int spans = 0;
  for (auto it = std::sregex_iterator(dump.begin(), dump.end(), node_field);
       it != std::sregex_iterator(); ++it) {
    const int node = std::stoi((*it)[1].str());
    EXPECT_GE(node, 0);
    EXPECT_LT(node, nodes);
    ++spans;
  }
  EXPECT_GE(spans, 1) << dump;
  std::filesystem::remove_all(dir);
}

TEST(FlightRecorderTest, SeededVerifierFailureProducesValidatedDump) {
  const std::string dir = TempFlightDir("ppr_flights_verify");
  FlightRecorderOptions options;
  options.dir = dir;
  FlightSession session(options);

  // Seed a verifier that rejects every compiled plan.
  PlanVerifierHooks hooks;
  hooks.compiled = [](const ConjunctiveQuery&, const Plan&, const Database&,
                      const PhysicalPlan&) {
    return Status::Internal("seeded verifier failure");
  };
  SetPlanVerifierHooks(hooks);
  EnablePlanVerification(true);

  Database db;
  AddColoringRelations(3, &db);
  std::vector<BatchJob> jobs = ColorJobs();
  jobs.resize(1);
  BatchExecutor executor(db, BatchOptions{});
  const BatchResult result = executor.Run(jobs);

  EnablePlanVerification(false);
  ClearPlanVerifierHooks();

  ASSERT_FALSE(result.results[0].status.ok());
  const std::string dump = ReadLastDumpLocked();
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("\"trigger\":\"failure\""), std::string::npos);
  EXPECT_NE(dump.find("seeded verifier failure"), std::string::npos);
  // The failed compile cached no entry, yet its record still names the
  // query's structure.
  const std::string key = "\"fingerprint\":\"";
  const size_t at = dump.find(key);
  ASSERT_NE(at, std::string::npos) << dump;
  EXPECT_NE(std::strtoull(dump.c_str() + at + key.size(), nullptr, 16), 0u)
      << dump;
  std::filesystem::remove_all(dir);
}

TEST(FlightRecorderTest, LatencyOutlierTriggersPastMedianMultiple) {
  FlightRecorderOptions options;
  options.dir = "";  // classification only, no disk
  options.latency_multiple = 4.0;
  options.min_latency_samples = 8;
  FlightRecorder recorder(options);
  QueryLog log;

  for (int i = 0; i < 16; ++i) (void)log.Append(OkRecord(99, 1000));
  // Under the sample floor for an unknown fingerprint: no trigger.
  EXPECT_FALSE(recorder.Observe(OkRecord(12345, 1000000), log, nullptr)
                   .has_value());
  // Normal latency: no trigger.
  EXPECT_FALSE(recorder.Observe(OkRecord(99, 1100), log, nullptr).has_value());
  // 1000x the median: trigger.
  const auto trigger = recorder.Observe(OkRecord(99, 1000000), log, nullptr);
  ASSERT_TRUE(trigger.has_value());
  EXPECT_EQ(*trigger, FlightTrigger::kLatencyOutlier);
  EXPECT_EQ(recorder.dumps(), 0);  // no dir, nothing written
}

TEST(FlightRecorderTest, RenderFlightIsSelfContained) {
  FlightRecorderOptions options;
  options.latency_multiple = 8.0;
  FlightRecorder recorder(options);
  TraceSpan span;
  span.op = TraceOp::kProject;
  span.ht_probe_ops = 2;
  const std::string doc = recorder.RenderFlight(
      /*flight_id=*/3, FlightTrigger::kLatencyOutlier, OkRecord(1, 999),
      /*median_wall_ns=*/100, {span});
  EXPECT_EQ(doc.find("{\"flight\":3,\"trigger\":\"latency_outlier\""), 0u);
  EXPECT_NE(doc.find("\"median_wall_ns\":100"), std::string::npos);
  EXPECT_NE(doc.find("\"op\":\"project\""), std::string::npos);
  EXPECT_NE(doc.find("\"ht_probe_ops\":2}"), std::string::npos);
}

TEST(FlightRecorderTest, MaxDumpsBoundsDiskUsage) {
  const std::string dir = TempFlightDir("ppr_flights_cap");
  FlightRecorderOptions options;
  options.dir = dir;
  options.max_dumps = 2;
  FlightRecorder recorder(options);
  QueryLog log;
  QueryRecord failed;
  failed.outcome = QueryOutcome::kFailed;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(recorder.Observe(failed, log, nullptr).has_value());
  }
  EXPECT_EQ(recorder.dumps(), 2);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Prometheus serialization + exposition server

// The line grammar subset our serializer emits: comments, metric lines,
// blanks.
bool ParsesAsPrometheusText(const std::string& text) {
  static const std::regex kLine(
      R"(^(?:#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?\s+[0-9eE+.\-]+|)$)");
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!std::regex_match(line, kLine)) return false;
  }
  return true;
}

MetricsSnapshot SampleSnapshot() {
  MetricsRegistry registry;
  registry.AddCounter("exec.tuples_produced", 48);
  registry.RaiseMax("exec.peak_bytes", 496);
  for (uint64_t v : {10u, 20u, 1000u, 5000u}) {
    registry.RecordHistogram("op.rows_out", v);
  }
  return registry.Snapshot();
}

TEST(PrometheusTest, SanitizesNamesAndTypesEveryMetric) {
  const std::string text = MetricsToPrometheusText(SampleSnapshot());
  EXPECT_NE(text.find("# TYPE ppr_exec_tuples_produced counter\n"
                      "ppr_exec_tuples_produced 48\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ppr_exec_peak_bytes gauge\n"
                      "ppr_exec_peak_bytes 496\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ppr_op_rows_out histogram"), std::string::npos);
  EXPECT_NE(text.find("ppr_op_rows_out_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("ppr_op_rows_out_sum 6030"), std::string::npos);
  EXPECT_NE(text.find("ppr_op_rows_out_count 4"), std::string::npos);
  EXPECT_NE(text.find("ppr_op_rows_out_p50 "), std::string::npos);
  EXPECT_NE(text.find("ppr_op_rows_out_p99 "), std::string::npos);
  EXPECT_TRUE(ParsesAsPrometheusText(text));
}

TEST(PrometheusTest, BucketCountsAreCumulative) {
  const std::string text = MetricsToPrometheusText(SampleSnapshot());
  // Buckets: 10,20 -> le=15 has 1, le=31 has 2; 1000 -> le=1023 has 3.
  EXPECT_NE(text.find("ppr_op_rows_out_bucket{le=\"15\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("ppr_op_rows_out_bucket{le=\"31\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("ppr_op_rows_out_bucket{le=\"1023\"} 3"),
            std::string::npos);
}

TEST(PrometheusTest, MetricNameSanitization) {
  EXPECT_EQ(PrometheusMetricName("exec.rows_out"), "ppr_exec_rows_out");
  EXPECT_EQ(PrometheusMetricName("op.join.ns"), "ppr_op_join_ns");
  EXPECT_EQ(PrometheusMetricName("weird-name!"), "ppr_weird_name_");
}

// curl-equivalent fetch: raw socket GET against the running server.
std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(StatsServerTest, ServesParsableMetricsOverHttp) {
  {
    MutexLock lock(GlobalObsMutex());
    GlobalMetrics().AddCounter("test.stats_server.fetches", 1);
  }
  StatsServer server;
  ASSERT_TRUE(server.Start(0).ok());  // ephemeral port
  ASSERT_GT(server.port(), 0);

  const std::string response = HttpGet(server.port(), "/metrics");
  ASSERT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  ASSERT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  const size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);
  EXPECT_TRUE(ParsesAsPrometheusText(body));
  EXPECT_NE(body.find("ppr_test_stats_server_fetches"), std::string::npos);

  // Server survives multiple sequential scrapes.
  EXPECT_NE(HttpGet(server.port(), "/metrics").find("200 OK"),
            std::string::npos);
  EXPECT_NE(HttpGet(server.port(), "/nope").find("404"), std::string::npos);

  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST(StatsServerTest, ResponseForRejectsNonGet) {
  EXPECT_NE(StatsServerResponseFor("POST /metrics HTTP/1.0").find("405"),
            std::string::npos);
  EXPECT_NE(StatsServerResponseFor("GET / HTTP/1.0").find("200"),
            std::string::npos);
}

}  // namespace
}  // namespace ppr
