#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchlib/harness.h"
#include "common/mutex.h"
#include "encode/kcolor.h"
#include "obs/obs_lock.h"
#include "obs/telemetry/flight_recorder.h"
#include "obs/telemetry/query_log.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "relational/database.h"
#include "runtime/batch_executor.h"
#include "service/admission.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"
#include "test_util.h"

namespace ppr {
namespace {

Database ThreeColorDb() {
  Database db;
  AddColoringRelations(3, &db);
  return db;
}

bool SameRelation(const Relation& a, const Relation& b) {
  if (a.arity() != b.arity() || a.size() != b.size()) return false;
  for (int c = 0; c < a.arity(); ++c) {
    if (a.schema().attr(c) != b.schema().attr(c)) return false;
  }
  const int64_t values = a.size() * a.arity();
  return values == 0 ||
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(values) * sizeof(Value)) == 0;
}

ServiceRequest MakeRequest(std::string text, uint64_t id = 1,
                           uint64_t client = 0) {
  ServiceRequest request;
  request.request_id = id;
  request.client_id = client;
  request.query_text = std::move(text);
  return request;
}

// ---------------------------------------------------------------------------
// Protocol

TEST(ProtocolTest, RequestFrameRoundTrips) {
  ServiceRequest request;
  request.request_id = 0x1122334455667788ULL;
  request.client_id = 42;
  request.strategy = 3;
  request.seed = 7;
  request.tuple_budget = 1000;
  request.deadline_ms = 250;
  request.query_text = "pi{X, Y} edge(X, Z) & edge(Z, Y)";

  const std::string frame = EncodeRequestFrame(request);
  ASSERT_GE(frame.size(), 4u);
  const Result<Frame> decoded =
      DecodeFrameBody(std::string_view(frame).substr(4));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, FrameType::kRequest);
  EXPECT_EQ(decoded->request_id, request.request_id);

  const Result<ServiceRequest> back =
      DecodeRequestPayload(decoded->payload, decoded->request_id);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->request_id, request.request_id);
  EXPECT_EQ(back->client_id, request.client_id);
  EXPECT_EQ(back->strategy, request.strategy);
  EXPECT_EQ(back->seed, request.seed);
  EXPECT_EQ(back->tuple_budget, request.tuple_budget);
  EXPECT_EQ(back->deadline_ms, request.deadline_ms);
  EXPECT_EQ(back->query_text, request.query_text);
}

TEST(ProtocolTest, ReplyHeaderFrameRoundTrips) {
  ReplyHeader header;
  header.status = ServiceStatus::kRejected;
  header.status_code = static_cast<int32_t>(StatusCode::kResourceExhausted);
  header.cache_hit = true;
  header.predicted_width = 4;
  header.attrs = {2, 0, 5};
  header.message = "bound 1e9 exceeds headroom 100";

  const std::string frame = EncodeReplyHeaderFrame(99, header);
  const Result<Frame> decoded =
      DecodeFrameBody(std::string_view(frame).substr(4));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, FrameType::kReplyHeader);
  EXPECT_EQ(decoded->request_id, 99u);

  const Result<ReplyHeader> back = DecodeReplyHeaderPayload(decoded->payload);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->status, header.status);
  EXPECT_EQ(back->status_code, header.status_code);
  EXPECT_EQ(back->cache_hit, header.cache_hit);
  EXPECT_EQ(back->predicted_width, header.predicted_width);
  EXPECT_EQ(back->attrs, header.attrs);
  EXPECT_EQ(back->message, header.message);
}

TEST(ProtocolTest, ReplyHeaderWithOversizedArityIsRejected) {
  // status, status_code, cache_hit, predicted_width, then an arity of
  // 0xFFFFFFFF with 3 payload bytes behind it: the decoder must refuse
  // the header before sizing the schema from the declared arity.
  std::string payload;
  payload.push_back(static_cast<char>(ServiceStatus::kOk));
  payload.append(4, '\0');
  payload.push_back('\0');
  payload.append(4, '\0');
  payload.append(4, '\xff');
  payload.append(3, '\0');
  ASSERT_EQ(payload.size(), 17u);
  const Result<ReplyHeader> decoded = DecodeReplyHeaderPayload(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, TrailerFrameRoundTrips) {
  ReplyTrailer trailer;
  trailer.nonempty = true;
  trailer.tuples_produced = 123;
  trailer.max_intermediate_rows = 456;
  trailer.peak_bytes = 789;
  trailer.max_arity = 5;
  trailer.num_joins = 3;
  trailer.num_projections = 2;
  trailer.num_semijoins = 1;
  trailer.wall_ns = 1000000;
  trailer.queue_ns = 2000;

  const std::string frame = EncodeTrailerFrame(7, trailer);
  const Result<Frame> decoded =
      DecodeFrameBody(std::string_view(frame).substr(4));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, FrameType::kTrailer);

  const Result<ReplyTrailer> back = DecodeTrailerPayload(decoded->payload);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->nonempty, trailer.nonempty);
  EXPECT_EQ(back->tuples_produced, trailer.tuples_produced);
  EXPECT_EQ(back->max_intermediate_rows, trailer.max_intermediate_rows);
  EXPECT_EQ(back->peak_bytes, trailer.peak_bytes);
  EXPECT_EQ(back->max_arity, trailer.max_arity);
  EXPECT_EQ(back->num_joins, trailer.num_joins);
  EXPECT_EQ(back->num_projections, trailer.num_projections);
  EXPECT_EQ(back->num_semijoins, trailer.num_semijoins);
  EXPECT_EQ(back->wall_ns, trailer.wall_ns);
  EXPECT_EQ(back->queue_ns, trailer.queue_ns);
}

TEST(ProtocolTest, RowBatchFrameRoundTrips) {
  Relation rows((Schema({3, 1})));
  for (Value v = 0; v < 10; ++v) {
    const Value tuple[2] = {v, v * 10};
    rows.AddTuple(tuple);
  }
  // Encode the middle slice [2, 7).
  const std::string frame = EncodeRowBatchFrame(5, rows, 2, 5);
  const Result<Frame> decoded =
      DecodeFrameBody(std::string_view(frame).substr(4));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, FrameType::kRowBatch);

  Relation out((Schema({3, 1})));
  ASSERT_TRUE(DecodeRowBatchPayload(decoded->payload, &out).ok());
  ASSERT_EQ(out.size(), 5);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out.at(i, 0), rows.at(i + 2, 0));
    EXPECT_EQ(out.at(i, 1), rows.at(i + 2, 1));
  }
}

TEST(ProtocolTest, TruncatedAndMalformedFramesAreRejected) {
  // Truncating a valid request payload must fail cleanly at every cut.
  const std::string frame = EncodeRequestFrame(MakeRequest("pi{} edge(X, Y)"));
  const std::string_view body = std::string_view(frame).substr(4);
  const Result<Frame> whole = DecodeFrameBody(body);
  ASSERT_TRUE(whole.ok());
  for (size_t cut = 0; cut < whole->payload.size(); ++cut) {
    const Result<ServiceRequest> truncated = DecodeRequestPayload(
        std::string_view(whole->payload).substr(0, cut), 1);
    EXPECT_FALSE(truncated.ok()) << "cut at " << cut;
  }
  // A frame body too short for type + id fails.
  EXPECT_FALSE(DecodeFrameBody("abc").ok());
  // An unknown frame type fails.
  std::string bogus(body);
  bogus[0] = 0x7f;
  EXPECT_FALSE(DecodeFrameBody(bogus).ok());
}

// ---------------------------------------------------------------------------
// AdmissionController

TEST(AdmissionTest, QuotaTokensRefillDeterministically) {
  AdmissionController::Config config;
  config.quota_tokens = 2;
  config.quota_refill_per_sec = 1.0;
  AdmissionController admission(config);

  uint64_t now = 1'000'000'000;  // t = 1s
  EXPECT_EQ(admission.Admit(7, 1.0, now), AdmitDecision::kAdmit);
  EXPECT_EQ(admission.Admit(7, 1.0, now), AdmitDecision::kAdmit);
  EXPECT_EQ(admission.Admit(7, 1.0, now), AdmitDecision::kShedQuota);
  // Another client has its own bucket.
  EXPECT_EQ(admission.Admit(8, 1.0, now), AdmitDecision::kAdmit);
  // One second later one token has refilled for client 7.
  now += 1'000'000'000;
  EXPECT_EQ(admission.Admit(7, 1.0, now), AdmitDecision::kAdmit);
  EXPECT_EQ(admission.Admit(7, 1.0, now), AdmitDecision::kShedQuota);
}

TEST(AdmissionTest, BoundGateDistinguishesRejectFromShed) {
  AdmissionController::Config config;
  config.max_inflight_tuple_bound = 100.0;
  AdmissionController admission(config);

  // A bound that can never fit is a permanent rejection.
  EXPECT_EQ(admission.Admit(1, 1000.0, 0), AdmitDecision::kRejectBound);
  // An unbounded prediction never fits either.
  EXPECT_EQ(admission.Admit(1, std::numeric_limits<double>::infinity(), 0),
            AdmitDecision::kRejectBound);
  // Two 60-bound requests fit one at a time but not together: the second
  // is shed (transient), and Release restores the headroom.
  EXPECT_EQ(admission.Admit(1, 60.0, 0), AdmitDecision::kAdmit);
  EXPECT_EQ(admission.Admit(2, 60.0, 0), AdmitDecision::kShedBound);
  EXPECT_DOUBLE_EQ(admission.inflight_bound(), 60.0);
  admission.Release(60.0);
  EXPECT_DOUBLE_EQ(admission.inflight_bound(), 0.0);
  EXPECT_EQ(admission.Admit(2, 60.0, 0), AdmitDecision::kAdmit);
}

// ---------------------------------------------------------------------------
// QueryService

TEST(QueryServiceTest, ExecutesQueriesAndHitsThePlanCache) {
  const Database db = ThreeColorDb();
  ServiceConfig config;
  config.num_workers = 1;
  QueryService service(db, config);

  const ServiceReply first = service.Execute(MakeRequest("pi{X} edge(X, Y)"));
  ASSERT_TRUE(first.ok()) << first.detail.ToString();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.output.arity(), 1);
  EXPECT_EQ(first.output.size(), 3);  // the three colors
  EXPECT_GE(first.predicted_width, 1);
  EXPECT_GT(first.wall_ns, 0);

  const ServiceReply second = service.Execute(MakeRequest("pi{X} edge(X, Y)"));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(SameRelation(first.output, second.output));

  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.requests, 2);
  EXPECT_EQ(counters.admitted, 2);
  EXPECT_EQ(counters.completed, 2);
  EXPECT_EQ(counters.ok, 2);
  EXPECT_EQ(service.cache_stats().misses, 1);
  EXPECT_EQ(service.cache_stats().hits, 1);
}

TEST(QueryServiceTest, BooleanQueryAnswersThroughTheNullaryRelation) {
  const Database db = ThreeColorDb();
  QueryService service(db, ServiceConfig{});
  const ServiceReply reply = service.Execute(MakeRequest("pi{} edge(X, Y)"));
  ASSERT_TRUE(reply.ok()) << reply.detail.ToString();
  EXPECT_EQ(reply.output.arity(), 0);
  EXPECT_EQ(reply.output.size(), 1);  // nonempty: 3-coloring exists
}

TEST(QueryServiceTest, ParseAndValidationErrorsAreInvalid) {
  const Database db = ThreeColorDb();
  QueryService service(db, ServiceConfig{});

  const ServiceReply garbled = service.Execute(MakeRequest("pi{X edge("));
  EXPECT_EQ(garbled.status, ServiceStatus::kInvalid);
  EXPECT_FALSE(garbled.detail.ok());

  const ServiceReply unknown =
      service.Execute(MakeRequest("pi{X} nosuch(X, Y)"));
  EXPECT_EQ(unknown.status, ServiceStatus::kInvalid);

  ServiceRequest bad_strategy = MakeRequest("pi{X} edge(X, Y)");
  bad_strategy.strategy = 99;
  EXPECT_EQ(service.Execute(bad_strategy).status, ServiceStatus::kInvalid);

  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.requests, 3);
  EXPECT_EQ(counters.invalid, 3);
  EXPECT_EQ(counters.admitted, 0);
}

TEST(QueryServiceTest, TinyTupleBudgetIsBudgetExhausted) {
  const Database db = ThreeColorDb();
  QueryService service(db, ServiceConfig{});
  ServiceRequest request =
      MakeRequest("pi{X, Y} edge(X, Z) & edge(Z, Y)");
  request.tuple_budget = 1;
  const ServiceReply reply = service.Execute(request);
  EXPECT_EQ(reply.status, ServiceStatus::kBudgetExhausted);
  EXPECT_EQ(service.counters().budget_exhausted, 1);
  // The admission charge was released despite the failed execution.
  EXPECT_DOUBLE_EQ(service.admission().inflight_bound(), 0.0);
}

// The flight recorder needs no tracing: with PPR_TRACE off, a
// budget-exhausted request's dump holds that request's own spans, and
// none of the request served before it, whose plan has more nodes.
TEST(QueryServiceTest, FlightDumpHoldsTheTriggeringRequestsSpans) {
  ASSERT_FALSE(TracingEnabled());
  // The flight recorder, and the in-memory query log whose medians it
  // reads, on for this test only.
  struct FlightSession {
    explicit FlightSession(std::string flight_dir)
        : dir(std::move(flight_dir)) {
      std::filesystem::remove_all(dir);
      DisableQueryLog();
      EnableQueryLog("");
      FlightRecorderOptions options;
      options.dir = dir;
      EnableFlightRecorder(options);
    }
    ~FlightSession() {
      DisableFlightRecorder();
      DisableQueryLog();
      std::filesystem::remove_all(dir);
    }
    std::string dir;
  };
  const FlightSession session(
      (std::filesystem::temp_directory_path() / "ppr_service_flights")
          .string());

  const Database db = ThreeColorDb();
  ServiceConfig config;
  config.num_workers = 1;
  std::string dump;
  {
    QueryService service(db, config);
    const std::string wide =
        "pi{X} edge(X, Y) & edge(Y, Z) & edge(Z, W) & edge(W, V)";
    ServiceRequest first = MakeRequest(wide, 1);
    first.strategy = static_cast<int32_t>(StrategyKind::kStraightforward);
    ASSERT_TRUE(service.Execute(first).ok());
    ServiceRequest exhausted =
        MakeRequest("pi{X, Y} edge(X, Z) & edge(Z, Y)", 2);
    exhausted.strategy = static_cast<int32_t>(StrategyKind::kStraightforward);
    exhausted.tuple_budget = 1;
    ASSERT_EQ(service.Execute(exhausted).status,
              ServiceStatus::kBudgetExhausted);
    MutexLock lock(GlobalObsMutex());
    FlightRecorder* recorder = GlobalFlightRecorderIfEnabled();
    ASSERT_NE(recorder, nullptr);
    std::ifstream in(recorder->last_dump_path());
    std::stringstream content;
    content << in.rdbuf();
    dump = content.str();
  }

  ASSERT_NE(dump.find("\"trigger\":\"budget_exhausted\""), std::string::npos)
      << dump;
  // The exhausted request's plan: a left-deep join of its two atoms.
  Result<ParsedQuery> parsed = ParseQuery("pi{X, Y} edge(X, Z) & edge(Z, Y)");
  ASSERT_TRUE(parsed.ok());
  const size_t plan_nodes =
      PreOrderNodes(BuildStrategyPlan(StrategyKind::kStraightforward,
                                      parsed->query, 0))
          .size();
  const size_t spans_at = dump.find("\"spans\":[");
  ASSERT_NE(spans_at, std::string::npos);
  int spans = 0;
  for (size_t at = dump.find("\"node\":", spans_at); at != std::string::npos;
       at = dump.find("\"node\":", at + 1)) {
    const long node = std::strtol(dump.c_str() + at + 7, nullptr, 10);
    EXPECT_GE(node, 0) << dump;
    EXPECT_LT(node, static_cast<long>(plan_nodes)) << dump;
    ++spans;
  }
  EXPECT_GT(spans, 0) << dump;
}

TEST(QueryServiceTest, QuotaShedsWithInjectedClock) {
  const Database db = ThreeColorDb();
  std::atomic<uint64_t> now{1'000'000'000};
  ServiceConfig config;
  config.num_workers = 1;
  config.admission.quota_tokens = 1;
  config.admission.quota_refill_per_sec = 1.0;
  config.clock = [&now] { return now.load(); };
  QueryService service(db, config);

  EXPECT_TRUE(service.Execute(MakeRequest("pi{X} edge(X, Y)", 1, 7)).ok());
  const ServiceReply shed =
      service.Execute(MakeRequest("pi{X} edge(X, Y)", 2, 7));
  EXPECT_EQ(shed.status, ServiceStatus::kOverloaded);
  // The refused request never executed, but its plan was resolved: the
  // reply says the entry was a cache hit and what width it predicts.
  EXPECT_EQ(shed.wall_ns, 0);
  EXPECT_TRUE(shed.cache_hit);
  EXPECT_GE(shed.predicted_width, 1);
  // One second of fake time refills the token.
  now.fetch_add(1'000'000'000);
  EXPECT_TRUE(service.Execute(MakeRequest("pi{X} edge(X, Y)", 3, 7)).ok());

  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.requests, 3);
  EXPECT_EQ(counters.ok, 2);
  EXPECT_EQ(counters.shed_quota, 1);
}

TEST(QueryServiceTest, ImpossibleBoundIsPermanentlyRejected) {
  const Database db = ThreeColorDb();
  ServiceConfig config;
  // A headroom no real query's predicted bound fits: every admission
  // attempt is a permanent rejection, signalled kRejected (not
  // kOverloaded) so clients know not to retry.
  config.admission.max_inflight_tuple_bound = 1e-9;
  QueryService service(db, config);
  const ServiceReply reply = service.Execute(MakeRequest("pi{X} edge(X, Y)"));
  EXPECT_EQ(reply.status, ServiceStatus::kRejected);
  // The rejection came after the plan was resolved, and says so.
  EXPECT_FALSE(reply.cache_hit);
  EXPECT_GE(reply.predicted_width, 1);
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.rejected_bound, 1);
  EXPECT_EQ(counters.admitted, 0);
}

// Holds the single worker hostage inside a reply callback so the test
// controls exactly what sits in the queue.
struct WorkerLatch {
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};

  void Hold() {
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
  }
  void WaitEntered() const {
    while (!entered.load()) std::this_thread::yield();
  }
};

TEST(QueryServiceTest, FullQueueShedsWithoutDropping) {
  const Database db = ThreeColorDb();
  ServiceConfig config;
  config.num_workers = 1;
  config.queue_depth = 1;
  QueryService service(db, config);

  WorkerLatch latch;
  std::atomic<int> replies{0};
  std::optional<ServiceStatus> blocked_status;
  service.Submit(MakeRequest("pi{X} edge(X, Y)", 1),
                 [&latch, &replies, &blocked_status](ServiceReply reply) {
                   blocked_status = reply.status;
                   replies.fetch_add(1);
                   latch.Hold();
                 });
  latch.WaitEntered();  // the worker is now parked in the callback

  // Fills the depth-1 queue.
  std::optional<ServiceStatus> queued_status;
  service.Submit(MakeRequest("pi{X} edge(X, Y)", 2),
                 [&replies, &queued_status](ServiceReply reply) {
                   queued_status = reply.status;
                   replies.fetch_add(1);
                 });
  // Queue full: shed fast, on the submitting thread, with kOverloaded.
  std::optional<ServiceStatus> shed_status;
  service.Submit(MakeRequest("pi{X} edge(X, Y)", 3),
                 [&replies, &shed_status](ServiceReply reply) {
                   shed_status = reply.status;
                   replies.fetch_add(1);
                 });
  ASSERT_TRUE(shed_status.has_value());  // refusal is synchronous
  EXPECT_EQ(*shed_status, ServiceStatus::kOverloaded);
  EXPECT_EQ(service.counters().shed_queue, 1);

  latch.release.store(true);
  service.Drain();
  // Every submit got exactly one reply; the queued request ran after the
  // worker was released, not dropped by the shed.
  EXPECT_EQ(replies.load(), 3);
  EXPECT_EQ(blocked_status.value(), ServiceStatus::kOk);
  EXPECT_EQ(queued_status.value(), ServiceStatus::kOk);
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(counters.requests, 3);
  EXPECT_EQ(counters.completed, 2);
  EXPECT_EQ(counters.ok, 2);
}

TEST(QueryServiceTest, DeadlineExpiresWhileQueuedWithInjectedClock) {
  const Database db = ThreeColorDb();
  std::atomic<uint64_t> now{1'000'000'000};
  ServiceConfig config;
  config.num_workers = 1;
  config.queue_depth = 4;
  config.clock = [&now] { return now.load(); };
  QueryService service(db, config);

  WorkerLatch latch;
  service.Submit(MakeRequest("pi{X} edge(X, Y)", 1),
                 [&latch](ServiceReply) { latch.Hold(); });
  latch.WaitEntered();

  ServiceRequest doomed = MakeRequest("pi{X} edge(X, Y)", 2);
  doomed.deadline_ms = 10;
  std::atomic<bool> done{false};
  ServiceReply reply;
  service.Submit(doomed, [&done, &reply](ServiceReply r) {
    reply = std::move(r);
    done.store(true);
  });
  // The deadline passes while the request waits in the queue.
  now.fetch_add(20'000'000);
  latch.release.store(true);
  while (!done.load()) std::this_thread::yield();

  EXPECT_EQ(reply.status, ServiceStatus::kDeadlineExceeded);
  EXPECT_EQ(reply.wall_ns, 0);            // never executed
  EXPECT_GE(reply.queue_ns, 20'000'000);  // measured with the fake clock
  service.Drain();
  EXPECT_EQ(service.counters().deadline_expired, 1);
  EXPECT_DOUBLE_EQ(service.admission().inflight_bound(), 0.0);
}

TEST(QueryServiceTest, DrainRefusesNewWorkAndIsIdempotent) {
  const Database db = ThreeColorDb();
  QueryService service(db, ServiceConfig{});
  EXPECT_TRUE(service.Execute(MakeRequest("pi{X} edge(X, Y)")).ok());
  service.Drain();
  EXPECT_TRUE(service.draining());
  const ServiceReply refused = service.Execute(MakeRequest("pi{} edge(X, Y)"));
  EXPECT_EQ(refused.status, ServiceStatus::kShuttingDown);
  EXPECT_EQ(service.counters().shed_draining, 1);
  service.Drain();  // second drain is a no-op
  EXPECT_EQ(service.inflight(), 0);
}

TEST(QueryServiceTest, MatchesTheBatchExecutorByteForByte) {
  const Database db = ThreeColorDb();
  const std::vector<std::string> texts = {
      "pi{X} edge(X, Y)",
      "pi{X, Y} edge(X, Y)",
      "pi{X, Z} edge(X, Y) & edge(Y, Z)",
      "pi{} edge(X, Y) & edge(Y, Z) & edge(Z, X)",
      "pi{A, D} edge(A, B) & edge(B, C) & edge(C, D)",
  };
  // Reference: the direct BatchExecutor path over the identical parsed
  // queries, single-threaded.
  std::vector<BatchJob> jobs;
  for (const std::string& text : texts) {
    Result<ParsedQuery> parsed = ParseQuery(text);
    ASSERT_TRUE(parsed.ok()) << text;
    BatchJob job;
    job.query = std::move(parsed->query);
    jobs.push_back(std::move(job));
  }
  BatchOptions options;
  options.num_threads = 1;
  BatchExecutor reference_executor(db, options);
  const std::vector<ExecutionResult> reference =
      std::move(reference_executor.Run(jobs).results);

  for (const int workers : {1, 2, 4, 8}) {
    ServiceConfig config;
    config.num_workers = workers;
    QueryService service(db, config);
    for (size_t i = 0; i < texts.size(); ++i) {
      const ServiceReply reply =
          service.Execute(MakeRequest(texts[i], i + 1));
      ASSERT_TRUE(reply.ok()) << texts[i] << " at " << workers << " workers: "
                              << reply.detail.ToString();
      EXPECT_TRUE(SameRelation(reply.output, reference[i].output))
          << texts[i] << " differs at " << workers << " workers";
    }
  }
}

TEST(QueryServiceTest, ConcurrentClientsEachGetExactlyOneReply) {
  const Database db = ThreeColorDb();
  ServiceConfig config;
  config.num_workers = 4;
  config.queue_depth = 64;
  QueryService service(db, config);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::atomic<int64_t> ok_count{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&service, &ok_count, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const ServiceReply reply = service.Execute(MakeRequest(
            i % 2 == 0 ? "pi{X} edge(X, Y)" : "pi{X, Y} edge(X, Y)",
            static_cast<uint64_t>(t) << 32 | static_cast<uint64_t>(i),
            static_cast<uint64_t>(t)));
        if (reply.ok()) ok_count.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  service.Drain();

  // Execute() returning at all proves one reply per submit; with no
  // gates configured every request must have been admitted and answered
  // OK, and the counters must reconcile exactly.
  const ServiceCounters counters = service.counters();
  EXPECT_EQ(ok_count.load(), kThreads * kPerThread);
  EXPECT_EQ(counters.requests, kThreads * kPerThread);
  EXPECT_EQ(counters.admitted, kThreads * kPerThread);
  EXPECT_EQ(counters.completed, kThreads * kPerThread);
  EXPECT_EQ(counters.ok, kThreads * kPerThread);
  EXPECT_EQ(counters.shed_total(), 0);
  EXPECT_EQ(service.inflight(), 0);
  EXPECT_DOUBLE_EQ(service.admission().inflight_bound(), 0.0);
}

TEST(QueryServiceTest, QueryToTextRoundTripsThroughTheParser) {
  const std::string text = "pi{X, Z} edge(X, Y) & edge(Y, Z) & edge(Z, X)";
  Result<ParsedQuery> first = ParseQuery(text);
  ASSERT_TRUE(first.ok());
  const std::string rendered = QueryToText(first->query);
  Result<ParsedQuery> second = ParseQuery(rendered);
  ASSERT_TRUE(second.ok()) << rendered;
  // The parser renumbers by first appearance, so the round trip is a
  // fixed point: rendering the re-parsed query reproduces the text.
  EXPECT_EQ(QueryToText(second->query), rendered);
  EXPECT_EQ(second->query.atoms().size(), first->query.atoms().size());
  EXPECT_EQ(second->query.free_vars().size(), first->query.free_vars().size());
}

// ---------------------------------------------------------------------------
// ServiceServer + ServiceClient (TCP round trip)

TEST(ServiceServerTest, TcpRoundTripMatchesInProcessExecution) {
  const Database db = ThreeColorDb();
  ServiceConfig config;
  config.num_workers = 2;
  QueryService service(db, config);
  ServiceServer server(&service, ServerConfig{});  // ephemeral port
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  Result<ServiceClient> client = ServiceClient::Connect("127.0.0.1",
                                                        server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // An arity-2 answer arrives via row batches.
  QueryService reference_service(db, ServiceConfig{});
  const std::string text = "pi{X, Y} edge(X, Z) & edge(Z, Y)";
  const ServiceReply expected = reference_service.Execute(MakeRequest(text));
  ASSERT_TRUE(expected.ok());
  Result<ServiceReply> reply = client->Call(MakeRequest(text, 11));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->ok()) << reply->detail.ToString();
  EXPECT_TRUE(SameRelation(reply->output, expected.output));
  EXPECT_EQ(reply->stats.tuples_produced, expected.stats.tuples_produced);
  EXPECT_GT(reply->wall_ns, 0);

  // A Boolean answer rides in the trailer's nonempty bit.
  reply = client->Call(MakeRequest("pi{} edge(X, Y)", 12));
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->ok());
  EXPECT_EQ(reply->output.arity(), 0);
  EXPECT_EQ(reply->output.size(), 1);

  // A parse error comes back kInvalid on the same connection, which
  // survives for the next request.
  reply = client->Call(MakeRequest("pi{X nope", 13));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->status, ServiceStatus::kInvalid);
  reply = client->Call(MakeRequest("pi{X} edge(X, Y)", 14));
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->ok());

  client->Close();
  server.Stop();
  EXPECT_EQ(server.connections_accepted(), 1);
  EXPECT_EQ(server.write_errors(), 0);
}

// Every request on concurrent TCP connections gets exactly one framed
// reply. With open admission every answer is OK. Under overload (one
// worker, a 2-deep queue, 2-token client quotas on a frozen clock, so no
// token ever refills) the refusals reach the clients and nothing is
// dropped.
TEST(ServiceServerTest, ConcurrentConnectionsAllAnswered) {
  ServiceConfig open;
  open.num_workers = 2;
  ServiceConfig overload;
  overload.num_workers = 1;
  overload.queue_depth = 2;
  overload.admission.quota_tokens = 2;
  overload.admission.quota_refill_per_sec = 1.0;
  overload.clock = [] { return uint64_t{1'000'000'000}; };

  for (const bool overloaded : {false, true}) {
    SCOPED_TRACE(overloaded ? "overload" : "open admission");
    const Database db = ThreeColorDb();
    QueryService service(db, overloaded ? overload : open);
    ServiceServer server(&service, ServerConfig{});
    ASSERT_TRUE(server.Start().ok());

    constexpr int kClients = 6;
    constexpr int kPerClient = 10;
    constexpr int64_t kRequests = kClients * kPerClient;
    std::atomic<int64_t> ok_count{0};
    std::atomic<int64_t> failures{0};  // calls that got no reply
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&server, &ok_count, &failures, c] {
        Result<ServiceClient> client =
            ServiceClient::Connect("127.0.0.1", server.port());
        if (!client.ok()) {
          failures.fetch_add(kPerClient);
          return;
        }
        for (int i = 0; i < kPerClient; ++i) {
          const Result<ServiceReply> reply = client->Call(MakeRequest(
              "pi{X} edge(X, Y)",
              static_cast<uint64_t>(c) << 32 | static_cast<uint64_t>(i),
              static_cast<uint64_t>(c)));
          if (!reply.ok()) {
            failures.fetch_add(1);
          } else if (reply->ok()) {
            ok_count.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    server.Stop();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(server.connections_accepted(), kClients);
    EXPECT_EQ(server.write_errors(), 0);
    const ServiceCounters counters = service.counters();
    EXPECT_EQ(counters.requests, kRequests);
    EXPECT_EQ(counters.errors, 0);
    EXPECT_EQ(counters.ok, ok_count.load());
    EXPECT_EQ(counters.requests,
              counters.completed + counters.invalid +
                  counters.rejected_bound + counters.shed_quota +
                  counters.shed_bound + counters.shed_queue +
                  counters.shed_draining);
    if (overloaded) {
      EXPECT_GT(counters.shed_total(), 0);
      EXPECT_EQ(counters.ok + counters.shed_total(), kRequests);
    } else {
      EXPECT_EQ(counters.ok, kRequests);
    }
  }
}

// Open file descriptors of this process.
int64_t OpenFds() {
  int64_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++count;
  }
  return count;
}

// A closed connection gives back its fd and its thread: the server reaps
// finished connections as it accepts new ones, so sequential churn holds
// the fd count flat instead of growing it by one per connection.
TEST(ServiceServerTest, ClosedConnectionsAreReaped) {
  const Database db = ThreeColorDb();
  ServiceConfig config;
  config.num_workers = 1;
  QueryService service(db, config);
  ServiceServer server(&service, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  constexpr int kCycles = 300;
  const int64_t fds_before = OpenFds();
  for (int i = 0; i < kCycles; ++i) {
    Result<ServiceClient> client =
        ServiceClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    const Result<ServiceReply> reply =
        client->Call(MakeRequest("pi{} edge(X, Y)", static_cast<uint64_t>(i)));
    ASSERT_TRUE(reply.ok() && reply->ok()) << "cycle " << i;
    client->Close();
  }
  const int64_t fds_after = OpenFds();
  server.Stop();

  EXPECT_EQ(server.connections_accepted(), kCycles);
  // The last connections may still be open: each is reaped at the accept
  // after it finished.
  EXPECT_LE(fds_after - fds_before, 8)
      << "fds before " << fds_before << " after " << fds_after;
}

}  // namespace
}  // namespace ppr
