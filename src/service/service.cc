#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/obs_lock.h"
#include "obs/telemetry/flight_recorder.h"
#include "obs/telemetry/query_log.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "runtime/thread_pool.h"

namespace ppr {
namespace {

/// Query-log artifact rewrite cadence: the service appends records one
/// request at a time (unlike the batch drain, which flushes per batch),
/// so flushing every record would rewrite the JSONL file per query.
constexpr uint64_t kFlushEvery = 64;

/// The facts a reply carries once its plan is resolved: whether the
/// entry was a cache hit, and the plan's predicted width.
void NoteResolved(const ResolvedPlan& resolved, ServiceReply* reply) {
  if (resolved.entry == nullptr) return;
  reply->cache_hit = !resolved.compiled_here;
  reply->predicted_width = static_cast<int32_t>(resolved.entry->plan_width);
}

}  // namespace

QueryService::QueryService(const Database& db, ServiceConfig config)
    : db_(db),
      config_(std::move(config)),
      num_workers_(ResolveWorkerCount(config_.num_workers)),
      db_fingerprint_(FingerprintDatabase(db)),
      admission_(config_.admission),
      cache_(config_.cache_capacity > 0 ? config_.cache_capacity : 1024),
      queue_(config_.queue_depth > 0 ? config_.queue_depth : 1) {
  InitProcessState();
  workers_.reserve(static_cast<size_t>(num_workers_));
  for (int i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Drain(); }

uint64_t QueryService::Now() const {
  if (config_.clock) return config_.clock();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void QueryService::Submit(const ServiceRequest& request, ReplyFn done) {
  {
    MutexLock lock(mu_);
    ++counters_.requests;
  }

  if (draining_.load(std::memory_order_acquire)) {
    Refuse(ServiceStatus::kShuttingDown,
           Status::Unavailable("service is draining"), nullptr,
           request.strategy, &ServiceCounters::shed_draining,
           "service.shed.draining", done);
    return;
  }

  StrategyKind strategy = config_.default_strategy;
  if (request.strategy >= 0) {
    if (request.strategy > static_cast<int32_t>(StrategyKind::kTreewidth)) {
      Refuse(ServiceStatus::kInvalid,
             Status::InvalidArgument("unknown strategy ordinal " +
                                     std::to_string(request.strategy)),
             nullptr, request.strategy, &ServiceCounters::invalid,
             "service.invalid", done);
      return;
    }
    strategy = static_cast<StrategyKind>(request.strategy);
  }
  const int32_t ordinal = static_cast<int32_t>(strategy);

  // Front-end work on the calling thread: parse, validate, and resolve
  // the plan (single-flight compile on a miss).
  Result<ParsedQuery> parsed = ParseQuery(request.query_text);
  if (!parsed.ok()) {
    Refuse(ServiceStatus::kInvalid, parsed.status(), nullptr, ordinal,
           &ServiceCounters::invalid, "service.invalid", done);
    return;
  }
  if (Status valid = parsed->query.Validate(db_); !valid.ok()) {
    Refuse(ServiceStatus::kInvalid, std::move(valid), nullptr, ordinal,
           &ServiceCounters::invalid, "service.invalid", done);
    return;
  }

  Task task;
  task.plan = ResolvePlan(&cache_, db_, db_fingerprint_, parsed->query,
                          strategy, request.seed);
  const ResolvedPlan& resolved = task.plan;
  if (resolved.entry == nullptr) {
    Refuse(ServiceStatus::kError, resolved.status, &resolved, ordinal,
           &ServiceCounters::errors, "service.errors", done);
    return;
  }

  const double bound = resolved.entry->tuples_bound;
  switch (admission_.Admit(request.client_id, bound, Now())) {
    case AdmitDecision::kAdmit:
      break;
    case AdmitDecision::kShedQuota:
      Refuse(ServiceStatus::kOverloaded,
             Status::Unavailable("client quota exhausted, retry after backoff"),
             &resolved, ordinal, &ServiceCounters::shed_quota,
             "service.shed.quota", done);
      return;
    case AdmitDecision::kShedBound:
      Refuse(ServiceStatus::kOverloaded,
             Status::Unavailable(
                 "predicted tuple bound " + std::to_string(bound) +
                 " does not fit the currently available admission headroom"),
             &resolved, ordinal, &ServiceCounters::shed_bound,
             "service.shed.bound", done);
      return;
    case AdmitDecision::kRejectBound:
      Refuse(ServiceStatus::kRejected,
             Status::Unavailable(
                 "predicted tuple bound " + std::to_string(bound) +
                 " exceeds the configured admission headroom " +
                 std::to_string(admission_.config().max_inflight_tuple_bound) +
                 "; this query cannot be admitted under this configuration"),
             &resolved, ordinal, &ServiceCounters::rejected_bound,
             "service.rejected_bound", done);
      return;
  }

  task.strategy = strategy;
  task.budget = config_.max_tuple_budget;
  if (request.tuple_budget > 0 &&
      request.tuple_budget <
          static_cast<uint64_t>(config_.max_tuple_budget)) {
    task.budget = static_cast<Counter>(request.tuple_budget);
  }
  task.deadline_ms =
      request.deadline_ms > 0 ? request.deadline_ms : config_.default_deadline_ms;
  task.arrival_ns = Now();
  task.done = done;  // copy: Submit keeps `done` for the shed paths below

  inflight_.fetch_add(1, std::memory_order_acq_rel);
  // TryPush moves the task only when it succeeds, so `resolved` is still
  // its plan on the shed paths below.
  const QueuePushOutcome pushed = queue_.TryPush(task);
  if (pushed == QueuePushOutcome::kOk) {
    {
      MutexLock lock(mu_);
      ++counters_.admitted;
    }
    MutexLock obs(GlobalObsMutex());
    GlobalMetrics().AddCounter("service.admitted", 1);
    GlobalMetrics().RaiseMax("service.inflight",
                             inflight_.load(std::memory_order_acquire));
    return;
  }

  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  admission_.Release(bound);
  if (pushed == QueuePushOutcome::kClosed) {
    Refuse(ServiceStatus::kShuttingDown,
           Status::Unavailable("service is draining"), &resolved, ordinal,
           &ServiceCounters::shed_draining, "service.shed.draining", done);
  } else {
    Refuse(ServiceStatus::kOverloaded,
           Status::Unavailable("admission queue full (capacity " +
                               std::to_string(queue_.capacity()) + ")"),
           &resolved, ordinal, &ServiceCounters::shed_queue,
           "service.shed.queue", done);
  }
}

ServiceReply QueryService::Execute(const ServiceRequest& request) {
  struct Latch {
    Mutex mu;
    CondVar cv;
    bool done GUARDED_BY(mu) = false;
    ServiceReply reply GUARDED_BY(mu);
  };
  auto latch = std::make_shared<Latch>();
  Submit(request, [latch](ServiceReply reply) {
    MutexLock lock(latch->mu);
    latch->reply = std::move(reply);
    latch->done = true;
    latch->cv.NotifyAll();
  });
  MutexLock lock(latch->mu);
  while (!latch->done) latch->cv.Wait(latch->mu);
  return latch->reply;
}

void QueryService::WorkerLoop() {
  ExecArena arena;
  // Worker-private span shard, holding one request's spans at a time: it
  // is merged into the global sink per request under the obs capability
  // when tracing is on (the ExecuteShared contract: spans never go to the
  // process-wide sink directly), and handed to the flight recorder, whose
  // dumps then hold the spans of the request that triggered them.
  const bool spans =
      GlobalTraceSinkIfEnabled() != nullptr || FlightRecorderEnabled();
  std::unique_ptr<TraceSink> trace =
      spans ? std::make_unique<TraceSink>() : nullptr;
  while (true) {
    std::optional<Task> task = queue_.Pop();
    if (!task.has_value()) return;
    ProcessTask(&*task, &arena, trace.get());
    if (trace != nullptr) trace->Clear();
  }
}

void QueryService::ProcessTask(Task* task, ExecArena* arena,
                               TraceSink* trace) {
  const uint64_t now = Now();
  const CachedPlan& entry = *task->plan.entry;
  ServiceReply reply;
  NoteResolved(task->plan, &reply);
  reply.queue_ns =
      now >= task->arrival_ns ? static_cast<int64_t>(now - task->arrival_ns)
                              : 0;

  // Deadline checked at dequeue: a request that already waited past its
  // deadline is answered without burning any execution work on it.
  if (task->deadline_ms > 0 &&
      reply.queue_ns > static_cast<int64_t>(task->deadline_ms) * 1000000) {
    admission_.Release(entry.tuples_bound);
    reply.status = ServiceStatus::kDeadlineExceeded;
    reply.detail = Status::Unavailable(
        "deadline of " + std::to_string(task->deadline_ms) +
        " ms expired in the admission queue");
    FinishAdmitted(task, reply, &ServiceCounters::deadline_expired,
                   "service.deadline_expired", nullptr, nullptr);
    return;
  }

  MetricsRegistry run;
  const ExecutionResult result =
      entry.physical.ExecuteShared(arena, task->budget, trace, &run);
  admission_.Release(entry.tuples_bound);

  reply.wall_ns = static_cast<int64_t>(result.seconds * 1e9);
  reply.stats = result.stats;
  int64_t ServiceCounters::*counter = &ServiceCounters::errors;
  std::string_view event = "service.errors";
  if (result.status.ok()) {
    reply.status = ServiceStatus::kOk;
    reply.detail = Status::Ok();
    reply.output =
        RemapOutputFromCanonical(result.output, task->plan.from_canonical);
    counter = &ServiceCounters::ok;
    event = "service.ok";
  } else if (result.status.code() == StatusCode::kResourceExhausted) {
    reply.status = ServiceStatus::kBudgetExhausted;
    reply.detail = result.status;
    counter = &ServiceCounters::budget_exhausted;
    event = "service.budget_exhausted";
  } else {
    reply.status = ServiceStatus::kError;
    reply.detail = result.status;
  }
  FinishAdmitted(task, reply, counter, event, &run, trace);
}

void QueryService::FinishAdmitted(Task* task, const ServiceReply& reply,
                                  int64_t ServiceCounters::*counter,
                                  std::string_view event,
                                  const MetricsRegistry* run,
                                  const TraceSink* trace) {
  {
    MutexLock lock(mu_);
    ++counters_.completed;
    ++(counters_.*counter);
  }
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  RecordOutcome(reply, task->plan.fingerprint,
                static_cast<int32_t>(task->strategy), event,
                /*admitted=*/true, run, trace);
  task->done(reply);
}

void QueryService::Refuse(ServiceStatus status, Status detail,
                          const ResolvedPlan* resolved,
                          int32_t strategy_ordinal,
                          int64_t ServiceCounters::*counter,
                          std::string_view event, const ReplyFn& done) {
  {
    MutexLock lock(mu_);
    ++(counters_.*counter);
  }
  ServiceReply reply;
  reply.status = status;
  reply.detail = std::move(detail);
  if (resolved != nullptr) NoteResolved(*resolved, &reply);
  RecordOutcome(reply, resolved != nullptr ? resolved->fingerprint : 0,
                strategy_ordinal, event, /*admitted=*/false, nullptr,
                nullptr);
  done(reply);
}

void QueryService::RecordOutcome(const ServiceReply& reply,
                                 uint64_t fingerprint,
                                 int32_t strategy_ordinal,
                                 std::string_view event, bool admitted,
                                 const MetricsRegistry* run,
                                 const TraceSink* trace) {
  MutexLock lock(GlobalObsMutex());
  MetricsRegistry& global = GlobalMetrics();
  if (run != nullptr) global.Merge(*run);
  if (trace != nullptr && GlobalTraceSinkIfEnabled() != nullptr) {
    MergeIntoGlobalSink(*trace);
  }
  global.AddCounter("service.requests", 1);
  global.AddCounter(event, 1);
  if (admitted) {
    global.AddCounter("service.completed", 1);
    global.RecordHistogram("service.queue_ns",
                           static_cast<uint64_t>(std::max<int64_t>(
                               reply.queue_ns, 0)));
  }
  if (reply.ok()) {
    global.RecordHistogram("service.wall_ns",
                           static_cast<uint64_t>(std::max<int64_t>(
                               reply.wall_ns, 0)));
  }

  QueryLog* qlog = GlobalQueryLogIfEnabled();
  if (qlog == nullptr) return;
  QueryRecord rec;
  rec.fingerprint = fingerprint;
  rec.strategy = strategy_ordinal;
  rec.source = QuerySource::kService;
  rec.cache_hit = reply.cache_hit;
  ClassifyStatus(reply.detail, &rec);
  rec.wall_ns = reply.wall_ns;
  rec.tuples_produced = static_cast<int64_t>(reply.stats.tuples_produced);
  rec.output_rows = reply.ok() ? reply.output.size() : -1;
  rec.peak_bytes = static_cast<int64_t>(reply.stats.peak_bytes);
  rec.max_arity = reply.stats.max_intermediate_arity;
  rec.predicted_width = reply.predicted_width;
  rec.bound_headroom = reply.predicted_width >= 0
                           ? reply.predicted_width - rec.max_arity
                           : 0;
  rec.seq = qlog->Append(rec);
  // Shed/deadline/error anomalies (not client typos) arm the flight
  // recorder: the dump is the overload evidence.
  if (reply.status != ServiceStatus::kInvalid) {
    // Still under the MutexLock taken at the top of RecordOutcome; the
    // lint's 20-line window cannot see that far back.
    if (FlightRecorder* flights =
            GlobalFlightRecorderIfEnabled();  // pprlint: allow(obs-lock)
        flights != nullptr) {
      (void)flights->Observe(rec, *qlog, trace);
    }
  }
  if (records_since_flush_.fetch_add(1, std::memory_order_acq_rel) + 1 >=
      kFlushEvery) {
    records_since_flush_.store(0, std::memory_order_release);
    // Same RecordOutcome-wide MutexLock hold as above.
    (void)FlushQueryLogArtifact();  // pprlint: allow(obs-lock)
  }
}

void QueryService::Drain() {
  {
    MutexLock lock(mu_);
    if (drained_) return;
    drained_ = true;
  }
  // Refuse new submits, let the workers finish everything already
  // admitted (Close() lets consumers drain remaining items), join them,
  // then flush the telemetry artifacts.
  draining_.store(true, std::memory_order_release);
  queue_.Close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  MutexLock obs(GlobalObsMutex());
  if (GlobalQueryLogIfEnabled() != nullptr) (void)FlushQueryLogArtifact();
  if (GlobalTraceSinkIfEnabled() != nullptr) (void)FlushTraceArtifacts();
}

ServiceCounters QueryService::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

std::string QueryToText(const ConjunctiveQuery& query) {
  std::string out = "pi{";
  bool first = true;
  for (const AttrId attr : query.free_vars()) {
    if (!first) out += ", ";
    first = false;
    out += "v" + std::to_string(attr);
  }
  out += "} ";
  first = true;
  for (const Atom& atom : query.atoms()) {
    if (!first) out += " & ";
    first = false;
    out += atom.relation;
    out += "(";
    bool first_arg = true;
    for (const AttrId arg : atom.args) {
      if (!first_arg) out += ", ";
      first_arg = false;
      out += "v" + std::to_string(arg);
    }
    out += ")";
  }
  return out;
}

}  // namespace ppr
