#ifndef PPR_SERVICE_SERVICE_H_
#define PPR_SERVICE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "benchlib/harness.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/types.h"
#include "exec/executor.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"
#include "runtime/bounded_queue.h"
#include "runtime/plan_cache.h"
#include "service/admission.h"
#include "service/protocol.h"

namespace ppr {

/// Configuration of one resident query service.
struct ServiceConfig {
  /// Worker threads executing admitted requests; 0 auto-picks
  /// (ResolveWorkerCount).
  int num_workers = 1;
  /// Capacity of the bounded admission queue between the front end and
  /// the workers. A full queue sheds (fast kOverloaded), never blocks
  /// the connection thread and never drops silently.
  size_t queue_depth = 64;
  /// Admission gates (service/admission.h); zeros disable them.
  AdmissionController::Config admission;
  /// Strategy used when a request asks for the default (-1).
  StrategyKind default_strategy = StrategyKind::kBucketElimination;
  /// Server-side tuple-budget ceiling; client budgets are clamped to it.
  Counter max_tuple_budget = kCounterMax;
  /// Deadline applied when a request carries none; 0 = none.
  uint32_t default_deadline_ms = 0;
  /// Plan-cache capacity (compiled canonical plans shared across
  /// requests — the warm-cache serving path for repeated query shapes).
  size_t cache_capacity = 1024;
  /// Monotonic nanosecond clock. Null uses std::chrono::steady_clock;
  /// tests inject a fake clock to make quota refill and deadline expiry
  /// deterministic.
  std::function<uint64_t()> clock;
};

/// Everything the service decided and produced for one request — the
/// in-process mirror of the wire reply (ReplyHeader + batches + trailer).
struct ServiceReply {
  ServiceStatus status = ServiceStatus::kError;
  /// The underlying ppr::Status (OK for kOk).
  Status detail;
  /// Answer relation; meaningful only for kOk.
  Relation output;
  ExecStats stats;
  /// Execution wall time (0 when the request never executed).
  int64_t wall_ns = 0;
  /// Admission-to-dequeue wait.
  int64_t queue_ns = 0;
  bool cache_hit = false;
  int32_t predicted_width = -1;

  bool ok() const { return status == ServiceStatus::kOk; }
};

/// Deterministic service counters (mirrored into the global metrics
/// registry under the service.* names for /metrics and pprstat serve).
struct ServiceCounters {
  int64_t requests = 0;          // every Submit
  int64_t admitted = 0;          // entered the execution queue
  int64_t completed = 0;         // admitted requests answered (any status)
  int64_t ok = 0;
  int64_t invalid = 0;           // parse/validation/strategy errors
  int64_t rejected_bound = 0;    // permanent bound-based rejections
  int64_t shed_quota = 0;
  int64_t shed_bound = 0;
  int64_t shed_queue = 0;        // TryPush found the queue full
  int64_t shed_draining = 0;     // arrived after Drain started
  int64_t deadline_expired = 0;
  int64_t budget_exhausted = 0;
  int64_t errors = 0;

  int64_t shed_total() const { return shed_quota + shed_bound + shed_queue; }
};

/// The resident query service: parse → ResolvePlan → execute, behind
/// admission control and a bounded queue.
///
/// Life of a request (Submit):
///
///   1. Front-end work on the *calling* thread: parse the query text,
///      validate it against the catalog, and resolve its plan-cache
///      entry (ResolvePlan, the step BatchExecutor shares: canonicalize,
///      then a single-flight plan, analyze and compile on a miss —
///      planning cost, not execution cost; repeated query shapes hit the
///      cache and skip it entirely). The entry carries the structure's
///      fingerprint, so a hit hashes the structure once.
///   2. Admission: the entry's tuple bound (AnalyzePlan's
///      tuples_produced_bound) feeds the AdmissionController — reject
///      (bound can never fit), shed (quota/headroom/queue-full), or
///      admit.
///   3. Admitted requests enter the BoundedQueue; a worker pops, checks
///      the deadline, executes with a worker-private arena, remaps the
///      canonical output back, and completes the reply.
///
/// The reply callback fires exactly once per Submit: on a worker thread
/// for admitted requests, on the calling thread for shed/invalid ones
/// (the fast-refusal path does no execution work). Callbacks may block —
/// the worker simply stalls, which tests use to hold a worker at a known
/// point — but a production callback should only hand the reply off.
///
/// Shedding is never silent: every shed/rejected/drained request gets a
/// reply, a service.* counter, and (when the flight recorder is armed) a
/// flight dump capturing the overload evidence. A refusal after step 1
/// carries what was resolved: the fingerprint, the cache hit and the
/// predicted width.
///
/// Drain(): stop admitting (new submits answer kShuttingDown), let the
/// workers finish everything already admitted, join them, then flush
/// telemetry artifacts (query log, trace). Idempotent; the destructor
/// calls it.
class QueryService {
 public:
  using ReplyFn = std::function<void(ServiceReply)>;

  /// The database must outlive the service and all cached plans.
  QueryService(const Database& db, ServiceConfig config);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submits one request; `done` fires exactly once (see class comment).
  void Submit(const ServiceRequest& request, ReplyFn done);

  /// Blocking convenience: Submit + wait for the reply.
  ServiceReply Execute(const ServiceRequest& request);

  /// Graceful drain; see class comment.
  void Drain();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  ServiceCounters counters() const;
  const AdmissionController& admission() const { return admission_; }
  PlanCache::Stats cache_stats() const { return cache_.stats(); }
  int num_workers() const { return num_workers_; }
  /// Admitted-but-unanswered requests right now.
  int64_t inflight() const { return inflight_.load(std::memory_order_acquire); }

 private:
  struct Task {
    StrategyKind strategy = StrategyKind::kBucketElimination;
    Counter budget = kCounterMax;
    uint32_t deadline_ms = 0;
    uint64_t arrival_ns = 0;
    /// The admitted plan; admission charged its entry's tuple bound.
    ResolvedPlan plan;
    ReplyFn done;
  };

  uint64_t Now() const;
  void WorkerLoop();
  void ProcessTask(Task* task, ExecArena* arena, TraceSink* trace);
  /// Refusal path: count (`counter` picks the ServiceCounters field,
  /// `event` the mirrored service.* metric), record, and deliver a
  /// no-execution reply on the current thread. `resolved` is the
  /// request's resolved plan, null when it was refused before
  /// resolution; its fingerprint, cache hit and predicted width go into
  /// the reply and the record.
  void Refuse(ServiceStatus status, Status detail,
              const ResolvedPlan* resolved, int32_t strategy_ordinal,
              int64_t ServiceCounters::*counter, std::string_view event,
              const ReplyFn& done);
  /// Terminal bookkeeping for an admitted task (counters, inflight,
  /// record) and reply delivery.
  void FinishAdmitted(Task* task, const ServiceReply& reply,
                      int64_t ServiceCounters::*counter,
                      std::string_view event, const MetricsRegistry* run,
                      const TraceSink* trace);
  /// Appends a query record (+ flight observation) for a finished or
  /// refused request and mirrors the event into the global registry.
  /// `trace` is the request's own span shard (null when it ran nothing
  /// or nobody reads spans): merged into the global sink when tracing is
  /// on, and the spans a flight dump of this request holds.
  /// Called with GlobalObsMutex NOT held.
  void RecordOutcome(const ServiceReply& reply, uint64_t fingerprint,
                     int32_t strategy_ordinal, std::string_view event,
                     bool admitted, const MetricsRegistry* run,
                     const TraceSink* trace);

  const Database& db_;
  ServiceConfig config_;
  int num_workers_ = 1;
  uint64_t db_fingerprint_ = 0;
  AdmissionController admission_;
  PlanCache cache_;
  BoundedQueue<Task> queue_;
  std::vector<std::thread> workers_;
  std::atomic<bool> draining_{false};
  std::atomic<int64_t> inflight_{0};
  std::atomic<uint64_t> records_since_flush_{0};

  mutable Mutex mu_;
  ServiceCounters counters_ GUARDED_BY(mu_);
  bool drained_ GUARDED_BY(mu_) = false;
};

/// Renders a query in the text syntax ParseQuery accepts (attribute k
/// prints as "v<k>"): the wire format queries travel in. Round-trips up
/// to the parser's first-appearance attribute renumbering — parsing the
/// rendered text yields an isomorphic query with the same answers.
std::string QueryToText(const ConjunctiveQuery& query);

}  // namespace ppr

#endif  // PPR_SERVICE_SERVICE_H_
