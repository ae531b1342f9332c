#include "runtime/batch_executor.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>

#include "common/arena.h"
#include "common/mutex.h"
#include "common/timer.h"
#include "obs/exporters.h"
#include "obs/telemetry/flight_recorder.h"
#include "obs/telemetry/query_log.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"

namespace ppr {

namespace {

// The spans with sequence numbers [begin, end) that `shard` still holds
// (a worker's later jobs may have overwritten some), in a sink of their
// own: a flight dump holds the spans of the job that triggered it.
TraceSink SpansBetween(const TraceSink* shard, uint64_t begin, uint64_t end) {
  if (shard == nullptr) return TraceSink(1);
  const uint64_t first = std::max(begin, shard->dropped());
  const uint64_t count = end > first ? end - first : 0;
  TraceSink sink(std::max<size_t>(static_cast<size_t>(count), 1));
  const std::vector<TraceSpan> spans = shard->SnapshotSince(first);
  for (size_t i = 0; i < count; ++i) sink.Record(spans[i]);
  return sink;
}

}  // namespace

struct BatchExecutor::WorkerState {
  ExecArena arena;           // reused across this worker's jobs
  MetricsRegistry metrics;   // shard, merged at drain
  // Span shard, only when tracing or the flight recorder is on: merged
  // into the global sink at drain when tracing, and read per job by the
  // flight recorder.
  std::unique_ptr<TraceSink> trace;
};

struct BatchExecutor::JobTelemetry {
  /// FingerprintQueryStructure of the job's canonical structure.
  uint64_t fingerprint = 0;
  /// Plan::Width() of the logical plan the job executed; -1 if the job
  /// errored before a plan existed.
  int32_t predicted_width = -1;
  /// Whether this call ran the plan-cache factory (scheduling-dependent
  /// raw material; the drain reattributes hits/misses deterministically).
  bool compiled_here = false;
  /// The worker's span shard, when it has one, and the sequence numbers
  /// [span_begin, span_end) of the spans this job recorded into it.
  const TraceSink* trace = nullptr;
  uint64_t span_begin = 0;
  uint64_t span_end = 0;
};

BatchExecutor::BatchExecutor(const Database& db, BatchOptions options)
    : db_(db),
      options_(options),
      num_threads_(ResolveWorkerCount(options.num_threads)),
      db_fingerprint_(FingerprintDatabase(db)) {
  if (options_.cache != nullptr) {
    cache_ = options_.cache;
  } else {
    owned_cache_ = std::make_unique<PlanCache>();
    cache_ = owned_cache_.get();
  }
}

void BatchExecutor::ProcessJob(const BatchJob& job, WorkerState* worker,
                               ExecutionResult* slot,
                               JobTelemetry* telem) const {
  const ResolvedPlan resolved =
      ResolvePlan(cache_, db_, db_fingerprint_, job.query, job.strategy,
                  job.seed);
  if (telem != nullptr) {
    telem->fingerprint = resolved.fingerprint;
    telem->compiled_here = resolved.compiled_here;
  }
  if (resolved.entry == nullptr) {
    slot->status = resolved.status;
    return;
  }
  if (telem != nullptr) {
    telem->predicted_width =
        static_cast<int32_t>(resolved.entry->plan_width);
  }

  TraceSink* trace = worker->trace.get();
  if (telem != nullptr && trace != nullptr) {
    telem->trace = trace;
    telem->span_begin = trace->total_recorded();
  }
  ExecutionResult result = resolved.entry->physical.ExecuteShared(
      &worker->arena, job.tuple_budget, trace, &worker->metrics);
  if (telem != nullptr && trace != nullptr) {
    telem->span_end = trace->total_recorded();
  }
  if (result.status.ok()) {
    result.output =
        RemapOutputFromCanonical(result.output, resolved.from_canonical);
  }
  *slot = std::move(result);
}

BatchResult BatchExecutor::Run(const std::vector<BatchJob>& jobs) {
  InitProcessState();

  BatchResult out;
  out.num_threads = num_threads_;
  out.results.resize(jobs.size());
  const PlanCache::Stats cache_before = cache_->stats();

  const bool tracing = GlobalTraceSinkIfEnabled() != nullptr;
  // The whole disabled-telemetry cost: this one branch, hoisted out of
  // the per-job path entirely (workers see a null telemetry slot and
  // skip every capture).
  const bool telemetry = GlobalQueryLogIfEnabled() != nullptr;
  std::vector<WorkerState> workers(static_cast<size_t>(num_threads_));
  if (tracing || (telemetry && FlightRecorderEnabled())) {
    for (WorkerState& w : workers) w.trace = std::make_unique<TraceSink>();
  }
  std::vector<JobTelemetry> telem(telemetry ? jobs.size() : 0);

  WallTimer timer;
  {
    ThreadPool pool(num_threads_);
    for (size_t i = 0; i < jobs.size(); ++i) {
      const BatchJob* job = &jobs[i];
      ExecutionResult* slot = &out.results[i];
      JobTelemetry* tslot = telemetry ? &telem[i] : nullptr;
      pool.Submit([this, job, slot, tslot, &workers](int worker) {
        ProcessJob(*job, &workers[static_cast<size_t>(worker)], slot, tslot);
      });
    }
    pool.Wait();
  }
  out.seconds = timer.ElapsedSeconds();

  // Drain, single-threaded from here on. Totals fold in input order so
  // the aggregate is byte-identical however the jobs interleaved.
  for (const ExecutionResult& r : out.results) {
    out.totals.tuples_produced += r.stats.tuples_produced;
    out.totals.num_joins += r.stats.num_joins;
    out.totals.num_projections += r.stats.num_projections;
    out.totals.num_semijoins += r.stats.num_semijoins;
    out.totals.NoteIntermediate(r.stats.max_intermediate_arity,
                                r.stats.max_intermediate_rows);
    out.totals.NotePeakBytes(r.stats.peak_bytes);
  }
  const PlanCache::Stats cache_after = cache_->stats();
  out.cache.hits = cache_after.hits - cache_before.hits;
  out.cache.misses = cache_after.misses - cache_before.misses;
  out.cache.evictions = cache_after.evictions - cache_before.evictions;

  const auto publish = [&](MetricsRegistry* target) {
    for (const WorkerState& w : workers) target->Merge(w.metrics);
    target->AddCounter("runtime.batch.jobs",
                       static_cast<int64_t>(jobs.size()));
    target->AddCounter("runtime.batch.runs", 1);
    int64_t timeouts = 0;
    for (const ExecutionResult& r : out.results) {
      if (r.status.code() == StatusCode::kResourceExhausted) ++timeouts;
      target->RecordHistogram("runtime.job.tuples",
                              static_cast<uint64_t>(r.stats.tuples_produced));
    }
    target->AddCounter("runtime.batch.timeouts", timeouts);
    target->RaiseMax("runtime.batch.threads", num_threads_);
    target->AddCounter("runtime.cache.hits", out.cache.hits);
    target->AddCounter("runtime.cache.misses", out.cache.misses);
    target->AddCounter("runtime.cache.evictions", out.cache.evictions);
  };
  // Touching the process-global registry or sink requires the obs
  // capability: two executors may Run() concurrently, and before this
  // lock their drains raced each other on the shared state.
  if (options_.metrics != nullptr) {
    publish(options_.metrics);
  } else {
    MutexLock lock(GlobalObsMutex());
    publish(&GlobalMetrics());
  }

  if (tracing) {
    MutexLock lock(GlobalObsMutex());
    for (const WorkerState& w : workers) MergeIntoGlobalSink(*w.trace);
    (void)FlushTraceArtifacts();
  }

  // Query-log drain. Single-threaded, input order — that (not the
  // workers' interleaving) is what makes the exported JSONL
  // byte-identical across worker counts.
  if (telemetry) {
    if (QueryLog* qlog = GlobalQueryLogIfEnabled(); qlog != nullptr) {
      MutexLock lock(GlobalObsMutex());
      FlightRecorder* flights = GlobalFlightRecorderIfEnabled();

      // Deterministic cache-hit reattribution: per-job compiled_here is
      // scheduling-dependent (any of a key's jobs may win the
      // single-flight compile), but *whether* a key compiled this batch
      // is not. Among each compiled key's jobs, the first in input order
      // is recorded as the miss; jobs of keys that never compiled were
      // served from a pre-existing entry and are all hits.
      using GroupKey = std::tuple<uint64_t, int32_t, uint64_t>;
      const auto group_of = [&](size_t i) {
        return GroupKey{telem[i].fingerprint,
                        static_cast<int32_t>(jobs[i].strategy), jobs[i].seed};
      };
      std::set<GroupKey> compiled;
      for (size_t i = 0; i < jobs.size(); ++i) {
        if (telem[i].compiled_here) compiled.insert(group_of(i));
      }
      std::set<GroupKey> miss_taken;
      for (size_t i = 0; i < jobs.size(); ++i) {
        const ExecutionResult& r = out.results[i];
        QueryRecord rec;
        rec.fingerprint = telem[i].fingerprint;
        rec.strategy = static_cast<int32_t>(jobs[i].strategy);
        rec.source = QuerySource::kBatch;
        if (const GroupKey g = group_of(i); compiled.count(g) > 0) {
          rec.cache_hit = !miss_taken.insert(g).second;
        } else {
          rec.cache_hit = true;
        }
        ClassifyStatus(r.status, &rec);
        rec.wall_ns = static_cast<int64_t>(r.seconds * 1e9);
        rec.tuples_produced = static_cast<int64_t>(r.stats.tuples_produced);
        rec.output_rows = r.status.ok() ? r.output.size() : -1;
        rec.peak_bytes = static_cast<int64_t>(r.stats.peak_bytes);
        rec.max_arity = r.stats.max_intermediate_arity;
        rec.predicted_width = telem[i].predicted_width;
        rec.bound_headroom = telem[i].predicted_width >= 0
                                 ? telem[i].predicted_width - rec.max_arity
                                 : 0;
        rec.seq = qlog->Append(rec);
        if (flights != nullptr) {
          const TraceSink spans = SpansBetween(
              telem[i].trace, telem[i].span_begin, telem[i].span_end);
          (void)flights->Observe(rec, *qlog, &spans);
        }
      }
      (void)FlushQueryLogArtifact();
    }
  }
  return out;
}

}  // namespace ppr
