#include "runtime/morsel_driver.h"

#include <functional>
#include <utility>

#include "common/check.h"
#include "common/env.h"
#include "common/mutex.h"
#include "exec/verify_hook.h"
#include "obs/telemetry/flight_recorder.h"
#include "obs/telemetry/query_log.h"
#include "obs/trace.h"
#include "runtime/plan_cache.h"

namespace ppr {

MorselDriver::MorselDriver(MorselDriverOptions options)
    : options_(options) {
  num_threads_ = options_.num_threads;
  if (num_threads_ <= 0) {
    num_threads_ = ProcessEnv().default_threads > 0
                       ? ProcessEnv().default_threads
                       : ThreadPool::HardwareThreads();
  }
  worker_arenas_.reserve(static_cast<size_t>(num_threads_));
  for (int w = 0; w < num_threads_; ++w) {
    worker_arenas_.push_back(std::make_unique<ExecArena>());
  }
  if (num_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(num_threads_);
  }
}

int64_t MorselDriver::morsel_rows() const {
  return options_.morsel_rows > 0 ? options_.morsel_rows
                                  : ProcessEnv().morsel_rows;
}

MorselExec MorselDriver::PrepareExec() {
  MorselExec mx;
  mx.morsel_rows = morsel_rows();
  mx.num_workers = num_threads_;
  mx.worker_arenas.reserve(worker_arenas_.size());
  for (const auto& arena : worker_arenas_) {
    arena->Reset();
    mx.worker_arenas.push_back(arena.get());
  }
  if (pool_ != nullptr) {
    ThreadPool* pool = pool_.get();
    mx.parallel_for = [pool](int64_t count,
                             const std::function<void(int64_t, int)>& body) {
      // `body` outlives Wait(): the kernels block in ForEachMorsel until
      // every morsel finished, so capturing it by reference is safe.
      for (int64_t m = 0; m < count; ++m) {
        pool->Submit([m, &body](int worker) { body(m, worker); });
      }
      pool->Wait();
    };
  }
  return mx;
}

ExecutionResult MorselDriver::Run(const PhysicalPlan& plan,
                                  Counter tuple_budget, TraceSink* trace,
                                  MetricsRegistry* metrics,
                                  const MorselQueryContext* verify_ctx) {
  // Force lazily-initialized process-wide state on this thread before
  // any worker touches it (the BatchExecutor::Run pattern).
  (void)ProcessEnv();
  (void)TracingEnabled();
  const bool verification_on = PlanVerificationEnabled();
  const std::shared_ptr<const PlanVerifierHooks> hooks =
      GetPlanVerifierHooks();

  const bool verify = verify_ctx != nullptr && verification_on &&
                      hooks->morsel_accounting != nullptr;

  const MorselExec mx = PrepareExec();
  ExecutionResult result;
  if (!verify) {
    result = plan.ExecuteShared(&control_arena_, tuple_budget, trace, metrics,
                                mx);
  } else {
    PPR_CHECK(verify_ctx->query != nullptr && verify_ctx->plan != nullptr &&
              verify_ctx->db != nullptr);
    // The verifier needs every span of the run, so they go to a sink that
    // never overwrites. Span metrics publish only when the caller traces,
    // as they would unverified.
    TraceSink spans(TraceSink::kUnbounded);
    result = plan.ExecuteShared(&control_arena_, tuple_budget, &spans,
                                trace != nullptr ? metrics : nullptr, mx);
    if (trace == nullptr && metrics != nullptr) {
      result.stats.PublishTo(metrics);
    }
    Status verdict = hooks->morsel_accounting(
        *verify_ctx->query, *verify_ctx->plan, *verify_ctx->db,
        spans.Snapshot(), result.stats, tuple_budget);
    if (!verdict.ok()) result.status = std::move(verdict);
    if (trace != nullptr) trace->Merge(spans);
  }

  // Query-log drain (the BatchExecutor pattern, one record per run).
  // The null check is the whole disabled-path cost.
  if (QueryLog* qlog = GlobalQueryLogIfEnabled(); qlog != nullptr) {
    QueryRecord rec;
    if (verify_ctx != nullptr && verify_ctx->query != nullptr) {
      // Cold path (the run itself dwarfs one canonicalization): recover
      // the structural fingerprint so morsel records bucket with the
      // batch records of isomorphic queries.
      rec.fingerprint = FingerprintQueryStructure(
          CanonicalizeQuery(*verify_ctx->query).structure);
    }
    rec.source = QuerySource::kMorsel;
    ClassifyStatus(result.status, &rec);
    rec.wall_ns = static_cast<int64_t>(result.seconds * 1e9);
    rec.tuples_produced = static_cast<int64_t>(result.stats.tuples_produced);
    rec.output_rows = result.status.ok() ? result.output.size() : -1;
    rec.peak_bytes = static_cast<int64_t>(result.stats.peak_bytes);
    rec.max_arity = result.stats.max_intermediate_arity;
    if (verify_ctx != nullptr && verify_ctx->plan != nullptr) {
      rec.predicted_width = static_cast<int32_t>(verify_ctx->plan->Width());
      rec.bound_headroom = rec.predicted_width - rec.max_arity;
    }
    MutexLock lock(GlobalObsMutex());
    rec.seq = qlog->Append(rec);
    if (FlightRecorder* flights = GlobalFlightRecorderIfEnabled();
        flights != nullptr) {
      (void)flights->Observe(rec, *qlog, trace);
    }
    (void)FlushQueryLogArtifact();
  }
  return result;
}

}  // namespace ppr
