#ifndef PPR_OBS_EXPORTERS_H_
#define PPR_OBS_EXPORTERS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppr {

/// Renders spans as a Chrome trace_event JSON document (complete "X"
/// events, microsecond timestamps): load the file in chrome://tracing or
/// https://ui.perfetto.dev to see the per-operator timeline. Span data
/// fields (rows, arity, bytes, hash-table counters, plan node) appear as
/// event args.
std::string SpansToChromeTrace(const std::vector<TraceSpan>& spans);

/// Writes `content` to `path`, replacing the file.
Status WriteFileAtomicEnough(const std::string& path,
                             const std::string& content);

/// Publishes one run's spans into `registry` as the standard
/// per-operator histograms: op.rows_out, op.ns, op.bytes, plus the
/// per-kind time histograms op.<kind>.ns.
void PublishSpanMetrics(const std::vector<TraceSpan>& spans,
                        MetricsRegistry* registry);

/// Rewrites the global trace artifacts from the global sink and registry:
/// the Chrome trace at TracePath() and the metrics JSONL at
/// TracePath() + ".metrics.jsonl". No-op (OK) when tracing is disabled.
/// Called where a process finishes its traced work: the service and
/// batch drains, DisableTracing, and once at exit (obs/trace.h). Reads
/// the global sink and registry, so the caller holds the obs capability.
Status FlushTraceArtifacts() REQUIRES(GlobalObsMutex());

/// Publishes one traced run that recorded into a private registry and
/// sink: under GlobalObsMutex(), merges `run` into GlobalMetrics() and
/// folds `trace` into the global sink (unless tracing was disabled
/// meanwhile). It writes no artifact: a one-shot run (ExecuteCompiled,
/// SemijoinReduce) calls it after each traced run, and the semantic tier
/// runs several per plan-cache miss.
void PublishRun(const MetricsRegistry& run, const TraceSink& trace)
    EXCLUDES(GlobalObsMutex());

}  // namespace ppr

#endif  // PPR_OBS_EXPORTERS_H_
