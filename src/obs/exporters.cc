#include "obs/exporters.h"

#include <cstdio>
#include <sstream>

#include "common/mutex.h"

namespace ppr {

std::string SpansToChromeTrace(const std::vector<TraceSpan>& spans) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceSpan& s : spans) {
    if (!first) out << ",";
    first = false;
    // trace_event timestamps are microseconds; keep sub-us precision as
    // fractional us so adjacent short operators stay distinguishable.
    out << "\n{\"name\":\"" << TraceOpName(s.op)
        << "\",\"cat\":\"op\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.duration_ns) / 1e3
        << ",\"args\":{\"node\":" << s.node_id << ",\"rows_in\":" << s.rows_in
        << ",\"rows_out\":" << s.rows_out << ",\"arity_in\":" << s.arity_in
        << ",\"arity_out\":" << s.arity_out << ",\"bytes\":" << s.bytes
        << ",\"ht_build_rows\":" << s.ht_build_rows
        << ",\"ht_probe_ops\":" << s.ht_probe_ops << "}}";
  }
  out << "\n]}\n";
  return out.str();
}

Status WriteFileAtomicEnough(const std::string& path,
                             const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open trace file: " + path);
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int close_rc = std::fclose(f);
  if (written != content.size() || close_rc != 0) {
    return Status::Internal("short write to trace file: " + path);
  }
  return Status::Ok();
}

void PublishSpanMetrics(const std::vector<TraceSpan>& spans,
                        MetricsRegistry* registry) {
  for (const TraceSpan& s : spans) {
    registry->RecordHistogram("op.rows_out",
                              static_cast<uint64_t>(s.rows_out));
    registry->RecordHistogram("op.ns", static_cast<uint64_t>(s.duration_ns));
    registry->RecordHistogram("op.bytes", static_cast<uint64_t>(s.bytes));
    registry->RecordHistogram(std::string("op.") + TraceOpName(s.op) + ".ns",
                              static_cast<uint64_t>(s.duration_ns));
  }
}

Status FlushTraceArtifacts() {
  if (!TracingEnabled()) return Status::Ok();
  Status trace_status = WriteFileAtomicEnough(
      TracePath(), SpansToChromeTrace(GlobalTraceSink().Snapshot()));
  if (!trace_status.ok()) return trace_status;
  return WriteFileAtomicEnough(TracePath() + ".metrics.jsonl",
                               GlobalMetrics().ToJsonLines());
}

void PublishRun(const MetricsRegistry& run, const TraceSink& trace) {
  MutexLock lock(GlobalObsMutex());
  GlobalMetrics().Merge(run);
  if (TracingEnabled()) MergeIntoGlobalSink(trace);
}

}  // namespace ppr
