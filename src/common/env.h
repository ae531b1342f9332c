#ifndef PPR_COMMON_ENV_H_
#define PPR_COMMON_ENV_H_

#include <string>

namespace ppr {

/// Process environment knobs, read exactly once. The concurrent runtime
/// (src/runtime) executes plans on worker threads; std::getenv is not
/// required to be thread-safe against a concurrently modified
/// environment, so every PPR_* variable is captured into this struct the
/// first time ProcessEnv() runs — BatchExecutor forces that from the
/// submitting thread before any worker starts, and the lazy consumers
/// (obs/trace.cc, exec/verify_hook.cc) read the struct instead of calling
/// getenv themselves.
struct EnvConfig {
  /// PPR_TRACE: non-empty value enables process-wide tracing with that
  /// path as the Chrome-trace export target (obs/trace.h).
  bool trace_enabled = false;
  std::string trace_path;

  /// PPR_VERIFY_PLANS: set (and not "0") runs the installed static plan
  /// verifier hooks inside PhysicalPlan::Compile (exec/verify_hook.h).
  bool verify_plans = false;

  /// PPR_VERIFY_SEMANTICS: set (and not "0") additionally runs the
  /// semantic certification tier — plan→query extraction plus a
  /// Chandra–Merlin equivalence proof (analysis/semantic/certify.h) —
  /// inside PhysicalPlan::Compile (ExplainPlan's too). Independent of
  /// PPR_VERIFY_PLANS; either tier can run alone.
  bool verify_semantics = false;

  /// PPR_THREADS: default worker count for BatchExecutor and
  /// QueryService (pprd's --workers=0); 0 means "unset", and both then
  /// use the hardware thread count.
  int default_threads = 0;

  /// PPR_QUERY_LOG: non-empty path enables the structured query log
  /// (obs/telemetry/query_log.h) with that file as the JSONL export
  /// target, rewritten at every batch drain, and by the service every
  /// few records and when it drains.
  std::string query_log_path;

  /// PPR_STATS_PORT: when set, the Prometheus exposition server
  /// (obs/telemetry/stats_server.h) listens on this loopback port
  /// (0 picks an ephemeral port). -1 means unset.
  int stats_port = -1;

  /// PPR_FLIGHT_DIR: non-empty directory enables the anomaly flight
  /// recorder (obs/telemetry/flight_recorder.h); each triggered job
  /// dumps a self-contained flight-<id>.json there. Implies query-record
  /// collection even without PPR_QUERY_LOG (the recorder needs the
  /// log's running latency medians).
  std::string flight_dir;

  /// PPR_FLIGHT_LATENCY_MULT: a job whose wall time exceeds this
  /// multiple of the running median for its fingerprint bucket trips the
  /// latency-outlier flight trigger.
  double flight_latency_mult = 8.0;

  /// PPR_FLIGHT_SPANS: how many trailing trace spans a flight dump
  /// snapshots.
  int flight_spans = 64;
};

/// The once-initialized environment snapshot. First call reads the
/// environment (thread-safe via the magic-static guarantee); later calls
/// are a plain reference return and never touch getenv.
const EnvConfig& ProcessEnv();

}  // namespace ppr

#endif  // PPR_COMMON_ENV_H_
