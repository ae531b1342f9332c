#ifndef PPR_OBS_TELEMETRY_FLIGHT_RECORDER_H_
#define PPR_OBS_TELEMETRY_FLIGHT_RECORDER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "obs/telemetry/query_log.h"
#include "obs/trace.h"

namespace ppr {

/// What tripped a flight dump.
enum class FlightTrigger : uint8_t {
  /// The job exhausted its tuple budget (the deterministic timeout).
  kBudgetExhausted = 0,
  /// The job failed outright — structural-verifier or
  /// semantic-certification rejection, compile error, any other
  /// execution error (QueryOutcome::kFailed).
  kFailure = 1,
  /// The job's wall time exceeded `latency_multiple` times the running
  /// median of its fingerprint bucket.
  kLatencyOutlier = 2,
};
const char* FlightTriggerName(FlightTrigger trigger);

struct FlightRecorderOptions {
  /// Directory flight-<id>.json dumps land in (created on demand).
  /// Empty disables dumping — Observe still classifies, nothing hits
  /// disk (tests use this to exercise triggers hermetically).
  std::string dir;
  /// Latency trigger threshold: wall_ns > latency_multiple * median.
  double latency_multiple = 8.0;
  /// Latency trigger stays disarmed until the record's fingerprint
  /// bucket has at least this many OK samples — a cold median is noise.
  uint64_t min_latency_samples = 16;
  /// Trailing trace spans snapshotted into each dump.
  size_t max_spans = 64;
  /// Hard cap on dumps per recorder — a pathological workload must not
  /// fill the disk with flights.
  int64_t max_dumps = 256;
};

/// The anomaly flight recorder: watches the stream of query records at
/// the runtime drain points and, when a record trips a trigger, writes a
/// self-contained flight-<id>.json snapshot — the triggering record, the
/// trigger, the running median it was judged against, and the last-N
/// trace spans — so the evidence for "predicted structure bounds
/// diverged from observed cost" survives the run instead of being
/// thrown away.
///
/// Threading: internally synchronized (a single annotated mutex guards
/// the dump counter and id sequence); callers at the drain points
/// already hold GlobalObsMutex(), which orders observations the same
/// way the log appends are ordered.
class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions options);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Evaluates the triggers for `record` (medians come from `log`, which
  /// must already contain the record) and dumps a flight file when one
  /// fires and the dump budget allows. `spans`, when non-null, supplies
  /// the spans to snapshot, its last `max_spans`: the triggering
  /// request's own span shard at service drains (QueryService), the
  /// global sink at batch drains. Returns the fired trigger, dumped or
  /// not.
  std::optional<FlightTrigger> Observe(const QueryRecord& record,
                                       const QueryLog& log,
                                       const TraceSink* spans);

  /// Renders the dump document for a trigger (exposed for tests and for
  /// pprstat's validation of dump structure).
  std::string RenderFlight(int64_t flight_id, FlightTrigger trigger,
                           const QueryRecord& record, uint64_t median_wall_ns,
                           const std::vector<TraceSpan>& spans) const;

  int64_t dumps() const;
  std::string last_dump_path() const;
  const FlightRecorderOptions& options() const { return options_; }

 private:
  const FlightRecorderOptions options_;
  // kLockRankTelemetry: Observe() runs under GlobalObsMutex and takes
  // mu_ inside it (canonical order in common/mutex.h).
  mutable Mutex mu_{kLockRankTelemetry};
  int64_t next_id_ GUARDED_BY(mu_) = 0;
  int64_t dumps_ GUARDED_BY(mu_) = 0;
  std::string last_dump_path_ GUARDED_BY(mu_);
};

/// Process-wide recorder, gated like the query log: starts enabled when
/// the environment sets PPR_FLIGHT_DIR (with PPR_FLIGHT_LATENCY_MULT /
/// PPR_FLIGHT_SPANS overriding the defaults); toggled programmatically
/// by EnableFlightRecorder/DisableFlightRecorder.
void EnableFlightRecorder(FlightRecorderOptions options)
    EXCLUDES(GlobalObsMutex());
void DisableFlightRecorder() EXCLUDES(GlobalObsMutex());
bool FlightRecorderEnabled();

/// The global recorder when enabled, nullptr otherwise. The recorder
/// binding is guarded by GlobalObsMutex() (Enable/Disable rebind it), and
/// the drain points that call Observe already hold it — hence REQUIRES
/// rather than an internal lock.
FlightRecorder* GlobalFlightRecorderIfEnabled() REQUIRES(GlobalObsMutex());

}  // namespace ppr

#endif  // PPR_OBS_TELEMETRY_FLIGHT_RECORDER_H_
