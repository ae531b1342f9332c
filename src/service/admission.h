#ifndef PPR_SERVICE_ADMISSION_H_
#define PPR_SERVICE_ADMISSION_H_

#include <cstdint>
#include <unordered_map>

#include "common/annotations.h"
#include "common/mutex.h"

namespace ppr {

/// What the admission controller decided for one request, before any
/// execution work was done.
enum class AdmitDecision : uint8_t {
  kAdmit = 0,
  /// Per-client token bucket empty — transient, retry after backoff.
  kShedQuota = 1,
  /// The predicted tuple bound fits the headroom in principle but not
  /// right now (other admitted work holds it) — transient.
  kShedBound = 2,
  /// The predicted tuple bound alone exceeds the configured headroom —
  /// permanent for this (query, strategy) under this configuration.
  kRejectBound = 3,
};
const char* AdmitDecisionName(AdmitDecision decision);

/// Admission control for the resident query service: decides, from a
/// request's client identity and the width analyzer's static row bound,
/// whether work may enter the execution queue at all.
///
/// Two independent gates, both checked under one mutex:
///
///  * Per-client token quotas: a classic token bucket per client id
///    (burst = `quota_tokens`, refill = `quota_refill_per_sec`). Zero
///    tokens disables the gate.
///  * Tuple-budget headroom: the sum of the predicted tuple bounds
///    (AnalyzePlan's tuples_produced_bound, the AGM-style static cost)
///    of all admitted-but-unfinished requests must stay within
///    `max_inflight_tuple_bound`. A request whose bound alone exceeds
///    the headroom is *rejected* (it can never fit); one that merely
///    does not fit now is *shed* (transient). Zero disables the gate.
///
/// Time is injected (nanoseconds) so quota refill is deterministic in
/// tests; callers pass a monotonic clock reading.
///
/// Threading: internally synchronized; any connection thread may call
/// Admit while workers call Release.
class AdmissionController {
 public:
  struct Config {
    /// Token-bucket burst per client; 0 disables quota checking.
    int64_t quota_tokens = 0;
    /// Tokens added per second per client.
    double quota_refill_per_sec = 0.0;
    /// Headroom for the sum of in-flight predicted tuple bounds; 0
    /// disables the bound gate.
    double max_inflight_tuple_bound = 0.0;
  };

  explicit AdmissionController(Config config) : config_(config) {}

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Decides for one request. `tuple_bound` is the static predicted cost
  /// (may be +infinity when the analyzer cannot bound the query — an
  /// unbounded prediction never fits a finite headroom and is rejected).
  /// On kAdmit the bound is charged against the headroom and one quota
  /// token is consumed; every other decision charges nothing.
  AdmitDecision Admit(uint64_t client_id, double tuple_bound, uint64_t now_ns)
      EXCLUDES(mu_);

  /// Returns an admitted request's charge. Exactly one Release per
  /// kAdmit, after the request finished (or was answered
  /// kDeadlineExceeded).
  void Release(double tuple_bound) EXCLUDES(mu_);

  /// Sum of in-flight admitted tuple bounds right now.
  double inflight_bound() const EXCLUDES(mu_);

  const Config& config() const { return config_; }

 private:
  struct Bucket {
    double tokens = 0.0;
    uint64_t last_refill_ns = 0;
  };

  const Config config_;
  mutable Mutex mu_;
  std::unordered_map<uint64_t, Bucket> buckets_ GUARDED_BY(mu_);
  double inflight_bound_ GUARDED_BY(mu_) = 0.0;
};

}  // namespace ppr

#endif  // PPR_SERVICE_ADMISSION_H_
