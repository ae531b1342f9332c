#include "service/admission.h"

#include <algorithm>
#include <cmath>

namespace ppr {

AdmitDecision AdmissionController::Admit(uint64_t client_id,
                                         double tuple_bound,
                                         uint64_t now_ns) {
  MutexLock lock(mu_);

  // Bound gate first: a permanent rejection should not consume a quota
  // token (the client did nothing wrong rate-wise, the query is just too
  // expensive for this deployment).
  if (config_.max_inflight_tuple_bound > 0.0) {
    if (!(tuple_bound <= config_.max_inflight_tuple_bound)) {
      // NaN/inf predictions land here too: an unbounded static cost can
      // never provably fit the headroom.
      return AdmitDecision::kRejectBound;
    }
    if (inflight_bound_ + tuple_bound > config_.max_inflight_tuple_bound) {
      return AdmitDecision::kShedBound;
    }
  }

  if (config_.quota_tokens > 0) {
    const double burst = static_cast<double>(config_.quota_tokens);
    // First sighting of a client starts with a full bucket.
    auto [it, inserted] = buckets_.try_emplace(
        client_id, Bucket{burst, now_ns});
    Bucket& bucket = it->second;
    if (!inserted && now_ns > bucket.last_refill_ns &&
        config_.quota_refill_per_sec > 0.0) {
      const double elapsed_s =
          static_cast<double>(now_ns - bucket.last_refill_ns) * 1e-9;
      bucket.tokens = std::min(
          burst, bucket.tokens + elapsed_s * config_.quota_refill_per_sec);
    }
    bucket.last_refill_ns = now_ns;
    if (bucket.tokens < 1.0) return AdmitDecision::kShedQuota;
    bucket.tokens -= 1.0;
  }

  if (config_.max_inflight_tuple_bound > 0.0) inflight_bound_ += tuple_bound;
  return AdmitDecision::kAdmit;
}

void AdmissionController::Release(double tuple_bound) {
  if (config_.max_inflight_tuple_bound <= 0.0) return;
  MutexLock lock(mu_);
  inflight_bound_ = std::max(0.0, inflight_bound_ - tuple_bound);
}

double AdmissionController::inflight_bound() const {
  MutexLock lock(mu_);
  return inflight_bound_;
}

}  // namespace ppr
