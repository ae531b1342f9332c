#include "analysis/semantic/certify.h"

#include <chrono>
#include <string>
#include <utility>

#include "analysis/semantic/extract.h"
#include "common/mutex.h"
#include "minimize/minimize.h"
#include "obs/metrics.h"
#include "obs/obs_lock.h"

namespace ppr {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Publish(const CertificationReport& report) {
  MutexLock lock(GlobalObsMutex());
  MetricsRegistry& metrics = GlobalMetrics();
  metrics.AddCounter("analysis.semantic.certifications", 1);
  if (!report.ok()) metrics.AddCounter("analysis.semantic.failures", 1);
  metrics.RecordHistogram("analysis.semantic.wall_ns", report.wall_ns);
}

/// The proof itself, shared by the logical and compiled entry points:
/// equivalence between `query` and the extraction result, with failure
/// messages that carry the denoted query and the split count — enough to
/// see *what* the plan computes instead, not just that it differs.
CertificationReport CertifyExtracted(const ConjunctiveQuery& query,
                                     const Result<ExtractedQuery>& extracted,
                                     const char* what) {
  CertificationReport report;
  const uint64_t start = NowNs();
  if (!extracted.ok()) {
    report.verdict = Status::InvalidArgument(
        std::string("semantic certification failed (") + what +
        "): " + extracted.status().message());
  } else {
    report.split_vars = extracted->split_vars;
    Result<bool> equivalent = AreEquivalent(query, extracted->query);
    if (!equivalent.ok()) {
      report.verdict = Status::InvalidArgument(
          std::string("semantic certification failed (") + what +
          "): " + equivalent.status().message() + "; plan denotes " +
          extracted->query.ToString());
    } else if (!*equivalent) {
      report.verdict = Status::InvalidArgument(
          std::string("semantic certification failed (") + what +
          "): plan denotes " + extracted->query.ToString() +
          ", not equivalent to " + query.ToString() +
          (report.split_vars > 0
               ? " (" + std::to_string(report.split_vars) +
                     " variable(s) split by premature projection)"
               : ""));
    }
  }
  report.wall_ns = NowNs() - start;
  Publish(report);
  return report;
}

}  // namespace

CertificationReport CertifyPlan(const ConjunctiveQuery& query,
                                const Plan& plan) {
  return CertifyExtracted(query, ExtractQuery(query, plan), "logical plan");
}

CertificationReport CertifyCompiledPlan(const ConjunctiveQuery& query,
                                        const Database& db,
                                        const PhysicalPlan& physical) {
  return CertifyExtracted(query, ExtractCompiledQuery(db, physical),
                          "compiled plan");
}

}  // namespace ppr
