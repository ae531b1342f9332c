#include "analysis/verifier.h"

#include <atomic>
#include <string>

#include "analysis/physical_verifier.h"
#include "analysis/plan_verifier.h"
#include "analysis/semantic/certify.h"
#include "common/env.h"
#include "common/timer.h"

namespace ppr {
namespace {

// The verification gates, seeded from the once-read ProcessEnv() snapshot
// (common/env.h), so compiles on worker threads never read the
// environment.
struct VerificationGates {
  std::atomic<bool> plans{ProcessEnv().verify_plans};
  std::atomic<bool> semantics{ProcessEnv().verify_semantics};
};

VerificationGates& Gates() {
  static VerificationGates gates;
  return gates;
}

std::string VerdictOf(const Status& verdict) {
  return verdict.ok() ? std::string("OK") : verdict.ToString();
}

}  // namespace

void EnablePlanVerification(bool on) {
  Gates().plans.store(on, std::memory_order_release);
}

bool PlanVerificationEnabled() {
  return Gates().plans.load(std::memory_order_acquire);
}

void EnableSemanticVerification(bool on) {
  Gates().semantics.store(on, std::memory_order_release);
}

bool SemanticVerificationEnabled() {
  return Gates().semantics.load(std::memory_order_acquire);
}

Result<PhysicalPlan> CompileVerified(const ConjunctiveQuery& query,
                                     const Plan& plan, const Database& db,
                                     const StaticAnalysis& analysis,
                                     VerifierReport* report) {
  VerifierReport unreported;
  VerifierReport& said = report != nullptr ? *report : unreported;
  const bool structural = PlanVerificationEnabled();
  if (structural) {
    // The width cross-check assumes a well-formed tree (theory
    // conversions PPR_CHECK on malformed labels), so it runs only on a
    // plan the logical tier accepted.
    Status verdict = VerifyLogicalPlan(query, plan);
    if (verdict.ok()) verdict = CrossCheckWidth(query, plan, analysis);
    said.structural = VerdictOf(verdict);
    if (!verdict.ok()) return verdict;
  }
  Result<PhysicalPlan> compiled = PhysicalPlan::Compile(query, plan, db);
  if (!compiled.ok()) return compiled;
  if (structural) {
    const Status verdict = VerifyPhysicalPlan(query, plan, db, *compiled);
    said.structural = VerdictOf(verdict);
    if (!verdict.ok()) return verdict;
  }
  // The structural tiers prove the tree well-formed; this one proves the
  // plan, logical and compiled, still *denotes the query*.
  if (SemanticVerificationEnabled()) {
    WallTimer timer;
    Status verdict = CertifyPlan(query, plan).verdict;
    if (verdict.ok()) {
      verdict = CertifyCompiledPlan(query, db, *compiled).verdict;
    }
    said.semantic_ns = static_cast<int64_t>(timer.ElapsedSeconds() * 1e9);
    said.semantic = VerdictOf(verdict);
    if (!verdict.ok()) return verdict;
  }
  return compiled;
}

}  // namespace ppr
