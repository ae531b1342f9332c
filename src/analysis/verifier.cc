#include "analysis/verifier.h"

#include <sstream>
#include <utility>
#include <vector>

#include "analysis/physical_verifier.h"
#include "analysis/plan_verifier.h"
#include "analysis/semantic/certify.h"
#include "common/env.h"
#include "exec/verify_hook.h"

namespace ppr {
namespace {

constexpr char kSkipped[] = "skipped: logical verification failed";

}  // namespace

Status PlanVerdict::FirstError() const {
  if (!logical.ok()) return logical;
  if (!width.ok()) return width;
  if (!physical.ok()) return physical;
  if (!analysis.status.ok()) return analysis.status;
  return Status::Ok();
}

std::string PlanVerdict::ToString() const {
  std::ostringstream out;
  out << "logical:  " << logical.ToString() << "\n"
      << "width:    " << width.ToString() << "\n"
      << "physical: " << physical.ToString() << "\n";
  if (analysis.status.ok()) out << analysis.ToString();
  return out.str();
}

PlanVerdict VerifyPlan(const ConjunctiveQuery& query, const Plan& plan,
                       const Database& db) {
  PlanVerdict verdict;
  verdict.logical = VerifyLogicalPlan(query, plan, &db);
  if (!verdict.logical.ok()) {
    // The deeper passes assume a well-formed tree (theory conversions
    // PPR_CHECK on malformed labels), so they do not run.
    verdict.width = Status::InvalidArgument(kSkipped);
    verdict.analysis.status = Status::InvalidArgument(kSkipped);
    return verdict;
  }
  verdict.analysis = AnalyzePlan(query, plan, db);
  verdict.width = CrossCheckWidth(query, plan, verdict.analysis);
  return verdict;
}

PlanVerdict VerifyCompiledPlan(const ConjunctiveQuery& query,
                               const Plan& plan, const Database& db,
                               const PhysicalPlan& physical) {
  PlanVerdict verdict = VerifyPlan(query, plan, db);
  if (verdict.logical.ok()) {
    verdict.physical = VerifyPhysicalPlan(query, plan, db, physical);
  }
  return verdict;
}

void InstallPlanVerifier(bool enable) {
  PlanVerifierHooks hooks;
  hooks.logical = [](const ConjunctiveQuery& query, const Plan& plan,
                     const Database& db)
      -> Result<std::vector<PlanNodeBound>> {
    PlanVerdict verdict = VerifyPlan(query, plan, db);
    Status first = verdict.FirstError();
    if (!first.ok()) return first;
    return std::move(verdict.analysis.per_node);
  };
  hooks.compiled = [](const ConjunctiveQuery& query, const Plan& plan,
                      const Database& db, const PhysicalPlan& physical) {
    // The logical passes already ran via the `logical` hook before
    // lowering; re-checking only the compiled tree keeps compile-time
    // verification linear in plan size.
    return VerifyPhysicalPlan(query, plan, db, physical);
  };
  // Semantic tier: fires only while EnableSemanticVerification /
  // PPR_VERIFY_SEMANTICS is on (exec gates it independently of `enable`).
  // The adapter passes re-entrant calls through — the equivalence proof
  // itself compiles plans over canonical databases.
  hooks.semantic = [](const ConjunctiveQuery& query, const Plan& plan,
                      const Database& db, const PhysicalPlan& physical) {
    return CertifyForVerifierHook(query, plan, db, physical);
  };
  SetPlanVerifierHooks(std::move(hooks));
  if (enable) EnablePlanVerification(true);
}

void UninstallPlanVerifier() {
  ClearPlanVerifierHooks();
  EnablePlanVerification(false);
  EnableSemanticVerification(false);
}

void InstallPlanVerifierFromEnv() {
  const EnvConfig& env = ProcessEnv();
  if (env.verify_plans || env.verify_semantics) {
    // The gates were seeded from the same snapshot; registering the
    // hooks is all that is left to do.
    InstallPlanVerifier(/*enable=*/false);
  }
}

}  // namespace ppr
