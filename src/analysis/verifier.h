#ifndef PPR_ANALYSIS_VERIFIER_H_
#define PPR_ANALYSIS_VERIFIER_H_

#include <cstdint>
#include <string>

#include "analysis/width_analyzer.h"
#include "common/status.h"
#include "core/plan.h"
#include "exec/physical_plan.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"

namespace ppr {

/// Debug gate for the structural tiers of CompileVerified. Starts ON
/// when the environment sets PPR_VERIFY_PLANS to anything but "0", OFF
/// otherwise; toggled programmatically by tests and tools (an atomic, so
/// toggling while worker threads compile is a stale read at worst, never
/// a torn one).
void EnablePlanVerification(bool on);
bool PlanVerificationEnabled();

/// Independent gate for the semantic tier. Starts ON when the environment
/// sets PPR_VERIFY_SEMANTICS to anything but "0"; toggled like
/// EnablePlanVerification. The tier runs whenever this gate is on,
/// whatever the structural gate says: semantic certification is
/// meaningful (and much stronger) on its own.
void EnableSemanticVerification(bool on);
bool SemanticVerificationEnabled();

/// What the verifier tiers said about one CompileVerified call, for a
/// caller that shows it (EXPLAIN). A verdict is "OK" or the tier's
/// failure, and empty when the tier did not run.
struct VerifierReport {
  /// The structural tiers: the logical tier and the width cross-check
  /// before lowering, then the physical tier (the first failure, when
  /// one fails).
  std::string structural;
  /// The semantic tier, and what it cost in wall ns (-1 when it did not
  /// run).
  std::string semantic;
  int64_t semantic_ns = -1;
};

/// The verified compile: PhysicalPlan::Compile with hash joins, wrapped
/// in every enabled verifier tier. It fails with the first rejection: a
/// plan the logical tier rejects is never lowered, and a plan any tier
/// rejects is never returned. `analysis` is AnalyzePlan of the same
/// (query, plan, db), which every caller already holds for its own use
/// (an admission bound, EXPLAIN's predictions), so a verified compile
/// analyzes nothing itself.
///
/// With PlanVerificationEnabled(): VerifyLogicalPlan, then
/// CrossCheckWidth over `analysis` (failing on its status too, which is
/// where schedule damage and catalog mismatches surface) before
/// lowering, and VerifyPhysicalPlan after. With
/// SemanticVerificationEnabled(): CertifyPlan, then CertifyCompiledPlan
/// (analysis/semantic/certify.h). With both gates off it is
/// PhysicalPlan::Compile. `report`, when non-null, receives what each
/// tier said.
///
/// ResolvePlan, ExplainPlan and quickstart compile through this;
/// ExecutePlan, RunStrategy and perfbench do not (pprlint's
/// verified-compile rule names the callers of PhysicalPlan::Compile).
Result<PhysicalPlan> CompileVerified(const ConjunctiveQuery& query,
                                     const Plan& plan, const Database& db,
                                     const StaticAnalysis& analysis,
                                     VerifierReport* report = nullptr);

}  // namespace ppr

#endif  // PPR_ANALYSIS_VERIFIER_H_
