#ifndef PPR_ANALYSIS_VERIFIER_H_
#define PPR_ANALYSIS_VERIFIER_H_

#include <string>

#include "analysis/width_analyzer.h"
#include "common/status.h"
#include "core/plan.h"
#include "exec/physical_plan.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"

namespace ppr {

/// Combined verdict of the static-analysis passes over one plan.
struct PlanVerdict {
  /// Logical well-formedness (analysis/plan_verifier.h).
  Status logical;
  /// Width cross-check of `analysis` against the theory module
  /// (Theorems 1-2); only run when `logical` passed.
  Status width;
  /// Compiled-plan faithfulness (analysis/physical_verifier.h); OK when
  /// no physical plan was checked.
  Status physical;
  /// Static width and size bounds, per operator and per plan node; only
  /// populated when `logical` passed.
  StaticAnalysis analysis;

  bool ok() const {
    return logical.ok() && width.ok() && physical.ok() &&
           analysis.status.ok();
  }

  /// The first failing status, or OK.
  Status FirstError() const;

  /// Multi-line report: one line per pass plus the analysis summary.
  std::string ToString() const;
};

/// Runs the logical verifier, then the static width/size analyzer over
/// `plan` and the width cross-check of its result.
PlanVerdict VerifyPlan(const ConjunctiveQuery& query, const Plan& plan,
                       const Database& db);

/// VerifyPlan plus the physical verifier over an already-compiled plan.
PlanVerdict VerifyCompiledPlan(const ConjunctiveQuery& query,
                               const Plan& plan, const Database& db,
                               const PhysicalPlan& physical);

/// Registers the analysis passes as exec's verification hooks
/// (exec/verify_hook.h): every PhysicalPlan::Compile (ExplainPlan's too)
/// while verification is enabled then proves the plan before touching
/// data, and its `logical` tier hands on VerifyPlan's per-node bounds.
/// `enable` additionally turns the verification flag on.
void InstallPlanVerifier(bool enable = true);

/// Unregisters the hooks and disables verification.
void UninstallPlanVerifier();

/// Installs the hooks iff the process environment requests a tier
/// (PPR_VERIFY_PLANS / PPR_VERIFY_SEMANTICS), leaving the env-seeded
/// gates as they are. Entry point for examples and tools, so setting
/// the variable on any run-book binary actually verifies.
void InstallPlanVerifierFromEnv();

}  // namespace ppr

#endif  // PPR_ANALYSIS_VERIFIER_H_
