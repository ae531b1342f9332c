#ifndef PPR_EXEC_VERIFY_HOOK_H_
#define PPR_EXEC_VERIFY_HOOK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"
#include "core/plan.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"

namespace ppr {

class PhysicalPlan;

/// Static bounds the width analyzer proves for one plan node, in the
/// shared pre-order numbering (root = 0, node before its children,
/// children left to right): StaticAnalysis::per_node. EXPLAIN ANALYZE
/// prints these beside the actuals and flags any run whose observed
/// arity exceeds arity_bound — a violated bound means the analyzer, not
/// the engine, is wrong.
struct PlanNodeBound {
  /// Max arity of any operator output while evaluating the node
  /// (kUnbounded when the analyzer proved nothing).
  int arity_bound = kUnbounded;
  /// Upper bound on any operator's output rows at the node; +infinity
  /// when unbounded.
  double rows_bound = 0.0;

  static constexpr int kUnbounded = -1;
};

/// Verification callbacks the static-analysis layer installs into the
/// execution layer (exec cannot depend on analysis — analysis depends on
/// exec for the physical plan types — so the wiring is a registration).
/// PhysicalPlan::Compile is the one caller of `logical`, `compiled` and
/// `semantic`: when verification is enabled it runs `logical` before and
/// `compiled` after lowering and fails compilation on a non-OK verdict,
/// and it hands a caller that asks what every tier said
/// (VerifierReport). ExplainPlan compiles through it, so its
/// `-- verifier:` line and the predicted side of EXPLAIN ANALYZE are the
/// compile's.
struct PlanVerifierHooks {
  /// Proves the logical plan and analyzes its width; on success returns
  /// the width analyzer's bounds, one PlanNodeBound per plan node in
  /// pre-order.
  std::function<Result<std::vector<PlanNodeBound>>(
      const ConjunctiveQuery&, const Plan&, const Database&)>
      logical;
  std::function<Status(const ConjunctiveQuery&, const Plan&, const Database&,
                       const PhysicalPlan&)>
      compiled;
  /// Semantic translation validation (analysis/semantic/certify.h): a
  /// third verifier tier beyond structural checks — extracts the
  /// conjunctive query the plan *denotes* and proves it Chandra–Merlin
  /// equivalent to the original, for the logical plan and the compiled
  /// one. Gated independently by PPR_VERIFY_SEMANTICS /
  /// EnableSemanticVerification, so it composes with — but does not
  /// require — the structural tier.
  std::function<Status(const ConjunctiveQuery&, const Plan&, const Database&,
                       const PhysicalPlan&)>
      semantic;
};

/// What the verifier tiers said about one PhysicalPlan::Compile, for a
/// caller that shows it (EXPLAIN). A verdict is "OK" or the tier's
/// failure, and empty when the tier did not run.
struct VerifierReport {
  /// The structural tiers: `logical` before lowering, then `compiled`
  /// (the first failure, when one fails).
  std::string structural;
  /// The width analyzer's bounds per plan node, as the `logical` tier
  /// returned them, once both structural tiers passed; empty when they
  /// did not run.
  std::vector<PlanNodeBound> node_bounds;
  /// The semantic tier, and what it cost in wall ns (-1 when it did not
  /// run).
  std::string semantic;
  int64_t semantic_ns = -1;
};

/// Installs the hooks (replacing any previous ones). Safe to call while
/// compiles are running on other threads: the installed set is an
/// immutable snapshot swapped under a lock, so in-flight compiles keep
/// the hooks they already fetched. (Previously this rebound a bare
/// static struct that racing compiles read member-by-member — one of
/// the latent races the capability retrofit surfaced.)
void SetPlanVerifierHooks(PlanVerifierHooks hooks);

/// Removes the hooks.
void ClearPlanVerifierHooks();

/// The currently installed hook snapshot — never null; members are null
/// when none installed. Callers keep the snapshot alive for the
/// duration of one compile, so a concurrent Set/Clear cannot pull the
/// callbacks out from under them.
std::shared_ptr<const PlanVerifierHooks> GetPlanVerifierHooks();

/// Debug flag gating verification at compile time. Starts ON
/// when the environment sets PPR_VERIFY_PLANS to anything but "0",
/// OFF otherwise; toggled programmatically by tests and tools (an
/// atomic, so toggling while worker threads compile is a stale read at
/// worst, never a torn one). Hooks only fire when both installed and
/// enabled.
void EnablePlanVerification(bool on);
bool PlanVerificationEnabled();

/// Independent gate for the semantic tier. Starts ON when the environment
/// sets PPR_VERIFY_SEMANTICS to anything but "0"; toggled
/// programmatically like EnablePlanVerification. The `semantic` hook
/// fires when installed and this gate is on, regardless of the
/// structural gate — semantic certification is meaningful (and much
/// stronger) on its own.
void EnableSemanticVerification(bool on);
bool SemanticVerificationEnabled();

}  // namespace ppr

#endif  // PPR_EXEC_VERIFY_HOOK_H_
