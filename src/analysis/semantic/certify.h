#ifndef PPR_ANALYSIS_SEMANTIC_CERTIFY_H_
#define PPR_ANALYSIS_SEMANTIC_CERTIFY_H_

#include <cstdint>

#include "common/status.h"
#include "core/plan.h"
#include "exec/physical_plan.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"

namespace ppr {

/// Outcome of one semantic certification: the Chandra–Merlin equivalence
/// proof between a query and the conjunctive query its plan denotes
/// (analysis/semantic/extract.h). A non-OK verdict means the plan
/// computes a *different query* — the strongest rejection the analysis
/// layer can issue, strictly beyond the structural verifiers, which only
/// prove the tree well-formed.
struct CertificationReport {
  Status verdict = Status::Ok();
  /// Wall time of extraction + both containment directions.
  uint64_t wall_ns = 0;
  /// Variables the extraction had to split because a projection preceded
  /// a later occurrence (0 for every semantics-preserving plan).
  int split_vars = 0;

  bool ok() const { return verdict.ok(); }
};

/// Certifies that `plan` denotes a query equivalent to `query`: extracts
/// the denoted conjunctive query and proves equivalence via the canonical
/// databases of src/minimize. Publishes `analysis.semantic.*` metrics
/// (certification count, failures, wall-ns histogram) to GlobalMetrics().
CertificationReport CertifyPlan(const ConjunctiveQuery& query,
                                const Plan& plan);

/// Same proof against a *compiled* plan, extracting from the physical
/// artifacts alone (scan bindings, output schemas, `db`'s catalog), so it
/// additionally certifies the lowering.
CertificationReport CertifyCompiledPlan(const ConjunctiveQuery& query,
                                        const Database& db,
                                        const PhysicalPlan& physical);

}  // namespace ppr

#endif  // PPR_ANALYSIS_SEMANTIC_CERTIFY_H_
