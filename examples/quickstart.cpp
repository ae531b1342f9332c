// Quickstart: the Appendix A pentagon, end to end.
//
// Builds the 3-COLOR query for a 5-cycle, shows each optimization
// strategy's join-expression tree (with working/projected labels), renders
// the forced-order SQL, executes every plan against the 6-tuple `edge`
// relation, and prints answers plus work counters.
//
//   ./examples/quickstart
//
// Each plan compiles through CompileVerified, so PPR_VERIFY_PLANS=1 /
// PPR_VERIFY_SEMANTICS=1 prove every plan before it runs.

#include <cstdio>

#include "analysis/verifier.h"
#include "analysis/width_analyzer.h"
#include "benchlib/harness.h"
#include "encode/kcolor.h"
#include "exec/executor.h"
#include "exec/physical_plan.h"
#include "sql/sql_generator.h"

int main() {
  using namespace ppr;

  // 1. The database: one binary relation with the 6 pairs of distinct
  //    colors (Section 2).
  Database db;
  AddColoringRelations(3, &db);

  // 2. The query: pi_{v1} of the join of the pentagon's five edge atoms.
  ConjunctiveQuery query = PentagonQuery();
  std::printf("Query:\n  %s\n\n", query.ToString().c_str());
  std::printf("Naive SQL translation (Section 3):\n%s\n\n",
              NaiveSql(query).c_str());

  // 3. Each strategy: plan, width, SQL, execution.
  for (StrategyKind kind : AllStrategies()) {
    Plan plan = BuildStrategyPlan(kind, query, /*seed=*/0);
    std::printf("=== %s ===\n", StrategyName(kind));
    std::printf("join-expression tree (L_w = working label, L_p = projected "
                "label):\n%s",
                plan.ToString(query).c_str());
    std::printf("join width: %d\n", plan.Width());

    Result<PhysicalPlan> compiled =
        CompileVerified(query, plan, db, AnalyzePlan(query, plan, db));
    if (!compiled.ok()) {
      std::printf("compilation failed: %s\n\n",
                  compiled.status().ToString().c_str());
      continue;
    }
    ExecutionResult result = ExecuteCompiled(*compiled);
    if (!result.status.ok()) {
      std::printf("execution failed: %s\n\n", result.status.ToString().c_str());
      continue;
    }
    std::printf("answer: %s (%lld tuples), %lld tuples produced, widest "
                "intermediate %lld rows\n\n",
                result.nonempty() ? "3-COLORABLE" : "not 3-colorable",
                static_cast<long long>(result.output.size()),
                static_cast<long long>(result.stats.tuples_produced),
                static_cast<long long>(result.stats.max_intermediate_rows));
  }

  // 4. The forced-order SQL for the strongest strategy, in the style of
  //    Appendix A.5.
  Plan bucket = BuildStrategyPlan(StrategyKind::kBucketElimination, query, 0);
  std::printf("Bucket-elimination SQL (Appendix A.5 style):\n%s\n",
              PlanToSql(query, bucket).c_str());
  return 0;
}
