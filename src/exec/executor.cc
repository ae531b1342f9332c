#include "exec/executor.h"

#include <utility>

#include "core/strategies.h"
#include "exec/physical_plan.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppr {

ExecutionResult ExecutePlan(const ConjunctiveQuery& query, const Plan& plan,
                            const Database& db, Counter tuple_budget) {
  ExecutionOptions options;
  options.tuple_budget = tuple_budget;
  return ExecutePlanWithOptions(query, plan, db, options);
}

ExecutionResult ExecutePlanWithOptions(const ConjunctiveQuery& query,
                                       const Plan& plan, const Database& db,
                                       const ExecutionOptions& options) {
  Result<PhysicalPlan> compiled =
      PhysicalPlan::Compile(query, plan, db, options.join_algorithm);
  if (!compiled.ok()) {
    ExecutionResult result;
    result.status = compiled.status();
    return result;
  }
  return ExecuteCompiled(*compiled, options.tuple_budget);
}

ExecutionResult ExecuteCompiled(const PhysicalPlan& plan,
                                Counter tuple_budget) {
  if (!TracingEnabled()) return plan.ExecuteShared(nullptr, tuple_budget);
  TraceSink trace;
  MetricsRegistry run_metrics;
  ExecutionResult result =
      plan.ExecuteShared(nullptr, tuple_budget, &trace, &run_metrics);
  PublishRun(run_metrics, trace);
  return result;
}

ExecutionResult ExecuteStraightforward(const ConjunctiveQuery& query,
                                       const Database& db,
                                       Counter tuple_budget) {
  return ExecutePlan(query, StraightforwardPlan(query), db, tuple_budget);
}

}  // namespace ppr
