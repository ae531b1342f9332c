// Interactive-ish query tool: parse a conjunctive query from the command
// line, plan it with every strategy, compare widths, execute it against a
// chosen database, and optionally emit SQL or Graphviz renderings.
//
//   ./examples/query_tool --query='pi{X} edge(X,Y) & edge(Y,Z) & edge(X,Z)'
//                         [--db=colors3|colors2|sat3|sat2]
//                         [--emit=none|sql|dot|explain] [--strategy=bucket]
//                         [--metrics] [--query-log=PATH]
//
// Example: the triangle query above is nonempty over colors3 (a triangle
// is 3-colorable) and empty over colors2.
//
// --metrics prints, after each strategy's execution, the metrics that
// run contributed (its registry delta, as JSONL — including the
// p50/p90/p99 lines on every histogram, and the semantic tier's
// analysis.semantic.* entries when PPR_VERIFY_SEMANTICS is set).
// --query-log=PATH enables the telemetry query log and exports one
// structured record per executed (query, strategy) job to PATH; render
// it with `tools/pprstat log PATH`.
//
// PPR_VERIFY_PLANS / PPR_VERIFY_SEMANTICS prove every plan it compiles
// (structurally / semantically) before it runs: the strategy runs resolve
// through the plan cache and --emit=explain through ExplainPlan, and both
// compile through CompileVerified. A rejection is that strategy's error
// and shows on the EXPLAIN verifier line.

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "analysis/explain.h"
#include "benchlib/figures.h"
#include "benchlib/harness.h"
#include "common/mutex.h"
#include "encode/kcolor.h"
#include "encode/sat.h"
#include "exec/executor.h"
#include "io/dot.h"
#include "obs/metrics.h"
#include "obs/telemetry/query_log.h"
#include "query/parser.h"
#include "runtime/batch_executor.h"
#include "sql/sql_generator.h"

namespace {

const char* FlagValue(int argc, char** argv, const char* name,
                      const char* fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppr;

  const std::string text = FlagValue(
      argc, argv, "query", "pi{X} edge(X,Y) & edge(Y,Z) & edge(X,Z)");
  const std::string db_name = FlagValue(argc, argv, "db", "colors3");
  const std::string emit = FlagValue(argc, argv, "emit", "none");
  const std::string strategy_name =
      FlagValue(argc, argv, "strategy", "bucket");
  const bool show_metrics = HasFlag(argc, argv, "metrics");
  const std::string query_log_path =
      FlagValue(argc, argv, "query-log", "");
  if (!query_log_path.empty()) EnableQueryLog(query_log_path);

  Result<ParsedQuery> parsed = ParseQuery(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  const ConjunctiveQuery& query = parsed->query;
  std::printf("parsed: %s\n", query.ToString().c_str());

  Database db;
  if (db_name == "colors3") {
    AddColoringRelations(3, &db);
  } else if (db_name == "colors2") {
    AddColoringRelations(2, &db);
  } else if (db_name == "sat3") {
    AddSatRelations(3, &db);
  } else if (db_name == "sat2") {
    AddSatRelations(2, &db);
  } else {
    std::fprintf(stderr, "unknown db '%s'\n", db_name.c_str());
    return 1;
  }
  if (Status s = query.Validate(db); !s.ok()) {
    std::fprintf(stderr, "query does not fit database '%s': %s\n",
                 db_name.c_str(), s.ToString().c_str());
    return 1;
  }

  // Executions run through BatchExecutor (one job per strategy) so the
  // telemetry pipeline sees them: --query-log records populate at the
  // batch drain exactly as in the runtime, and --metrics reads each
  // run's contribution from a private registry the drain merges into.
  // The semantic tier publishes its certifications into GlobalMetrics()
  // only, so their share is read from a delta of that registry.
  MetricsRegistry run_metrics;
  BatchOptions batch_options;
  batch_options.num_threads = 1;
  batch_options.metrics = &run_metrics;
  BatchExecutor executor(db, batch_options);
  const auto global_metrics = [] {
    MutexLock lock(GlobalObsMutex());
    return GlobalMetrics().Snapshot();
  };

  std::printf("\n%-16s %-6s %-10s %-9s %s\n", "strategy", "width",
              "tuples", "seconds", "answer");
  for (StrategyKind kind : AllStrategies()) {
    Plan plan = BuildStrategyPlan(kind, query, /*seed=*/0);
    BatchJob job;
    job.query = query;
    job.strategy = kind;
    job.tuple_budget = 100'000'000;
    run_metrics.Clear();
    const MetricsSnapshot before = global_metrics();
    BatchResult batch = executor.Run({job});
    const ExecutionResult& r = batch.results[0];
    if (!r.status.ok()) {
      std::printf("%-16s %-6d %s\n", StrategyName(kind), plan.Width(),
                  r.status.ToString().c_str());
    } else {
      std::printf("%-16s %-6d %-10lld %-9.4f %s (%lld rows)\n",
                  StrategyName(kind), plan.Width(),
                  static_cast<long long>(r.stats.tuples_produced), r.seconds,
                  r.nonempty() ? "nonempty" : "empty",
                  static_cast<long long>(r.output.size()));
    }
    if (show_metrics) {
      MetricsSnapshot semantic = DeltaSince(before, global_metrics());
      const auto other = [](const auto& entry) {
        return !entry.first.starts_with("analysis.semantic.");
      };
      std::erase_if(semantic.counters, other);
      std::erase_if(semantic.maxes, other);
      std::erase_if(semantic.histograms, other);
      run_metrics.Merge(semantic);
      std::printf("-- metrics delta (%s) --\n%s", StrategyName(kind),
                  run_metrics.ToJsonLines().c_str());
    }
  }
  if (!query_log_path.empty()) {
    std::printf("\nquery log: %s (render with tools/pprstat log)\n",
                query_log_path.c_str());
  }

  StrategyKind chosen = StrategyKind::kBucketElimination;
  for (StrategyKind candidate : AllStrategies()) {
    if (strategy_name == StrategyName(candidate)) chosen = candidate;
  }
  Plan plan = BuildStrategyPlan(chosen, query, /*seed=*/0);
  if (emit == "sql") {
    std::printf("\n-- naive SQL\n%s\n\n-- %s SQL\n%s\n", NaiveSql(query).c_str(),
                StrategyName(chosen), PlanToSql(query, plan).c_str());
  } else if (emit == "dot") {
    std::printf("\n%s\n", PlanToDot(query, plan).c_str());
  } else if (emit == "explain") {
    const double domain = db_name.rfind("colors", 0) == 0
                              ? (db_name == "colors2" ? 2.0 : 3.0)
                              : 2.0;
    ExplainResult r = ExplainPlan(query, plan, db, domain, kCounterMax,
                                  /*analyze=*/true);
    std::printf("\n-- EXPLAIN ANALYZE (%s), worst estimate ratio %.2f --\n%s",
                StrategyName(chosen), r.WorstEstimateRatio(),
                r.ToString().c_str());
  }
  return 0;
}
