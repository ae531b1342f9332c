#include "benchlib/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/strategies.h"
#include "exec/executor.h"
#include "exec/physical_plan.h"
#include "graph/elimination.h"

namespace ppr {

std::vector<StrategyKind> AllStrategies() {
  return {StrategyKind::kStraightforward, StrategyKind::kEarlyProjection,
          StrategyKind::kReordering, StrategyKind::kBucketElimination,
          StrategyKind::kTreewidth};
}

const char* StrategyName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kStraightforward:
      return "straightforward";
    case StrategyKind::kEarlyProjection:
      return "early";
    case StrategyKind::kReordering:
      return "reorder";
    case StrategyKind::kBucketElimination:
      return "bucket";
    case StrategyKind::kTreewidth:
      return "treewidth";
  }
  return "?";
}

Plan BuildStrategyPlan(StrategyKind kind, const ConjunctiveQuery& query,
                       uint64_t seed) {
  Rng rng(seed);
  switch (kind) {
    case StrategyKind::kStraightforward:
      return StraightforwardPlan(query);
    case StrategyKind::kEarlyProjection:
      return EarlyProjectionPlan(query);
    case StrategyKind::kReordering:
      return ReorderingPlan(query, &rng);
    case StrategyKind::kBucketElimination:
      return BucketEliminationPlanMcs(query, &rng);
    case StrategyKind::kTreewidth: {
      const Graph join_graph = BuildJoinGraph(query);
      const EliminationOrder order =
          McsEliminationOrder(join_graph, query.free_vars(), &rng);
      return TreewidthPlan(query, order);
    }
  }
  PPR_CHECK(false);
  return Plan();
}

StrategyRun RunStrategy(StrategyKind kind, const ConjunctiveQuery& query,
                        const Database& db, Counter tuple_budget,
                        uint64_t seed) {
  StrategyRun run;
  WallTimer plan_timer;
  Plan plan = BuildStrategyPlan(kind, query, seed);
  run.plan_seconds = plan_timer.ElapsedSeconds();
  run.plan_width = plan.Width();

  // Lower once, execute once: exec_seconds measures pure data movement,
  // with all schema/column-map derivation accounted to compile_seconds.
  WallTimer compile_timer;
  Result<PhysicalPlan> compiled = PhysicalPlan::Compile(query, plan, db);
  run.compile_seconds = compile_timer.ElapsedSeconds();
  PPR_CHECK(compiled.ok());

  ExecutionResult result = ExecuteCompiled(*compiled, tuple_budget);
  run.exec_seconds = result.seconds;
  run.timed_out = result.status.code() == StatusCode::kResourceExhausted;
  PPR_CHECK(run.timed_out || result.status.ok());
  run.nonempty = !run.timed_out && result.nonempty();
  run.tuples_produced = result.stats.tuples_produced;
  run.max_intermediate_rows = result.stats.max_intermediate_rows;
  run.peak_bytes = result.stats.peak_bytes;
  return run;
}

double Median(std::vector<double> values) {
  PPR_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];
}

std::string FormatSeconds(double seconds) {
  if (std::isinf(seconds)) return "TIMEOUT";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", seconds);
  return buf;
}

SeriesTable::SeriesTable(std::string x_label,
                         std::vector<std::string> series) {
  header_.push_back(std::move(x_label));
  for (auto& s : series) header_.push_back(std::move(s));
}

void SeriesTable::AddRow(const std::string& x,
                         const std::vector<std::string>& cells) {
  PPR_CHECK(cells.size() + 1 == header_.size());
  std::vector<std::string> row;
  row.push_back(x);
  row.insert(row.end(), cells.begin(), cells.end());
  rows_.push_back(std::move(row));
}

void SeriesTable::Print() const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
    for (const auto& row : rows_) widths[c] = std::max(widths[c], row[c].size());
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::ostringstream line;
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) line << "  ";
      line << row[c];
      if (c + 1 < row.size()) {
        line << std::string(widths[c] - row[c].size(), ' ');
      }
    }
    std::printf("%s\n", line.str().c_str());
  };
  print_row(header_);
  for (const auto& row : rows_) print_row(row);
}

void SeriesTable::PrintCsv() const {
  auto print_csv_row = [](const std::vector<std::string>& row) {
    std::ostringstream line;
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) line << ",";
      line << row[c];
    }
    std::printf("%s\n", line.str().c_str());
  };
  print_csv_row(header_);
  for (const auto& row : rows_) print_csv_row(row);
}

}  // namespace ppr
