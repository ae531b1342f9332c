#ifndef PPR_BENCHLIB_HARNESS_H_
#define PPR_BENCHLIB_HARNESS_H_

#include <string>
#include <vector>

#include "common/types.h"
#include "core/plan.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"

namespace ppr {

/// The optimization methods compared throughout Section 6.
enum class StrategyKind {
  kStraightforward,    // Section 3 (forced listed order, no pushing)
  kEarlyProjection,    // Section 4 (listed order, projection pushing)
  kReordering,         // Section 4 (greedy order + projection pushing)
  kBucketElimination,  // Section 5 (MCS-ordered bucket elimination)
  kTreewidth,          // extension: Algorithm 3 over an MCS decomposition
};

/// All strategies in presentation order.
std::vector<StrategyKind> AllStrategies();

/// Short column label, e.g. "bucket".
const char* StrategyName(StrategyKind kind);

/// Builds the plan for `kind`; randomized tie-breaks are seeded with
/// `seed` so runs are reproducible.
Plan BuildStrategyPlan(StrategyKind kind, const ConjunctiveQuery& query,
                       uint64_t seed);

/// One measured run of a strategy on a query.
struct StrategyRun {
  double plan_seconds = 0.0;     // time to construct the logical plan
  double compile_seconds = 0.0;  // logical -> physical lowering time
  double exec_seconds = 0.0;     // execution time (the paper's y-axis)
  bool timed_out = false;        // tuple budget exhausted
  bool nonempty = false;         // Boolean answer (valid when !timed_out)
  Counter tuples_produced = 0;
  Counter max_intermediate_rows = 0;
  Counter peak_bytes = 0;  // largest operator scratch+output footprint
  int plan_width = 0;      // static join width of the executed plan
};

/// Plans and executes `kind` on (query, db) under a tuple budget.
StrategyRun RunStrategy(StrategyKind kind, const ConjunctiveQuery& query,
                        const Database& db, Counter tuple_budget,
                        uint64_t seed);

/// Median of `values`; timeouts should be encoded as +infinity by the
/// caller. PPR_CHECK-fails on empty input. Even-sized inputs return the
/// lower-middle element (a real observation, as in the paper's medians).
double Median(std::vector<double> values);

/// Renders seconds with 4 significant digits, or "TIMEOUT" for +infinity.
std::string FormatSeconds(double seconds);

/// Fixed-width table printer for the figure benches: one row per x value,
/// one column per series.
class SeriesTable {
 public:
  /// `x_label` heads the first column; `series` the remaining ones.
  SeriesTable(std::string x_label, std::vector<std::string> series);

  /// Adds a row; `cells.size()` must match the series count.
  void AddRow(const std::string& x, const std::vector<std::string>& cells);

  /// Prints header + rows to stdout.
  void Print() const;

  /// Prints the table as CSV (for plotting the figures from the sweeps).
  void PrintCsv() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ppr

#endif  // PPR_BENCHLIB_HARNESS_H_
