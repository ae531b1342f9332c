// Golden regression suite: every randomized component is seeded, so work
// counters are bit-for-bit reproducible. These tests pin the exact tuple
// counts and plan widths of representative runs; any change to the
// engine, the strategies, the generators, or the RNG stream shows up
// here as a diff to investigate rather than a silent behavior change.
//
// When an intentional change shifts these numbers, re-derive them with
// the tools in examples/ and update the table — do not loosen the checks.

#include <gtest/gtest.h>

#include "benchlib/harness.h"
#include "common/rng.h"
#include "encode/kcolor.h"
#include "encode/sat.h"
#include "exec/physical_plan.h"
#include "graph/generators.h"

namespace ppr {
namespace {

struct Golden {
  StrategyKind kind;
  Counter tuples;
  int width;
};

void CheckGoldens(const ConjunctiveQuery& query, const Database& db,
                  const std::vector<Golden>& goldens, uint64_t seed,
                  bool expect_nonempty) {
  for (const Golden& g : goldens) {
    StrategyRun run = RunStrategy(g.kind, query, db, kCounterMax, seed);
    EXPECT_EQ(run.tuples_produced, g.tuples) << StrategyName(g.kind);
    EXPECT_EQ(run.plan_width, g.width) << StrategyName(g.kind);
    EXPECT_EQ(run.nonempty, expect_nonempty) << StrategyName(g.kind);
    EXPECT_FALSE(run.timed_out) << StrategyName(g.kind);
  }
}

TEST(RegressionTest, PentagonCounters) {
  Database db;
  AddColoringRelations(3, &db);
  ConjunctiveQuery q = PentagonQuery();
  CheckGoldens(q, db,
               {
                   {StrategyKind::kStraightforward, 147, 5},
                   {StrategyKind::kEarlyProjection, 153, 4},
                   {StrategyKind::kReordering, 114, 3},
                   {StrategyKind::kBucketElimination, 114, 3},
                   {StrategyKind::kTreewidth, 105, 3},
               },
               /*seed=*/0, /*expect_nonempty=*/true);

  // The pentagon's widest intermediates, per strategy.
  StrategyRun sf = RunStrategy(StrategyKind::kStraightforward, q, db,
                               kCounterMax, 0);
  EXPECT_EQ(sf.max_intermediate_rows, 48);
  StrategyRun be = RunStrategy(StrategyKind::kBucketElimination, q, db,
                               kCounterMax, 0);
  EXPECT_EQ(be.max_intermediate_rows, 18);
}

TEST(RegressionTest, AugmentedLadderCounters) {
  Database db;
  AddColoringRelations(3, &db);
  ConjunctiveQuery q = KColorQuery(AugmentedLadder(4));
  CheckGoldens(q, db,
               {
                   {StrategyKind::kStraightforward, 101883, 16},
                   {StrategyKind::kEarlyProjection, 750, 4},
                   {StrategyKind::kReordering, 43926, 9},
                   {StrategyKind::kBucketElimination, 432, 4},
                   {StrategyKind::kTreewidth, 432, 4},
               },
               /*seed=*/0, /*expect_nonempty=*/true);
}

TEST(RegressionTest, SeededRandomGraphCounters) {
  Database db;
  AddColoringRelations(3, &db);
  Rng rng(42);
  ConjunctiveQuery q = KColorQuery(RandomGraph(12, 24, rng));
  CheckGoldens(q, db,
               {
                   {StrategyKind::kStraightforward, 18417, 12},
                   {StrategyKind::kEarlyProjection, 20565, 11},
                   {StrategyKind::kReordering, 12711, 10},
                   {StrategyKind::kBucketElimination, 3303, 8},
                   {StrategyKind::kTreewidth, 2733, 8},
               },
               /*seed=*/7, /*expect_nonempty=*/true);
}

TEST(RegressionTest, SeededSatCounters) {
  Database db;
  AddSatRelations(3, &db);
  Rng rng(9);
  ConjunctiveQuery q = SatQuery(RandomKSat(10, 30, 3, rng));
  CheckGoldens(q, db,
               {
                   {StrategyKind::kStraightforward, 4112, 10},
                   {StrategyKind::kEarlyProjection, 4148, 10},
                   {StrategyKind::kReordering, 3690, 10},
                   {StrategyKind::kBucketElimination, 1853, 8},
                   {StrategyKind::kTreewidth, 1571, 8},
               },
               /*seed=*/3, /*expect_nonempty=*/true);
}

// Fig. 8's TIMEOUT cells: a budget-bound run stops at a deterministic
// point, so its status and every ExecStats field but peak_bytes are
// pinned like the unbudgeted counters above.
struct BudgetGolden {
  StrategyKind kind;
  StatusCode status;
  Counter tuples;
  Counter joins;
  Counter projections;
  int max_arity;
  Counter max_rows;
};

constexpr Counter kFig8Budget = 2000000;

// A budget-bound straightforward run must not write a join nobody reads:
// its widest join on these instances is 39.8 MB when written. Nor does
// it write the joins the chain counts through once the next count may
// exhaust the budget (18.9 MB when the spine was written): its peak,
// 11,944,528 bytes, is the last level written before its next count.
constexpr Counter kBudgetBoundPeakBytes = Counter{12} << 20;

// Nor may a budget-bound reordering run write its widest join (55.3 MB)
// or deduplicate a keyed projection through an index over every join row
// (16,166,692 bytes): with each probe row's keys taken from its key
// group's representatives its peak is 7,794,724 bytes on both instances.
constexpr Counter kReorderingPeakBytes = Counter{12} << 20;

void CheckBudgetGoldens(const ConjunctiveQuery& query,
                        const std::vector<BudgetGolden>& goldens) {
  Database db;
  AddColoringRelations(3, &db);
  for (const BudgetGolden& g : goldens) {
    SCOPED_TRACE(StrategyName(g.kind));
    const Plan plan = BuildStrategyPlan(g.kind, query, /*seed=*/0);
    Result<PhysicalPlan> compiled = PhysicalPlan::Compile(query, plan, db);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    const ExecutionResult run =
        compiled->ExecuteShared(nullptr, kFig8Budget);
    EXPECT_EQ(run.status.code(), g.status);
    EXPECT_EQ(run.stats.tuples_produced, g.tuples);
    EXPECT_EQ(run.stats.num_joins, g.joins);
    EXPECT_EQ(run.stats.num_projections, g.projections);
    EXPECT_EQ(run.stats.num_semijoins, 0);
    EXPECT_EQ(run.stats.max_intermediate_arity, g.max_arity);
    EXPECT_EQ(run.stats.max_intermediate_rows, g.max_rows);
    if (g.kind == StrategyKind::kStraightforward) {
      EXPECT_LT(run.stats.peak_bytes, kBudgetBoundPeakBytes);
    }
    if (g.kind == StrategyKind::kReordering) {
      EXPECT_LT(run.stats.peak_bytes, kReorderingPeakBytes)
          << run.stats.peak_bytes;
    }
  }
}

TEST(RegressionTest, Fig8BudgetBoundBooleanLadder) {
  CheckBudgetGoldens(
      KColorQuery(AugmentedLadder(7)),
      {
          {StrategyKind::kStraightforward, StatusCode::kResourceExhausted,
           2000001, 23, 0, 21, 778341},
          {StrategyKind::kEarlyProjection, StatusCode::kOk, 1650, 32, 25, 4,
           54},
          {StrategyKind::kReordering, StatusCode::kResourceExhausted, 2000001,
           11, 12, 13, 1062882},
          {StrategyKind::kBucketElimination, StatusCode::kOk, 774, 32, 27, 4,
           54},
      });
}

// Reordering exhausts the budget in a join over an unprojected
// 1,062,882-row join (Rng(1) gives the projection shape instead).
TEST(RegressionTest, Fig8BudgetBoundFreeLadder) {
  Rng rng(2);
  CheckBudgetGoldens(
      KColorQueryNonBoolean(AugmentedLadder(7), 0.2, rng),
      {
          {StrategyKind::kStraightforward, StatusCode::kResourceExhausted,
           2000001, 23, 0, 21, 778341},
          {StrategyKind::kEarlyProjection, StatusCode::kOk, 7317, 32, 22, 7,
           648},
          {StrategyKind::kReordering, StatusCode::kResourceExhausted, 2000001,
           12, 11, 15, 1062882},
          {StrategyKind::kBucketElimination, StatusCode::kOk, 9177, 32, 23, 8,
           2916},
      });
}

TEST(RegressionTest, RngStreamIsPinned) {
  // The golden counters above depend on this exact stream; if this test
  // fails, the RNG changed and every seeded experiment shifted with it.
  Rng rng(42);
  EXPECT_EQ(rng.NextU64(), 1546998764402558742ULL);
  EXPECT_EQ(rng.NextU64(), 6990951692964543102ULL);
  EXPECT_EQ(rng.NextBounded(1000), 9u);
}

}  // namespace
}  // namespace ppr
