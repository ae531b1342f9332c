// End-to-end scenarios mirroring the paper's experimental setup at small
// scale: generate instances, build all strategy plans, execute against the
// 6-tuple edge database, and check both answers and the relative work the
// strategies perform.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "benchlib/harness.h"
#include "common/rng.h"
#include "encode/kcolor.h"
#include "encode/reference.h"
#include "encode/sat.h"
#include "exec/executor.h"
#include "graph/generators.h"
#include "sql/sql_generator.h"

namespace ppr {
namespace {

struct Family {
  const char* name;
  Graph (*make)(int);
};

class StructuredFamilyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  static Family GetFamily(int index) {
    static constexpr Family kFamilies[] = {
        {"augmented_path", &AugmentedPath},
        {"ladder", &Ladder},
        {"augmented_ladder", &AugmentedLadder},
        {"augmented_circular_ladder", &AugmentedCircularLadder},
    };
    return kFamilies[index];
  }
};

TEST_P(StructuredFamilyTest, AllStrategiesAgreeAndAreColorable) {
  const auto [family_index, order] = GetParam();
  if (family_index == 3 && order < 3) return;  // circular needs order >= 3
  Family family = GetFamily(family_index);
  Graph g = family.make(order);
  // All four structured families are 3-colorable at every order.
  ASSERT_TRUE(IsKColorable(g, 3)) << family.name;

  Database db;
  AddColoringRelations(3, &db);
  ConjunctiveQuery q = KColorQuery(g);
  for (StrategyKind kind : AllStrategies()) {
    StrategyRun run = RunStrategy(kind, q, db, /*tuple_budget=*/50'000'000,
                                  /*seed=*/order);
    ASSERT_FALSE(run.timed_out) << family.name << " " << StrategyName(kind);
    EXPECT_TRUE(run.nonempty) << family.name << " " << StrategyName(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Families, StructuredFamilyTest,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(3, 4, 5)));

TEST(WorkCountersTest, BucketEliminationDoesLessWorkOnLadders) {
  // The headline claim at small scale: on the structured families the
  // bucket-elimination strategy produces far fewer tuples than the
  // straightforward strategy, and the gap widens with the order.
  Database db;
  AddColoringRelations(3, &db);
  Counter previous_gap = 0;
  for (int order : {2, 3, 4}) {
    ConjunctiveQuery q = KColorQuery(AugmentedLadder(order));
    StrategyRun sf = RunStrategy(StrategyKind::kStraightforward, q, db,
                                 500'000'000, 1);
    StrategyRun be = RunStrategy(StrategyKind::kBucketElimination, q, db,
                                 500'000'000, 1);
    ASSERT_FALSE(sf.timed_out);
    ASSERT_FALSE(be.timed_out);
    EXPECT_LT(be.tuples_produced, sf.tuples_produced) << "order " << order;
    const Counter gap = sf.tuples_produced - be.tuples_produced;
    EXPECT_GT(gap, previous_gap) << "order " << order;
    previous_gap = gap;
  }
}

TEST(WorkCountersTest, EarlyProjectionBeatsStraightforwardOnAugmentedPath) {
  Database db;
  AddColoringRelations(3, &db);
  ConjunctiveQuery q = KColorQuery(AugmentedPath(10));
  StrategyRun sf =
      RunStrategy(StrategyKind::kStraightforward, q, db, 500'000'000, 1);
  StrategyRun ep =
      RunStrategy(StrategyKind::kEarlyProjection, q, db, 500'000'000, 1);
  ASSERT_FALSE(sf.timed_out);
  ASSERT_FALSE(ep.timed_out);
  EXPECT_LT(ep.tuples_produced, sf.tuples_produced);
  EXPECT_LT(ep.max_intermediate_rows, sf.max_intermediate_rows);
}

TEST(TimeoutScalingTest, WeakStrategiesTimeOutWhereBucketSurvives) {
  // Fig. 8/9 behaviour in miniature: pick a budget the straightforward
  // plan blows through while bucket elimination finishes comfortably.
  Database db;
  AddColoringRelations(3, &db);
  ConjunctiveQuery q = KColorQuery(AugmentedCircularLadder(6));
  const Counter budget = 500'000;
  StrategyRun sf =
      RunStrategy(StrategyKind::kStraightforward, q, db, budget, 1);
  StrategyRun be =
      RunStrategy(StrategyKind::kBucketElimination, q, db, budget, 1);
  EXPECT_TRUE(sf.timed_out);
  EXPECT_FALSE(be.timed_out);
  EXPECT_TRUE(be.nonempty);
}

// Fig. 7 at order 10, as `fig7_ladder --min-order=10 --max-order=10`
// runs it (seed 0, 2M budget): the tuple counts of both panels, and the
// figure's ranking bucket < early < reorder < straightforward.
TEST(FigureShapeTest, Fig7LadderOrder10) {
  Database db;
  AddColoringRelations(3, &db);
  const Graph g = Ladder(10);
  Rng rng(17);
  struct Panel {
    const char* name;
    ConjunctiveQuery query;
    std::vector<Counter> tuples;  // straightforward, early, reorder, bucket
  };
  const std::vector<Panel> panels = {
      {"Boolean", KColorQuery(g), {531'585, 1'503, 147'069, 699}},
      {"non-Boolean", KColorQueryNonBoolean(g, 0.2, rng),
       {531'624, 11'727, 174'780, 783}},
  };
  const std::vector<StrategyKind> kinds = {
      StrategyKind::kStraightforward, StrategyKind::kEarlyProjection,
      StrategyKind::kReordering, StrategyKind::kBucketElimination};
  for (const Panel& panel : panels) {
    std::vector<Counter> tuples;
    for (StrategyKind kind : kinds) {
      const StrategyRun run = RunStrategy(kind, panel.query, db, 2'000'000, 0);
      EXPECT_FALSE(run.timed_out) << panel.name << " " << StrategyName(kind);
      tuples.push_back(run.tuples_produced);
    }
    EXPECT_EQ(tuples, panel.tuples) << panel.name;
    EXPECT_LT(tuples[3], tuples[1]) << panel.name;
    EXPECT_LT(tuples[1], tuples[2]) << panel.name;
    EXPECT_LT(tuples[2], tuples[0]) << panel.name;
  }
}

// Fig. 4 at density 3.0, as `fig4_order_scaling_d30 --min-order=10
// --max-order=20` runs it: the median tuples over seeds 0-2, pinned per
// order, none of them a timeout (one straightforward seed at order 20
// exhausts the budget, as in the figure's table). Bucket elimination
// does less work than straightforward at every order, and its per-order
// growth from order 10 to 20 (x1.27) stays strictly below
// straightforward's (x1.67). These are completed chains of up to 59
// fold steps, whose projection streams the chain's top.
TEST(FigureShapeTest, Fig4OrderScalingDensity3) {
  Database db;
  AddColoringRelations(3, &db);
  const std::vector<int> orders = {10, 12, 14, 16, 18, 20};
  const std::vector<std::pair<StrategyKind, std::vector<Counter>>> pinned = {
      {StrategyKind::kStraightforward,
       {4'584, 10'698, 93'906, 92'016, 411'366, 769'260}},
      {StrategyKind::kBucketElimination,
       {1'347, 1'596, 2'091, 6'891, 4'026, 14'739}},
  };
  std::vector<std::vector<Counter>> medians;
  for (const auto& [kind, want] : pinned) {
    std::vector<Counter> got;
    for (const int order : orders) {
      std::vector<Counter> tuples;
      for (uint64_t seed = 0; seed < 3; ++seed) {
        Rng rng(seed * 7919 + 17);
        const ConjunctiveQuery q =
            KColorQuery(RandomGraphWithDensity(order, 3.0, rng));
        const StrategyRun run = RunStrategy(kind, q, db, 2'000'000, seed);
        tuples.push_back(run.timed_out ? kCounterMax : run.tuples_produced);
      }
      // A timed-out seed counts as infinite work, as in the sweep.
      std::sort(tuples.begin(), tuples.end());
      EXPECT_LT(tuples[1], kCounterMax)
          << StrategyName(kind) << " order " << order << " timed out";
      got.push_back(tuples[1]);
    }
    EXPECT_EQ(got, want) << StrategyName(kind);
    medians.push_back(std::move(got));
  }
  const std::vector<Counter>& straightforward = medians[0];
  const std::vector<Counter>& bucket = medians[1];
  for (size_t i = 0; i < orders.size(); ++i) {
    EXPECT_LT(bucket[i], straightforward[i]) << "order " << orders[i];
  }
  const auto growth = [&](const std::vector<Counter>& t) {
    return std::pow(static_cast<double>(t.back()) / t.front(),
                    1.0 / (orders.back() - orders.front()));
  };
  EXPECT_LT(growth(bucket), growth(straightforward));
}

TEST(NonBooleanTest, TwentyPercentFreeVariablesEndToEnd) {
  Database db;
  AddColoringRelations(3, &db);
  Rng rng(7);
  Graph g = AugmentedLadder(4);
  ConjunctiveQuery q = KColorQueryNonBoolean(g, 0.2, rng);
  EXPECT_EQ(q.free_vars().size(), 3u);  // 20% of 16 vertices, rounded down

  Relation reference;
  bool first = true;
  for (StrategyKind kind : AllStrategies()) {
    StrategyRun run = RunStrategy(kind, q, db, 500'000'000, 9);
    ASSERT_FALSE(run.timed_out);
    Plan plan = BuildStrategyPlan(kind, q, 9);
    ExecutionResult r = ExecutePlan(q, plan, db);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.output.arity(), 3);
    if (first) {
      reference = std::move(r.output);
      first = false;
    } else {
      EXPECT_TRUE(r.output.SetEquals(reference)) << StrategyName(kind);
    }
  }
}

TEST(SatPipelineTest, ThreeSatEndToEnd) {
  Rng rng(11);
  Cnf cnf = RandomKSat(8, 20, 3, rng);
  ConjunctiveQuery q = SatQuery(cnf);
  Database db;
  AddSatRelations(3, &db);
  const bool expected = IsSatisfiable(cnf);
  for (StrategyKind kind : AllStrategies()) {
    StrategyRun run = RunStrategy(kind, q, db, 500'000'000, 13);
    ASSERT_FALSE(run.timed_out);
    EXPECT_EQ(run.nonempty, expected) << StrategyName(kind);
  }
}

TEST(SqlPipelineTest, GeneratedSqlCoversAllMethods) {
  // The library's SQL view of the same pipeline: every strategy's plan
  // renders to SQL naming every atom, plus the naive translation.
  ConjunctiveQuery q = KColorQuery(Ladder(4));
  EXPECT_FALSE(NaiveSql(q).empty());
  for (StrategyKind kind : AllStrategies()) {
    Plan plan = BuildStrategyPlan(kind, q, 3);
    std::string sql = PlanToSql(q, plan);
    for (int i = 1; i <= q.num_atoms(); ++i) {
      EXPECT_NE(sql.find("e" + std::to_string(i) + " "), std::string::npos)
          << StrategyName(kind);
    }
  }
}

TEST(DensitySweepTest, AnswerFlipsFromColorableToUncolorable) {
  // Density scaling in miniature: low-density random instances are
  // 3-colorable, high-density ones are not; the engine must track the
  // reference solver across the whole sweep.
  Database db;
  AddColoringRelations(3, &db);
  Rng rng(17);
  int colorable_low = 0;
  int colorable_high = 0;
  for (int i = 0; i < 5; ++i) {
    Graph low = RandomGraphWithDensity(12, 1.0, rng);
    Graph high = RandomGraphWithDensity(12, 5.0, rng);
    for (const Graph* g : {&low, &high}) {
      ConjunctiveQuery q = KColorQuery(*g);
      ExecutionResult r =
          ExecutePlan(q, BuildStrategyPlan(StrategyKind::kBucketElimination,
                                           q, i),
                      db);
      ASSERT_TRUE(r.status.ok());
      EXPECT_EQ(r.nonempty(), IsKColorable(*g, 3));
      if (g == &low) colorable_low += r.nonempty();
      if (g == &high) colorable_high += r.nonempty();
    }
  }
  EXPECT_GT(colorable_low, colorable_high);  // under- vs over-constrained
}

}  // namespace
}  // namespace ppr
