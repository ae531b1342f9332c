#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/strategies.h"
#include "csp_oracle.h"
#include "encode/reference.h"
#include "encode/sat.h"
#include "exec/executor.h"

namespace ppr {
namespace {

// True when `assignment` (one 0/1 value per variable) satisfies every
// clause of `cnf`.
bool SatisfiesCnf(const Cnf& cnf, const std::vector<Value>& assignment) {
  return std::all_of(
      cnf.clauses.begin(), cnf.clauses.end(), [&](const auto& clause) {
        return std::any_of(clause.begin(), clause.end(),
                           [&](const Literal& lit) {
                             return (assignment[static_cast<size_t>(
                                         lit.var)] != 0) != lit.negated;
                           });
      });
}

TEST(CnfCspTest, MatchesDpll) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    Cnf cnf = RandomKSat(6, rng.NextInt(4, 20), 3, rng);
    const auto solution = SolveCsp(CnfCsp(cnf));
    EXPECT_EQ(solution.has_value(), IsSatisfiable(cnf)) << cnf.ToString();
    if (solution) {
      EXPECT_TRUE(SatisfiesCnf(cnf, *solution)) << cnf.ToString();
    }
  }
}

TEST(SolveCspTest, EmptyDomainMeansUnsolvable) {
  Csp csp;
  csp.domains = {{}};
  csp.constraints.push_back(
      Constraint{{0}, Relation{Schema({0}), {{1}}}});
  EXPECT_FALSE(SolveCsp(csp).has_value());
}

TEST(SolveCspTest, UnconstrainedVariablesGetAnyDomainValue) {
  Csp csp;
  csp.domains = {{7}, {1, 2}};
  const auto solution = SolveCsp(csp);
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ((*solution)[0], 7);
}

class CspEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CspEquivalenceTest, FourDecisionProceduresAgree) {
  // Backtracking CSP search, DPLL, the query engine on the CSP-derived
  // database, and the query engine on the SAT encoding must agree.
  Rng rng(GetParam());
  const int vars = rng.NextInt(4, 8);
  Cnf cnf = RandomKSat(vars, rng.NextInt(2, 4 * vars), 3, rng);

  const bool dpll = IsSatisfiable(cnf);
  const bool csp_search = SolveCsp(CnfCsp(cnf)).has_value();

  CspAsQuery as_query = CspToQuery(CnfCsp(cnf));
  ExecutionResult via_csp_query = ExecutePlan(
      as_query.query, BucketEliminationPlanMcs(as_query.query, &rng),
      as_query.db);
  ASSERT_TRUE(via_csp_query.status.ok());

  Database sat_db;
  AddSatRelations(3, &sat_db);
  ConjunctiveQuery sq = SatQuery(cnf);
  ExecutionResult via_sat_query =
      ExecutePlan(sq, BucketEliminationPlanMcs(sq, &rng), sat_db);
  ASSERT_TRUE(via_sat_query.status.ok());

  EXPECT_EQ(csp_search, dpll) << cnf.ToString();
  EXPECT_EQ(via_csp_query.nonempty(), dpll) << cnf.ToString();
  EXPECT_EQ(via_sat_query.nonempty(), dpll) << cnf.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CspEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace ppr
