// Verifier smoke run: compile every plan the five paper strategies
// produce on the 3-COLOR and 3-SAT generator families through
// CompileVerified, the verified compile that pprd, BatchExecutor and
// EXPLAIN use. Exits nonzero on the first verdict regression, so CI
// catches a strategy (or a compiler change) that starts emitting plans a
// verifier tier rejects, or a verifier change that starts rejecting
// known-good plans.
//
// The matrix is proved twice: first with the structural gate on
// (PPR_VERIFY_PLANS: the logical tier and the width cross-check before
// lowering, the physical tier after), then with the semantic gate on
// (PPR_VERIFY_SEMANTICS: Chandra–Merlin certification of the logical and
// the compiled plan). The structural sweep counts the plans it proved
// that carry a keyed projection, and fails at zero. A final timing pass
// gates the cost of the verified compile when every tier is *disabled*:
// the default configuration must not pay for the proof it is not
// running.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

#include "analysis/verifier.h"
#include "analysis/width_analyzer.h"
#include "benchlib/harness.h"
#include "common/rng.h"
#include "encode/kcolor.h"
#include "encode/sat.h"
#include "exec/physical_plan.h"
#include "graph/generators.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"

namespace ppr {
namespace {

struct Workload {
  std::string name;
  ConjunctiveQuery query;
};

std::vector<Workload> ColoringWorkloads() {
  Rng rng(2004);
  std::vector<Workload> workloads;
  for (int order : {4, 8, 12}) {
    workloads.push_back(
        {"3color/augmented_path_" + std::to_string(order),
         KColorQuery(AugmentedPath(order))});
    workloads.push_back({"3color/ladder_" + std::to_string(order),
                         KColorQuery(Ladder(order))});
    workloads.push_back(
        {"3color/augmented_ladder_" + std::to_string(order),
         KColorQuery(AugmentedLadder(order))});
    workloads.push_back(
        {"3color/augmented_circular_ladder_" + std::to_string(order + 2),
         KColorQuery(AugmentedCircularLadder(order + 2))});
  }
  for (int n : {10, 20}) {
    for (double density : {1.0, 2.0}) {
      workloads.push_back(
          {"3color/random_n" + std::to_string(n) + "_d" +
               std::to_string(static_cast<int>(density)),
           KColorQuery(RandomGraphWithDensity(n, density, rng))});
    }
  }
  return workloads;
}

std::vector<Workload> SatWorkloads() {
  Rng rng(1960);
  std::vector<Workload> workloads;
  for (int vars : {8, 16}) {
    for (int clauses : {vars, 2 * vars}) {
      workloads.push_back(
          {"3sat/v" + std::to_string(vars) + "_c" + std::to_string(clauses),
           SatQuery(RandomKSat(vars, clauses, 3, rng))});
    }
  }
  return workloads;
}

// Whether a compiled plan carries a keyed projection (one that keeps a
// distinct join input whole and deduplicates once per key group).
bool HasKeyedProjection(const PhysicalPlan& plan) {
  for (int32_t id = 0; id < plan.NumNodes(); ++id) {
    if (plan.node(id).keyed != KeyedSide::kNone) return true;
  }
  return false;
}

// Which verifier gate a sweep turns on.
enum class Tier { kStructural, kSemantic };

const char* TierName(Tier tier) {
  return tier == Tier::kStructural ? "structural (PPR_VERIFY_PLANS)"
                                   : "semantic (PPR_VERIFY_SEMANTICS)";
}

// Compiles every strategy's plan of one workload through CompileVerified
// with only `tier`'s gate on; returns the failure count and adds to
// `keyed` the proved plans that carry a keyed projection. A compile the
// tier did not report on counts as a failure, so a gate that stops
// switching its tier on cannot pass the sweep.
int RunWorkload(Tier tier, const Workload& workload, const Database& db,
                int* keyed) {
  int failures = 0;
  for (StrategyKind kind : AllStrategies()) {
    const Plan plan = BuildStrategyPlan(kind, workload.query, 1);
    const StaticAnalysis analysis = AnalyzePlan(workload.query, plan, db);
    VerifierReport report;
    Result<PhysicalPlan> compiled =
        CompileVerified(workload.query, plan, db, analysis, &report);
    const std::string& verdict =
        tier == Tier::kStructural ? report.structural : report.semantic;
    if (!compiled.ok() || verdict != "OK") {
      ++failures;
      std::printf("FAIL  %-42s %-10s %s\n", workload.name.c_str(),
                  StrategyName(kind),
                  compiled.ok() ? "the tier did not run"
                                : compiled.status().ToString().c_str());
      continue;
    }
    const bool has_keyed = HasKeyedProjection(*compiled);
    *keyed += has_keyed ? 1 : 0;
    std::printf("OK    %-42s %-10s width=%d rows<=%.3g", workload.name.c_str(),
                StrategyName(kind), plan.Width(),
                analysis.max_intermediate_rows_bound);
    if (tier == Tier::kSemantic) {
      std::printf(" semantics %.3gs",
                  static_cast<double>(report.semantic_ns) * 1e-9);
    }
    std::printf("%s\n", has_keyed ? " keyed" : "");
  }
  return failures;
}

struct Suite {
  std::vector<Workload> workloads;
  Database db;
};

std::vector<Suite> BuildSuites() {
  std::vector<Suite> suites(2);
  suites[0].workloads = ColoringWorkloads();
  AddColoringRelations(3, &suites[0].db);
  suites[1].workloads = SatWorkloads();
  AddSatRelations(3, &suites[1].db);
  return suites;
}

// One cell of the strategy matrix, planned and analyzed once, so the
// overhead gate times compilation alone.
struct MatrixPlan {
  const ConjunctiveQuery* query;
  const Database* db;
  Plan plan;
  StaticAnalysis analysis;
};

std::vector<MatrixPlan> BuildMatrix(const std::vector<Suite>& suites) {
  std::vector<MatrixPlan> matrix;
  for (const Suite& suite : suites) {
    for (const Workload& workload : suite.workloads) {
      for (StrategyKind kind : AllStrategies()) {
        Plan plan = BuildStrategyPlan(kind, workload.query, 1);
        StaticAnalysis analysis = AnalyzePlan(workload.query, plan, suite.db);
        matrix.push_back({&workload.query, &suite.db, std::move(plan),
                          std::move(analysis)});
      }
    }
  }
  return matrix;
}

// CPU seconds the calling thread has run: unlike wall time, it does not
// count the time the thread waits while other processes hold the CPU.
double ThreadCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

// CPU seconds to compile the whole matrix once through `compile`, or -1
// when a compilation fails.
template <typename CompileFn>
double MatrixCompileSeconds(const std::vector<MatrixPlan>& matrix,
                            CompileFn compile) {
  const double start = ThreadCpuSeconds();
  for (const MatrixPlan& cell : matrix) {
    if (!compile(cell).ok()) return -1.0;
  }
  return ThreadCpuSeconds() - start;
}

// The disabled-path gate's timing: each sample compiles the matrix
// `reps` times through each arm, alternating the arms (and which goes
// first) within every repetition so both see the same host speed, with
// `reps` chosen so that a baseline sample takes at least 25 ms of CPU
// time. Returns the median sample of each arm, or -1s when a compilation
// fails.
template <typename BaselineFn, typename VerifiedFn>
std::pair<double, double> MedianArmSeconds(
    const std::vector<MatrixPlan>& matrix, BaselineFn baseline,
    VerifiedFn verified) {
  constexpr double kMinSampleSeconds = 0.025;
  constexpr int kSamples = 7;
  // The fastest of three warm-up passes sizes the samples.
  double once = MatrixCompileSeconds(matrix, baseline);
  for (int warm = 0; warm < 2 && once >= 0; ++warm) {
    once = std::min(once, MatrixCompileSeconds(matrix, baseline));
  }
  if (once < 0) return {-1.0, -1.0};
  const int reps =
      std::max(1, static_cast<int>(std::ceil(kMinSampleSeconds / once)));
  std::vector<double> base_samples;
  std::vector<double> verified_samples;
  for (int sample = 0; sample < kSamples; ++sample) {
    double base_s = 0.0;
    double verified_s = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      const bool base_first = rep % 2 == 0;
      const double first = base_first
                               ? MatrixCompileSeconds(matrix, baseline)
                               : MatrixCompileSeconds(matrix, verified);
      const double second = base_first
                                ? MatrixCompileSeconds(matrix, verified)
                                : MatrixCompileSeconds(matrix, baseline);
      if (first < 0 || second < 0) return {-1.0, -1.0};
      base_s += base_first ? first : second;
      verified_s += base_first ? second : first;
    }
    base_samples.push_back(base_s);
    verified_samples.push_back(verified_s);
  }
  return {Median(base_samples), Median(verified_samples)};
}

int Run() {
  int failures = 0;
  std::vector<Suite> suites = BuildSuites();

  for (Tier tier : {Tier::kStructural, Tier::kSemantic}) {
    std::printf("== %s sweep ==\n", TierName(tier));
    EnablePlanVerification(tier == Tier::kStructural);
    EnableSemanticVerification(tier == Tier::kSemantic);
    int plans = 0;
    int keyed = 0;
    for (const Suite& suite : suites) {
      for (const Workload& workload : suite.workloads) {
        failures += RunWorkload(tier, workload, suite.db, &keyed);
        plans += static_cast<int>(AllStrategies().size());
      }
    }
    if (tier == Tier::kStructural) {
      // The physical tier re-derives every keyed flag from the labels, so
      // each of these plans had its keyed projections proved; none at all
      // would mean the sweep no longer reaches the keyed path.
      std::printf("\n%d of %d plans proved with a keyed projection\n",
                  keyed, plans);
      if (keyed == 0) {
        ++failures;
        std::printf("FAIL  no plan carries a keyed projection\n");
      }
    }
    std::printf("\n");
  }

  // Disabled-path overhead gate: with every tier off (the default
  // configuration), the verified compile may cost at most 10% more than
  // PhysicalPlan::Compile on the same plans, plus an allowance of 5% of
  // the baseline for noise — each tier's gate is one atomic load, and
  // this keeps it that way. The arms alternate within samples of at
  // least 25 ms of CPU time each, so neither the host's speed nor the
  // other processes sharing it (ctest -j) move the ratio.
  EnablePlanVerification(false);
  EnableSemanticVerification(false);
  const std::vector<MatrixPlan> matrix = BuildMatrix(suites);
  const auto [baseline, verified] = MedianArmSeconds(
      matrix,
      [](const MatrixPlan& cell) {
        return PhysicalPlan::Compile(*cell.query, cell.plan, *cell.db);
      },
      [](const MatrixPlan& cell) {
        return CompileVerified(*cell.query, cell.plan, *cell.db,
                               cell.analysis);
      });
  std::printf("== disabled-path overhead ==\n");
  std::printf("PhysicalPlan::Compile %.4gs, CompileVerified (all tiers off) "
              "%.4gs (median samples)\n",
              baseline, verified);
  if (baseline < 0 || verified < 0) {
    ++failures;
    std::printf("FAIL  overhead probe: compilation failed\n");
  } else if (verified > baseline * (1.10 + 0.05)) {
    ++failures;
    std::printf("FAIL  disabled verification costs more than 10%%\n");
  }

  if (failures > 0) {
    std::printf("\nverify_smoke: %d verdict regression(s)\n", failures);
    return 1;
  }
  std::printf("\nverify_smoke: all verdicts OK\n");
  return 0;
}

}  // namespace
}  // namespace ppr

int main() { return ppr::Run(); }
