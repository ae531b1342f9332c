// Tests for morsel-driven execution: the MorselDriver's results and
// merged statistics must match the serial run (one morsel per kernel
// call) and be byte-identical across worker counts and morsel sizes,
// including under budget truncation; the per-operator morsel accounting
// must verify against the static analyzer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <tuple>
#include <vector>

#include "analysis/physical_verifier.h"
#include "analysis/verifier.h"
#include "common/env.h"
#include "common/rng.h"
#include "core/strategies.h"
#include "encode/kcolor.h"
#include "exec/physical_plan.h"
#include "exec/verify_hook.h"
#include "graph/generators.h"
#include "obs/trace.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"
#include "runtime/morsel_driver.h"
#include "runtime/thread_pool.h"
#include "test_util.h"

namespace ppr {
namespace {

// Pins the env-default morsel size before anything calls ProcessEnv():
// this binary's static init runs single-threaded before main, so the
// one sanctioned getenv snapshot sees the override. Every driver without
// an explicit morsel_rows then runs 5-row morsels — which both checks
// the PPR_MORSEL_SIZE plumbing and forces multi-morsel partitions on
// small inputs throughout the binary. Serial runs must ignore it.
const int kMorselEnvPin = [] {
  setenv("PPR_MORSEL_SIZE", "5", /*overwrite=*/1);
  return 0;
}();

Database ThreeColorDb() {
  Database db;
  AddColoringRelations(3, &db);
  return db;
}

struct Compiled {
  ConjunctiveQuery query;
  Plan plan;
  PhysicalPlan physical;
};

Compiled CompilePentagon(const Database& db) {
  ConjunctiveQuery q = PentagonQuery();
  Plan plan = BucketEliminationPlanMcs(q, nullptr);
  Result<PhysicalPlan> compiled = PhysicalPlan::Compile(q, plan, db);
  PPR_CHECK(compiled.ok());
  return Compiled{std::move(q), std::move(plan), std::move(*compiled)};
}

Compiled CompileRandomColoring(const Database& db, int vertices, int edges,
                               uint64_t seed) {
  Rng rng(seed);
  ConjunctiveQuery q = KColorQuery(ConnectedRandomGraph(vertices, edges, rng));
  Plan plan = BucketEliminationPlanMcs(q, nullptr);
  Result<PhysicalPlan> compiled = PhysicalPlan::Compile(q, plan, db);
  PPR_CHECK(compiled.ok());
  return Compiled{std::move(q), std::move(plan), std::move(*compiled)};
}

auto StatsTuple(const ExecStats& s) {
  return std::tuple(s.tuples_produced, s.num_joins, s.num_projections,
                    s.num_semijoins, s.max_intermediate_arity,
                    s.max_intermediate_rows, s.peak_bytes);
}

// Exact row-order equality — the determinism contract, not set equality.
void ExpectSameRows(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.arity(), b.arity());
  ASSERT_EQ(a.size(), b.size());
  for (int64_t i = 0; i < a.size(); ++i) {
    for (int c = 0; c < a.arity(); ++c) {
      ASSERT_EQ(a.at(i, c), b.at(i, c)) << "row " << i << " col " << c;
    }
  }
}

TEST(MorselEnvTest, MorselSizeEnvOverrideIsCaptured) {
  EXPECT_EQ(ProcessEnv().morsel_rows, 5);
  MorselDriver driver({.num_threads = 1});
  EXPECT_EQ(driver.morsel_rows(), 5);
  MorselDriver sized({.num_threads = 1, .morsel_rows = 2});
  EXPECT_EQ(sized.morsel_rows(), 2);
}

// Every ExecStats field but peak_bytes, which depends on the morsel
// partition by design (shared builds + per-morsel scratch).
auto StatsTupleExceptPeak(const ExecStats& s) {
  return std::tuple(s.tuples_produced, s.num_joins, s.num_projections,
                    s.num_semijoins, s.max_intermediate_arity,
                    s.max_intermediate_rows);
}

TEST(MorselDriverTest, MatchesSerialExecutionOnPentagon) {
  Database db = ThreeColorDb();
  Compiled c = CompilePentagon(db);
  const ExecutionResult serial = c.physical.Execute();
  ASSERT_TRUE(serial.status.ok());

  for (const int threads : {1, 2, 4}) {
    MorselDriver driver({.num_threads = threads});
    const ExecutionResult got = driver.Run(c.physical);
    ASSERT_TRUE(got.status.ok()) << "threads " << threads;
    ExpectSameRows(serial.output, got.output);
    EXPECT_EQ(StatsTupleExceptPeak(serial.stats),
              StatsTupleExceptPeak(got.stats))
        << "threads " << threads;
  }
}

// The serial-partition rule: a serial run executes every kernel call as
// one morsel, whatever PPR_MORSEL_SIZE says (5 in this binary). Splitting
// serial kernel inputs at the env morsel size cost the paper sweep about
// a quarter of its throughput; this pins the rule at the entry point the
// service, BatchExecutor and the figure sweeps use.
TEST(MorselDriverTest, SerialRunIsOneMorselPerKernelCall) {
  Database db = ThreeColorDb();
  Compiled c = CompileRandomColoring(db, 8, 12, 21);

  TraceSink sink(4096);
  ExecArena arena;
  const ExecutionResult serial =
      c.physical.ExecuteShared(&arena, kCounterMax, &sink, nullptr);
  ASSERT_TRUE(serial.status.ok());
  const std::vector<TraceSpan> spans = sink.Snapshot();
  ASSERT_FALSE(spans.empty());
  int64_t widest_input = 0;
  for (const TraceSpan& s : spans) {
    EXPECT_EQ(s.morsel_id, 0) << TraceOpName(s.op) << " node " << s.node_id;
    widest_input = std::max(widest_input, s.rows_in);
  }
  // The plan's operators do see more than one 5-row morsel's worth.
  EXPECT_GT(widest_input, ProcessEnv().morsel_rows);

  MorselDriver driver({.num_threads = 1});
  ASSERT_EQ(driver.morsel_rows(), 5);
  MorselAccounting accounting;
  const ExecutionResult split = driver.Run(c.physical, kCounterMax, nullptr,
                                           nullptr, nullptr, &accounting);
  ASSERT_TRUE(split.status.ok());
  bool saw_multi_morsel = false;
  for (const MorselOpAccount& op : accounting.ops) {
    saw_multi_morsel |= op.morsel_rows.size() > 1;
  }
  EXPECT_TRUE(saw_multi_morsel);
  ExpectSameRows(serial.output, split.output);
  EXPECT_EQ(StatsTupleExceptPeak(serial.stats),
            StatsTupleExceptPeak(split.stats));
}

TEST(MorselDriverTest, ByteIdenticalAcrossWorkerCountsAndMorselSizes) {
  Database db = ThreeColorDb();
  Compiled c = CompileRandomColoring(db, 8, 12, 21);

  for (const int64_t morsel : {int64_t{1}, int64_t{3}, int64_t{64}}) {
    MorselDriver baseline({.num_threads = 1, .morsel_rows = morsel});
    const ExecutionResult want = baseline.Run(c.physical);
    ASSERT_TRUE(want.status.ok());
    for (const int threads : {2, 4, 8}) {
      MorselDriver driver({.num_threads = threads, .morsel_rows = morsel});
      const ExecutionResult got = driver.Run(c.physical);
      ASSERT_TRUE(got.status.ok())
          << "threads " << threads << " morsel " << morsel;
      ExpectSameRows(want.output, got.output);
      // For a fixed morsel size the *full* statistics — peak_bytes
      // included — must not depend on the worker count.
      EXPECT_EQ(StatsTuple(want.stats), StatsTuple(got.stats))
          << "threads " << threads << " morsel " << morsel;
    }
  }
}

TEST(MorselDriverTest, TraceMergeIsDeterministicAcrossWorkerCounts) {
  Database db = ThreeColorDb();
  Compiled c = CompilePentagon(db);

  auto spans_at = [&c](int threads) {
    MorselDriver driver({.num_threads = threads, .morsel_rows = 2});
    TraceSink sink(4096);
    const ExecutionResult r = driver.Run(c.physical, kCounterMax, &sink);
    PPR_CHECK(r.status.ok());
    // Everything but the wall-clock fields must be reproducible.
    std::vector<std::tuple<TraceOp, int32_t, int64_t, int64_t, int32_t,
                           int32_t, int64_t, int64_t, int64_t, int32_t,
                           int64_t>>
        spans;
    for (const TraceSpan& s : sink.Snapshot()) {
      spans.emplace_back(s.op, s.node_id, s.rows_in, s.rows_out, s.arity_in,
                         s.arity_out, s.bytes, s.ht_build_rows,
                         s.ht_probe_ops, s.morsel_id, s.batches);
    }
    return spans;
  };

  const auto want = spans_at(1);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(spans_at(2), want);
  EXPECT_EQ(spans_at(4), want);

  // Every kernel span carries its morsel id and batch count; the six-row
  // stored relations split into 2-row morsels, so multi-morsel fan-out
  // exists.
  int32_t max_morsel_id = -1;
  for (const auto& s : want) {
    EXPECT_GE(std::get<9>(s), 0);
    EXPECT_EQ(std::get<10>(s), 1);  // one batch per morsel
    max_morsel_id = std::max(max_morsel_id, std::get<9>(s));
  }
  EXPECT_GT(max_morsel_id, 0);
}

TEST(MorselDriverTest, BudgetTruncationMatchesSerialRun) {
  Database db = ThreeColorDb();
  Compiled c = CompilePentagon(db);
  const ExecutionResult full = c.physical.Execute();
  ASSERT_TRUE(full.status.ok());

  for (const Counter budget :
       {Counter{0}, Counter{1}, Counter{7}, Counter{23},
        full.stats.tuples_produced - 1, full.stats.tuples_produced}) {
    const ExecutionResult serial = c.physical.Execute(budget);
    for (const int threads : {1, 2, 4}) {
      MorselDriver driver({.num_threads = threads, .morsel_rows = 3});
      const ExecutionResult got = driver.Run(c.physical, budget);
      ASSERT_EQ(serial.status.code(), got.status.code())
          << "budget " << budget << " threads " << threads;
      EXPECT_EQ(serial.stats.tuples_produced, got.stats.tuples_produced)
          << "budget " << budget << " threads " << threads;
      if (serial.status.ok()) ExpectSameRows(serial.output, got.output);
    }
  }
}

TEST(MorselDriverTest, AccountingSumsToOperatorOutputs) {
  Database db = ThreeColorDb();
  Compiled c = CompilePentagon(db);
  MorselDriver driver({.num_threads = 2, .morsel_rows = 2});
  MorselAccounting accounting;
  const ExecutionResult r =
      driver.Run(c.physical, kCounterMax, nullptr, nullptr, nullptr,
                 &accounting);
  ASSERT_TRUE(r.status.ok());
  ASSERT_FALSE(accounting.ops.empty());

  bool saw_multi_morsel = false;
  for (const MorselOpAccount& op : accounting.ops) {
    int64_t sum = 0;
    for (const int64_t rows : op.morsel_rows) {
      EXPECT_GE(rows, 0);
      sum += rows;
    }
    EXPECT_EQ(sum, op.output_rows) << "node " << op.node_id;
    saw_multi_morsel |= op.morsel_rows.size() > 1;
  }
  // 2-row morsels over six-row stored relations: some operator must have
  // run a genuine multi-morsel partition.
  EXPECT_TRUE(saw_multi_morsel);

  // The analysis-layer verifier accepts the real accounting...
  ASSERT_TRUE(
      VerifyMorselAccounting(c.query, c.plan, db, accounting).ok());
  // ...and rejects tampered row counts, arities, and node ids.
  {
    MorselAccounting bad = accounting;
    bad.ops.front().output_rows += 1;
    EXPECT_FALSE(VerifyMorselAccounting(c.query, c.plan, db, bad).ok());
  }
  {
    MorselAccounting bad = accounting;
    bad.ops.front().arity += 1;
    EXPECT_FALSE(VerifyMorselAccounting(c.query, c.plan, db, bad).ok());
  }
  {
    MorselAccounting bad = accounting;
    bad.ops.front().node_id = 999;
    EXPECT_FALSE(VerifyMorselAccounting(c.query, c.plan, db, bad).ok());
  }
}

// RAII guard mirroring explain_test: installs the analysis verifier and
// always restores the disabled default.
class ScopedVerifier {
 public:
  ScopedVerifier() { InstallPlanVerifier(/*enable=*/true); }
  ~ScopedVerifier() { EnablePlanVerification(false); }
};

TEST(MorselDriverTest, VerifierHookRunsAfterVerifiedRun) {
  ScopedVerifier verifier;
  Database db = ThreeColorDb();
  Compiled c = CompilePentagon(db);
  const MorselQueryContext ctx{&c.query, &c.plan, &db};
  MorselDriver driver({.num_threads = 2, .morsel_rows = 2});
  const ExecutionResult r =
      driver.Run(c.physical, kCounterMax, nullptr, nullptr, &ctx);
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();

  // A truncated verified run still passes: the verifier is sound under
  // budget exhaustion (prefix of operators, fewer rows).
  const ExecutionResult truncated =
      driver.Run(c.physical, /*tuple_budget=*/5, nullptr, nullptr, &ctx);
  EXPECT_EQ(truncated.status.code(), StatusCode::kResourceExhausted);
}

// Acceptance gate: >= 3x single-thread throughput at 8 workers on one
// probe-heavy query. Meaningless without the cores, so hardware-gated;
// CI machines with >= 8 threads enforce it (same policy as the
// BatchExecutor scaling gate).
TEST(MorselDriverTest, ProbeScalesWithWorkersOnBigMachines) {
  const int hw = ThreadPool::HardwareThreads();
  if (hw < 8) {
    GTEST_SKIP() << "needs >= 8 hardware threads, have " << hw;
  }
  Database db = ThreeColorDb();
  Compiled c = CompileRandomColoring(db, 16, 24, 77);

  auto time_at = [&c](int threads) {
    MorselDriver driver({.num_threads = threads, .morsel_rows = 4096});
    driver.Run(c.physical);  // warm arenas
    double best = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      const ExecutionResult r = driver.Run(c.physical);
      PPR_CHECK(r.status.ok());
      best = std::min(best, r.seconds);
    }
    return best;
  };
  const double t1 = time_at(1);
  const double t8 = time_at(8);
  EXPECT_GE(t1 / t8, 3.0) << "t1=" << t1 << " t8=" << t8;
}

}  // namespace
}  // namespace ppr
