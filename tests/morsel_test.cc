// Tests for morsel-driven execution: the MorselDriver's results and
// merged statistics must match the serial run (one morsel per kernel
// call) and be byte-identical across worker counts and morsel sizes,
// including under budget truncation; the kernel spans of a run must
// verify against the static analyzer and the run's budget charges.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
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
#include "query/parser.h"
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

// The straightforward chain of joins over the Boolean augmented ladder
// of order 4 (101,883 tuples unbudgeted), run under half that budget: a
// join exhausts it by counting through the unwritten join before it.
Compiled CompileLadderChain(const Database& db) {
  ConjunctiveQuery q = KColorQuery(AugmentedLadder(4));
  Plan plan = StraightforwardPlan(q);
  Result<PhysicalPlan> compiled = PhysicalPlan::Compile(q, plan, db);
  PPR_CHECK(compiled.ok());
  return Compiled{std::move(q), std::move(plan), std::move(*compiled)};
}
constexpr Counter kLadderChainBudget = 50000;

// Reordering over the Boolean augmented ladder of order 3 (4,797 tuples
// unbudgeted): it joins each pendant edge as a cross product and projects
// the pendant away at once, a projection that keeps its join's whole
// distinct probe row and so deduplicates once per key group.
Compiled CompileLadderReordering(const Database& db) {
  ConjunctiveQuery q = KColorQuery(AugmentedLadder(3));
  Plan plan = ReorderingPlan(q, nullptr);
  Result<PhysicalPlan> compiled = PhysicalPlan::Compile(q, plan, db);
  PPR_CHECK(compiled.ok());
  return Compiled{std::move(q), std::move(plan), std::move(*compiled)};
}
constexpr Counter kLadderReorderingBudget = 2400;

// The same plan with every keyed projection cleared, which streams its
// join through the dedup instead.
PhysicalPlan Unkeyed(const Compiled& c, const Database& db) {
  Result<PhysicalPlan> compiled = PhysicalPlan::Compile(c.query, c.plan, db);
  PPR_CHECK(compiled.ok());
  std::vector<PhysicalNode*> stack = {&compiled->mutable_root()};
  while (!stack.empty()) {
    PhysicalNode* node = stack.back();
    stack.pop_back();
    node->keyed = KeyedSide::kNone;
    for (auto& child : node->children) stack.push_back(child.get());
  }
  return std::move(*compiled);
}

// Whether a run's spans show a join call that produced rows but never
// wrote them, read by the next call, an operator `reader`: writing
// probes again, so a written join's probes outnumber its probe rows.
bool UnwrittenJoinReadBy(const std::vector<TraceSpan>& spans,
                         TraceOp reader) {
  struct Call {
    TraceOp op;
    int64_t rows_in = 0;
    int64_t rows_out = 0;
    int64_t probes = 0;
  };
  std::vector<Call> calls;
  for (const TraceSpan& s : spans) {
    if (s.morsel_id <= 0) calls.push_back({s.op});
    calls.back().rows_in += s.rows_in;
    calls.back().rows_out += s.rows_out;
    calls.back().probes += s.ht_probe_ops;
  }
  for (size_t k = 0; k + 1 < calls.size(); ++k) {
    const Call& c = calls[k];
    if (c.op == TraceOp::kJoin && calls[k + 1].op == reader &&
        c.rows_out > 0 && c.probes == c.rows_in) {
      return true;
    }
  }
  return false;
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
  TraceSink split_sink(TraceSink::kUnbounded);
  const ExecutionResult split =
      driver.Run(c.physical, kCounterMax, &split_sink);
  ASSERT_TRUE(split.status.ok());
  bool saw_multi_morsel = false;
  for (const TraceSpan& s : split_sink.Snapshot()) {
    saw_multi_morsel |= s.morsel_id > 0;
  }
  EXPECT_TRUE(saw_multi_morsel);
  ExpectSameRows(serial.output, split.output);
  EXPECT_EQ(StatsTupleExceptPeak(serial.stats),
            StatsTupleExceptPeak(split.stats));
}

// Four plans: a bucket-elimination plan and the pentagon's, whose
// projecting nodes stream their last join, the ladder chain, whose
// budget a join exhausts by counting through an unwritten join, and the
// ladder reordering, whose keyed projections run to completion and to
// a truncated budget.
TEST(MorselDriverTest, ByteIdenticalAcrossWorkerCountsAndMorselSizes) {
  Database db = ThreeColorDb();
  Compiled coloring = CompileRandomColoring(db, 8, 12, 21);
  Compiled pentagon = CompilePentagon(db);
  Compiled chain = CompileLadderChain(db);
  Compiled reordering = CompileLadderReordering(db);
  struct Case {
    Compiled* c;
    Counter budget;
    StatusCode status;
  };
  for (const Case& k : {Case{&coloring, kCounterMax, StatusCode::kOk},
                        Case{&pentagon, kCounterMax, StatusCode::kOk},
                        Case{&chain, kLadderChainBudget,
                             StatusCode::kResourceExhausted},
                        Case{&reordering, kCounterMax, StatusCode::kOk},
                        Case{&reordering, kLadderReorderingBudget,
                             StatusCode::kResourceExhausted}}) {
    const ExecutionResult serial = k.c->physical.Execute(k.budget);
    ASSERT_EQ(serial.status.code(), k.status);
    for (const int64_t morsel : {int64_t{1}, int64_t{3}, int64_t{64}}) {
      MorselDriver baseline({.num_threads = 1, .morsel_rows = morsel});
      const ExecutionResult want = baseline.Run(k.c->physical, k.budget);
      ASSERT_EQ(want.status.code(), k.status);
      ExpectSameRows(serial.output, want.output);
      EXPECT_EQ(StatsTupleExceptPeak(serial.stats),
                StatsTupleExceptPeak(want.stats))
          << "morsel " << morsel;
      for (const int threads : {2, 4, 8}) {
        MorselDriver driver({.num_threads = threads, .morsel_rows = morsel});
        const ExecutionResult got = driver.Run(k.c->physical, k.budget);
        ASSERT_EQ(got.status.code(), k.status)
            << "threads " << threads << " morsel " << morsel;
        ExpectSameRows(want.output, got.output);
        // For a fixed morsel size the *full* statistics — peak_bytes
        // included — must not depend on the worker count.
        EXPECT_EQ(StatsTuple(want.stats), StatsTuple(got.stats))
            << "threads " << threads << " morsel " << morsel;
      }
    }
  }
}

// Every span field but the wall-clock ones, which must be reproducible.
auto SpanFields(const std::vector<TraceSpan>& spans) {
  std::vector<std::tuple<TraceOp, int32_t, int64_t, int64_t, int32_t,
                         int32_t, int64_t, int64_t, int64_t, int32_t>>
      fields;
  for (const TraceSpan& s : spans) {
    fields.emplace_back(s.op, s.node_id, s.rows_in, s.rows_out, s.arity_in,
                        s.arity_out, s.bytes, s.ht_build_rows, s.ht_probe_ops,
                        s.morsel_id);
  }
  return fields;
}

TEST(MorselDriverTest, TraceMergeIsDeterministicAcrossWorkerCounts) {
  Database db = ThreeColorDb();
  Compiled c = CompilePentagon(db);

  auto spans_at = [&c](int threads) {
    MorselDriver driver({.num_threads = threads, .morsel_rows = 2});
    TraceSink sink(4096);
    const ExecutionResult r = driver.Run(c.physical, kCounterMax, &sink);
    PPR_CHECK(r.status.ok());
    return SpanFields(sink.Snapshot());
  };

  const auto want = spans_at(1);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(spans_at(2), want);
  EXPECT_EQ(spans_at(4), want);

  // Every kernel span carries its morsel id; the six-row stored relations
  // split into 2-row morsels, so multi-morsel fan-out exists.
  int32_t max_morsel_id = -1;
  for (const auto& s : want) {
    EXPECT_GE(std::get<9>(s), 0);
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

// One past the last span of the kernel call whose first span is at
// `first`: the next span that starts a call (morsel_id 0 or -1).
size_t CallEnd(const std::vector<TraceSpan>& spans, size_t first) {
  size_t end = first + 1;
  while (end < spans.size() && spans[end].morsel_id > 0) ++end;
  return end;
}

// The verifier reads a run's kernel spans: it accepts a real run's and
// rejects each kind of damage a kernel could do to them.
TEST(MorselDriverTest, SpanVerifierRejectsTamperedSpans) {
  Database db = ThreeColorDb();
  Compiled c = CompilePentagon(db);
  MorselDriver driver({.num_threads = 2, .morsel_rows = 2});
  TraceSink sink(TraceSink::kUnbounded);
  const ExecutionResult r = driver.Run(c.physical, kCounterMax, &sink);
  ASSERT_TRUE(r.status.ok());
  const std::vector<TraceSpan> spans = sink.Snapshot();
  auto verify = [&](const std::vector<TraceSpan>& tampered) {
    return VerifyMorselSpans(c.query, c.plan, db, tampered, r.stats,
                             kCounterMax);
  };
  ASSERT_TRUE(verify(spans).ok()) << verify(spans).ToString();

  // A call of three or more morsels, to drop, duplicate and swap within.
  size_t middle = 0;
  for (size_t i = 1; i + 1 < spans.size() && middle == 0; ++i) {
    if (spans[i].morsel_id > 0 && spans[i + 1].morsel_id > 0) middle = i;
  }
  ASSERT_GT(middle, 0u) << "no call of three or more morsels";
  // The first scan, join and projection calls (a call's first span is
  // the first one of its operator), and a node that does not project.
  const auto first_call = [&spans](TraceOp op) {
    size_t i = 0;
    while (i < spans.size() && spans[i].op != op) ++i;
    return i;
  };
  const size_t scan = first_call(TraceOp::kScan);
  const size_t join = first_call(TraceOp::kJoin);
  const size_t project = first_call(TraceOp::kProject);
  ASSERT_LT(scan, spans.size());
  ASSERT_LT(join, spans.size());
  ASSERT_LT(project, spans.size());
  ASSERT_FALSE(c.plan.root()->IsLeaf());
  const std::vector<const PlanNode*> nodes = PreOrderNodes(c.plan);
  const auto plain = std::find_if(nodes.begin(), nodes.end(),
                                  [](const PlanNode* n) {
                                    return !n->Projects();
                                  });
  ASSERT_NE(plain, nodes.end());
  const auto plain_id = static_cast<int32_t>(plain - nodes.begin());

  // An edit to a call's node or arity applies to all of its spans, so the
  // check under test rejects it, not the per-call consistency check.
  auto tamper = [&](const auto& edit) {
    std::vector<TraceSpan> bad = spans;
    edit(bad);
    return verify(bad);
  };
  auto every_span_of_call = [](std::vector<TraceSpan>& bad, size_t first,
                               const auto& edit) {
    for (size_t i = first; i < CallEnd(bad, first); ++i) edit(bad[i]);
  };
  auto expect_rejected = [](const Status& status, const std::string& what,
                            const std::string& fragment) {
    EXPECT_FALSE(status.ok()) << what;
    EXPECT_NE(status.message().find(fragment), std::string::npos)
        << what << ": " << status.ToString();
  };

  expect_rejected(tamper([](std::vector<TraceSpan>& bad) {
                    bad.front().rows_out += 1;
                  }),
                  "rows_out + 1", "rows");
  expect_rejected(tamper([&](std::vector<TraceSpan>& bad) {
                    every_span_of_call(bad, 0, [](TraceSpan& s) {
                      s.arity_out += 1;
                    });
                  }),
                  "arity_out + 1", "arity");
  expect_rejected(tamper([&](std::vector<TraceSpan>& bad) {
                    every_span_of_call(bad, 0, [](TraceSpan& s) {
                      s.node_id = 999;
                    });
                  }),
                  "node id 999", "node id out of range");
  expect_rejected(tamper([&](std::vector<TraceSpan>& bad) {
                    bad.erase(bad.begin() + static_cast<ptrdiff_t>(middle));
                  }),
                  "dropped morsel", "was due");
  expect_rejected(tamper([&](std::vector<TraceSpan>& bad) {
                    bad.insert(bad.begin() + static_cast<ptrdiff_t>(middle),
                               bad[middle]);
                  }),
                  "duplicated morsel", "was due");
  expect_rejected(tamper([&](std::vector<TraceSpan>& bad) {
                    std::swap(bad[middle], bad[middle + 1]);
                  }),
                  "swapped morsels", "was due");
  expect_rejected(tamper([&](std::vector<TraceSpan>& bad) {
                    every_span_of_call(bad, scan, [](TraceSpan& s) {
                      s.node_id = 0;
                    });
                  }),
                  "scan on an internal node", "scan on a join node");
  expect_rejected(tamper([&](std::vector<TraceSpan>& bad) {
                    every_span_of_call(bad, join, [](TraceSpan& s) {
                      s.arity_out = 99;
                    });
                  }),
                  "join wider than the query", "matches no fold step");
  expect_rejected(tamper([&](std::vector<TraceSpan>& bad) {
                    every_span_of_call(bad, project, [](TraceSpan& s) {
                      s.arity_out += 1;
                    });
                  }),
                  "projection arity + 1", "projected-label arity");
  expect_rejected(tamper([&](std::vector<TraceSpan>& bad) {
                    every_span_of_call(bad, join, [&](TraceSpan& s) {
                      s.node_id = spans[scan].node_id;
                    });
                  }),
                  "join on a leaf", "join on a leaf node");
  expect_rejected(tamper([&](std::vector<TraceSpan>& bad) {
                    every_span_of_call(bad, project, [&](TraceSpan& s) {
                      s.node_id = plain_id;
                    });
                  }),
                  "projection on a non-projecting node",
                  "projection on a non-projecting node");
  expect_rejected(tamper([](std::vector<TraceSpan>& bad) {
                    TraceSpan semijoin;
                    semijoin.op = TraceOp::kSemiJoin;
                    semijoin.node_id = 0;
                    semijoin.morsel_id = 0;
                    bad.push_back(semijoin);
                  }),
                  "semijoin span", "semijoin");

  // The span rows must add up to the run's charges: exactly on a
  // completed run, at most on a budget-exhausted one.
  ExecStats fewer = r.stats;
  fewer.tuples_produced -= 1;
  EXPECT_FALSE(
      VerifyMorselSpans(c.query, c.plan, db, spans, fewer, kCounterMax).ok());
  EXPECT_FALSE(VerifyMorselSpans(c.query, c.plan, db, spans, fewer,
                                 fewer.tuples_produced - 1)
                   .ok());
  ExecStats more = r.stats;
  more.tuples_produced += 1;
  EXPECT_FALSE(
      VerifyMorselSpans(c.query, c.plan, db, spans, more, kCounterMax).ok());
  EXPECT_TRUE(VerifyMorselSpans(c.query, c.plan, db, spans, more,
                                more.tuples_produced - 1)
                  .ok());
}

// RAII guard mirroring explain_test: installs the analysis verifier and
// always restores the disabled default.
class ScopedVerifier {
 public:
  ScopedVerifier() { InstallPlanVerifier(/*enable=*/true); }
  ~ScopedVerifier() { EnablePlanVerification(false); }
};

// Verified runs pass the span verifier at every partition and worker
// count, completed and budget-truncated alike; a failed verdict would
// replace the status. The same holds for both consumers of a counted
// join: the pentagon's projecting nodes stream their last join, and the
// ladder chain's budget is exhausted by a join counting through an
// unwritten one. Their rows and every stat but peak_bytes equal the
// serial run's.
TEST(MorselDriverTest, VerifiedRunsPassTheSpanVerifier) {
  ScopedVerifier verifier;
  Database db = ThreeColorDb();
  Compiled c = CompileRandomColoring(db, 8, 12, 21);
  const MorselQueryContext ctx{&c.query, &c.plan, &db};
  const ExecutionResult full = c.physical.Execute();
  ASSERT_TRUE(full.status.ok());
  const Counter truncated_budget = full.stats.tuples_produced / 2;

  for (const int64_t morsel :
       {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{64}}) {
    for (const int threads : {1, 2, 8}) {
      MorselDriver driver({.num_threads = threads, .morsel_rows = morsel});
      const ExecutionResult r =
          driver.Run(c.physical, kCounterMax, nullptr, nullptr, &ctx);
      EXPECT_TRUE(r.status.ok())
          << "morsel " << morsel << " threads " << threads << ": "
          << r.status.ToString();
      const ExecutionResult truncated =
          driver.Run(c.physical, truncated_budget, nullptr, nullptr, &ctx);
      EXPECT_EQ(truncated.status.code(), StatusCode::kResourceExhausted)
          << "morsel " << morsel << " threads " << threads << ": "
          << truncated.status.ToString();
    }
  }

  Compiled pentagon = CompilePentagon(db);
  Compiled chain = CompileLadderChain(db);
  Compiled reordering = CompileLadderReordering(db);
  struct Case {
    Compiled* c;
    Counter budget;
    TraceOp reader;
  };
  for (const Case& k :
       {Case{&pentagon, kCounterMax, TraceOp::kProject},
        Case{&chain, kLadderChainBudget, TraceOp::kJoin},
        Case{&reordering, kCounterMax, TraceOp::kProject},
        Case{&reordering, kLadderReorderingBudget, TraceOp::kProject}}) {
    const MorselQueryContext kctx{&k.c->query, &k.c->plan, &db};
    TraceSink serial_sink(TraceSink::kUnbounded);
    const ExecutionResult serial =
        k.c->physical.Execute(k.budget, &serial_sink);
    EXPECT_TRUE(UnwrittenJoinReadBy(serial_sink.Snapshot(), k.reader));
    if (k.c == &reordering) {
      // The keyed projections ran: with them cleared, the plan returns
      // the same rows and stats through spans of its own.
      PhysicalPlan unkeyed = Unkeyed(*k.c, db);
      TraceSink unkeyed_sink(TraceSink::kUnbounded);
      const ExecutionResult streamed = unkeyed.Execute(k.budget, &unkeyed_sink);
      EXPECT_EQ(streamed.status.code(), serial.status.code());
      ExpectSameRows(serial.output, streamed.output);
      EXPECT_EQ(StatsTupleExceptPeak(serial.stats),
                StatsTupleExceptPeak(streamed.stats));
      EXPECT_NE(SpanFields(serial_sink.Snapshot()),
                SpanFields(unkeyed_sink.Snapshot()));
    }
    for (const int64_t morsel : {int64_t{1}, int64_t{3}, int64_t{64}}) {
      for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE(::testing::Message()
                     << "morsel " << morsel << " threads " << threads);
        MorselDriver driver({.num_threads = threads, .morsel_rows = morsel});
        TraceSink sink(TraceSink::kUnbounded);
        const ExecutionResult r =
            driver.Run(k.c->physical, k.budget, &sink, nullptr, &kctx);
        EXPECT_EQ(r.status.code(), serial.status.code())
            << r.status.ToString();
        ExpectSameRows(serial.output, r.output);
        EXPECT_EQ(StatsTupleExceptPeak(serial.stats),
                  StatsTupleExceptPeak(r.stats));
        EXPECT_TRUE(UnwrittenJoinReadBy(sink.Snapshot(), k.reader));
      }
    }
  }
}

// The hook receives every span of the run, however small the caller's
// sink, and a rejecting verdict replaces the run's status.
TEST(MorselDriverTest, VerifierHookSeesEverySpanAndCanFailTheRun) {
  Database db = ThreeColorDb();
  Compiled c = CompileRandomColoring(db, 8, 12, 21);
  const MorselQueryContext ctx{&c.query, &c.plan, &db};
  size_t hook_spans = 0;
  PlanVerifierHooks hooks;
  hooks.morsel_accounting =
      [&hook_spans](const ConjunctiveQuery&, const Plan&, const Database&,
                    const std::vector<TraceSpan>& spans, const ExecStats&,
                    Counter) {
        hook_spans = spans.size();
        return Status::Internal("rejected by the test hook");
      };
  SetPlanVerifierHooks(std::move(hooks));
  EnablePlanVerification(true);
  MorselDriver driver({.num_threads = 2, .morsel_rows = 1});
  TraceSink small(16);
  const ExecutionResult r =
      driver.Run(c.physical, kCounterMax, &small, nullptr, &ctx);
  EnablePlanVerification(false);
  ClearPlanVerifierHooks();  // the hook captures a local

  EXPECT_EQ(r.status.code(), StatusCode::kInternal) << r.status.ToString();
  EXPECT_EQ(hook_spans, small.total_recorded());
  EXPECT_GT(hook_spans, small.capacity());
}

// Verification records into a private sink and hands the caller the
// same spans an unverified run would have recorded.
TEST(MorselDriverTest, VerifiedRunHandsTheCallerItsSpans) {
  Database db = ThreeColorDb();
  Compiled c = CompilePentagon(db);
  const MorselQueryContext ctx{&c.query, &c.plan, &db};
  MorselDriver driver({.num_threads = 2, .morsel_rows = 2});

  TraceSink plain(4096);
  ASSERT_TRUE(driver.Run(c.physical, kCounterMax, &plain).status.ok());
  ScopedVerifier verifier;
  TraceSink verified(4096);
  const ExecutionResult r =
      driver.Run(c.physical, kCounterMax, &verified, nullptr, &ctx);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  ASSERT_FALSE(plain.Snapshot().empty());
  EXPECT_EQ(SpanFields(verified.Snapshot()), SpanFields(plain.Snapshot()));
}

// The sort-merge join has no morsel partition: one span with morsel_id
// -1 per call, including a call whose input is empty.
TEST(MorselDriverTest, VerifiedSortMergeRunWithAnEmptyIntermediate) {
  ScopedVerifier verifier;
  Database db;
  AddColoringRelations(2, &db);
  // A triangle is not 2-colorable, so the third atom's join leaves an
  // empty intermediate that the fourth atom's join then takes as input.
  Result<ParsedQuery> parsed = ParseQuery(
      "pi{} edge(X, Y) & edge(Y, Z) & edge(Z, X) & edge(X, W)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ConjunctiveQuery& q = parsed->query;
  const Plan plan = StraightforwardPlan(q);
  Result<PhysicalPlan> physical =
      PhysicalPlan::Compile(q, plan, db, JoinAlgorithm::kSortMerge);
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  const MorselQueryContext ctx{&q, &plan, &db};

  for (const int threads : {1, 2}) {
    MorselDriver driver({.num_threads = threads, .morsel_rows = 1});
    TraceSink sink(4096);
    const ExecutionResult r =
        driver.Run(*physical, kCounterMax, &sink, nullptr, &ctx);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.output.empty());
    // The empty-input join span still reports its arity.
    bool saw_empty_input_join = false;
    for (const TraceSpan& s : sink.Snapshot()) {
      if (s.op != TraceOp::kJoin) continue;
      EXPECT_EQ(s.morsel_id, -1);
      saw_empty_input_join |= s.rows_out == 0 && s.bytes == 0;
      EXPECT_GT(s.arity_out, 0);
    }
    EXPECT_TRUE(saw_empty_input_join);
  }
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
