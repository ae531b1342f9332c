// Property tests for the flat-hash operator kernels: on randomized
// relations (including empty, nullary, and repeated-attribute inputs) the
// hash-based operators, naive row-at-a-time references, and the
// sort-merge join must all agree up to set equality; budgeted calls stop
// where a tuple-at-a-time loop would; and a counted join read unwritten
// gives what reading it written gives.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "obs/trace.h"
#include "relational/batch_ops.h"
#include "relational/exec_context.h"
#include "relational/ops.h"
#include "relational/sort_merge.h"

namespace ppr {
namespace {

// Random schema over a small attribute pool; arity 0 (nullary) included.
Schema RandomSchema(Rng& rng, int max_arity) {
  std::vector<AttrId> pool = {0, 1, 2, 3, 4, 5};
  const int arity = static_cast<int>(rng.NextBounded(
      static_cast<uint64_t>(max_arity + 1)));
  std::vector<AttrId> attrs;
  for (int i = 0; i < arity; ++i) {
    const size_t pick = static_cast<size_t>(rng.NextBounded(pool.size()));
    attrs.push_back(pool[pick]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return Schema(std::move(attrs));
}

// Random relation; empty and single-row cases are common by construction.
// Nullary relations are nonempty with probability 1/2.
Relation RandomRelation(const Schema& schema, Rng& rng) {
  Relation rel{schema};
  if (schema.arity() == 0) {
    if (rng.NextBounded(2) == 0) rel.AddTuple(std::span<const Value>{});
    return rel;
  }
  const int64_t rows = static_cast<int64_t>(rng.NextBounded(26));
  std::vector<Value> tuple(static_cast<size_t>(schema.arity()));
  for (int64_t i = 0; i < rows; ++i) {
    for (auto& v : tuple) v = static_cast<Value>(1 + rng.NextBounded(4));
    rel.AddTuple(tuple);
  }
  return rel;
}

// Naive nested-loop natural join, mirroring the documented contract:
// left's attributes then right-only attributes.
Relation RefJoin(const Relation& left, const Relation& right) {
  SpecPool pool;
  const JoinSpec spec =
      PlanJoin(left.schema().attrs(), right.schema().attrs(), pool);
  Relation out{Schema(spec.out_attrs)};
  for (int64_t i = 0; i < left.size(); ++i) {
    for (int64_t j = 0; j < right.size(); ++j) {
      bool match = true;
      for (size_t k = 0; k < spec.left_key_cols.size(); ++k) {
        if (left.at(i, spec.left_key_cols[k]) !=
            right.at(j, spec.right_key_cols[k])) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      std::vector<Value> tuple;
      for (int c = 0; c < left.arity(); ++c) tuple.push_back(left.at(i, c));
      for (int c : spec.right_carry_cols) tuple.push_back(right.at(j, c));
      out.AddTuple(tuple);
    }
  }
  return out;
}

// Naive distinct projection via an ordered set.
Relation RefProject(const Relation& input, const std::vector<AttrId>& attrs) {
  SpecPool pool;
  const ProjectSpec spec = PlanProject(input.schema().attrs(), attrs, pool);
  std::set<std::vector<Value>> rows;
  for (int64_t i = 0; i < input.size(); ++i) {
    std::vector<Value> tuple;
    for (int c : spec.cols) tuple.push_back(input.at(i, c));
    rows.insert(std::move(tuple));
  }
  Relation out{Schema(spec.out_attrs)};
  for (const auto& row : rows) out.AddTuple(row);
  return out;
}

// Naive distinct projection in first-occurrence order: the emit order the
// projection kernel promises, and so the prefix a budget-truncated
// projection keeps.
Relation RefProjectInOrder(const Relation& input,
                           const std::vector<AttrId>& attrs) {
  SpecPool pool;
  const ProjectSpec spec = PlanProject(input.schema().attrs(), attrs, pool);
  std::set<std::vector<Value>> seen;
  Relation out{Schema(spec.out_attrs)};
  for (int64_t i = 0; i < input.size(); ++i) {
    std::vector<Value> tuple;
    for (int c : spec.cols) tuple.push_back(input.at(i, c));
    if (seen.insert(tuple).second) out.AddTuple(tuple);
  }
  return out;
}

// Naive semijoin: keep left rows with at least one matching right row on
// the shared attributes (all right rows match when nothing is shared).
Relation RefSemiJoin(const Relation& left, const Relation& right) {
  const SemiJoinSpec spec = PlanSemiJoin(left.schema(), right.schema());
  Relation out{left.schema()};
  for (int64_t i = 0; i < left.size(); ++i) {
    bool any = false;
    for (int64_t j = 0; j < right.size() && !any; ++j) {
      bool match = true;
      for (size_t k = 0; k < spec.left_key_cols.size(); ++k) {
        if (left.at(i, spec.left_key_cols[k]) !=
            right.at(j, spec.right_key_cols[k])) {
          match = false;
          break;
        }
      }
      any = match;
    }
    if (any) out.AddTuple(left.row(i));
  }
  return out;
}

// Naive atom binding: positional attributes with repeated-attribute
// equality, projecting to first-occurrence order.
Relation RefBindAtom(const Relation& stored, const std::vector<AttrId>& args) {
  std::vector<AttrId> distinct;
  std::vector<int> first_col;
  for (size_t c = 0; c < args.size(); ++c) {
    if (std::find(distinct.begin(), distinct.end(), args[c]) ==
        distinct.end()) {
      distinct.push_back(args[c]);
      first_col.push_back(static_cast<int>(c));
    }
  }
  Relation out{Schema(distinct)};
  for (int64_t i = 0; i < stored.size(); ++i) {
    std::map<AttrId, Value> binding;
    bool consistent = true;
    for (size_t c = 0; c < args.size(); ++c) {
      const Value v = stored.at(i, static_cast<int>(c));
      auto [it, inserted] = binding.emplace(args[c], v);
      if (!inserted && it->second != v) {
        consistent = false;
        break;
      }
    }
    if (!consistent) continue;
    std::vector<Value> tuple;
    for (int c : first_col) tuple.push_back(stored.at(i, c));
    out.AddTuple(tuple);
  }
  return out;
}

TEST(FlatOpsPropertyTest, JoinAgreesWithReferenceAndSortMerge) {
  Rng rng(101);
  for (int trial = 0; trial < 300; ++trial) {
    const Relation left = RandomRelation(RandomSchema(rng, 3), rng);
    const Relation right = RandomRelation(RandomSchema(rng, 3), rng);
    const Relation expected = RefJoin(left, right);
    ExecContext hash_ctx;
    const Relation hash_out = NaturalJoin(left, right, hash_ctx);
    ExecContext sm_ctx;
    const Relation sm_out = SortMergeJoin(left, right, sm_ctx);
    ASSERT_TRUE(hash_out.SetEquals(expected))
        << "trial " << trial << "\nleft: " << left.ToString()
        << "right: " << right.ToString();
    ASSERT_TRUE(sm_out.SetEquals(expected)) << "trial " << trial;
    ASSERT_EQ(hash_out.size(), sm_out.size()) << "trial " << trial;
  }
}

TEST(FlatOpsPropertyTest, ProjectAgreesWithReference) {
  Rng rng(202);
  for (int trial = 0; trial < 300; ++trial) {
    const Relation input = RandomRelation(RandomSchema(rng, 4), rng);
    // Random subset of the schema, possibly empty (Boolean projection).
    std::vector<AttrId> keep;
    for (AttrId a : input.schema().attrs()) {
      if (rng.NextBounded(2) == 0) keep.push_back(a);
    }
    const Relation expected = RefProject(input, keep);
    ExecContext ctx;
    const Relation out = Project(input, keep, ctx);
    ASSERT_TRUE(out.SetEquals(expected))
        << "trial " << trial << "\ninput: " << input.ToString();
  }
}

TEST(FlatOpsPropertyTest, SemiJoinAgreesWithReference) {
  Rng rng(303);
  for (int trial = 0; trial < 300; ++trial) {
    const Relation left = RandomRelation(RandomSchema(rng, 3), rng);
    const Relation right = RandomRelation(RandomSchema(rng, 3), rng);
    const Relation expected = RefSemiJoin(left, right);
    ExecContext ctx;
    const Relation out = SemiJoin(left, right, ctx);
    ASSERT_TRUE(out.SetEquals(expected))
        << "trial " << trial << "\nleft: " << left.ToString()
        << "right: " << right.ToString();
  }
}

TEST(FlatOpsPropertyTest, BindAtomAgreesWithReference) {
  Rng rng(404);
  for (int trial = 0; trial < 300; ++trial) {
    const Schema stored_schema = RandomSchema(rng, 3);
    const Relation stored = RandomRelation(stored_schema, rng);
    // Random args with repeats (attribute ids disjoint from the pool so
    // renames are exercised too).
    std::vector<AttrId> args;
    for (int c = 0; c < stored.arity(); ++c) {
      args.push_back(static_cast<AttrId>(20 + rng.NextBounded(3)));
    }
    const Relation expected = RefBindAtom(stored, args);
    ExecContext ctx;
    const Relation out = BindAtom(stored, args, ctx);
    ASSERT_TRUE(out.SetEquals(expected))
        << "trial " << trial << "\nstored: " << stored.ToString();
  }
}

// Exact (row-order, not just set) equality.
void ExpectSameRows(const Relation& want, const Relation& got, int trial) {
  ASSERT_EQ(want.arity(), got.arity()) << "trial " << trial;
  ASSERT_EQ(want.size(), got.size()) << "trial " << trial;
  for (int64_t i = 0; i < want.size(); ++i) {
    for (int c = 0; c < want.arity(); ++c) {
      ASSERT_EQ(want.at(i, c), got.at(i, c))
          << "trial " << trial << " row " << i << " col " << c;
    }
  }
}

// Every ExecStats field except peak_bytes, whose scratch accounting
// depends on whether a join was read written or unwritten.
void ExpectSameStatsExceptPeak(const ExecStats& want, const ExecStats& got,
                               int trial) {
  EXPECT_EQ(want.tuples_produced, got.tuples_produced) << "trial " << trial;
  EXPECT_EQ(want.num_joins, got.num_joins) << "trial " << trial;
  EXPECT_EQ(want.num_projections, got.num_projections) << "trial " << trial;
  EXPECT_EQ(want.num_semijoins, got.num_semijoins) << "trial " << trial;
  EXPECT_EQ(want.max_intermediate_arity, got.max_intermediate_arity)
      << "trial " << trial;
  EXPECT_EQ(want.max_intermediate_rows, got.max_intermediate_rows)
      << "trial " << trial;
}

TEST(FlatOpsPropertyTest, EmptyAndSingleRowEdges) {
  const Schema ab{std::vector<AttrId>{0, 1}};
  const Schema bc{std::vector<AttrId>{1, 2}};
  Relation empty_ab{ab};
  Relation empty_bc{bc};
  Relation one_ab{ab};
  one_ab.AddTuple({1, 2});
  Relation one_bc{bc};
  one_bc.AddTuple({2, 3});

  ExecContext ctx;
  EXPECT_TRUE(SemiJoin(empty_ab, one_bc, ctx).empty());
  EXPECT_TRUE(SemiJoin(one_ab, empty_bc, ctx).empty());
  EXPECT_EQ(SemiJoin(one_ab, one_bc, ctx).size(), 1);

  EXPECT_TRUE(NaturalJoin(empty_ab, empty_bc, ctx).empty());
  EXPECT_TRUE(NaturalJoin(one_ab, empty_bc, ctx).empty());
  EXPECT_TRUE(NaturalJoin(empty_ab, one_bc, ctx).empty());
  const Relation joined = NaturalJoin(one_ab, one_bc, ctx);
  ASSERT_EQ(joined.size(), 1);
  EXPECT_EQ(joined.at(0, 0), 1);
  EXPECT_EQ(joined.at(0, 1), 2);
  EXPECT_EQ(joined.at(0, 2), 3);

  EXPECT_TRUE(Project(empty_ab, {0}, ctx).empty());
  const Relation projected = Project(one_ab, {1}, ctx);
  ASSERT_EQ(projected.size(), 1);
  EXPECT_EQ(projected.at(0, 0), 2);

  EXPECT_TRUE(BindAtom(empty_ab, {7, 7}, ctx).empty());
  // Repeated attribute on a single row: 1 != 2, so the binding fails.
  EXPECT_TRUE(BindAtom(one_ab, {7, 7}, ctx).empty());
  const Relation bound = BindAtom(one_ab, {7, 8}, ctx);
  ASSERT_EQ(bound.size(), 1);
}

// One kernel call on a fresh, traced context whose budget leaves
// `headroom` rows: its output, its stats, and the rows its spans say it
// emitted.
struct BudgetedCall {
  Relation out;
  ExecStats stats;
  int64_t span_rows = 0;
};

template <typename Kernel>
BudgetedCall CallWithHeadroom(Counter headroom, const Kernel& kernel) {
  TraceSink sink(/*capacity=*/64);
  ExecContext ctx(/*tuple_budget=*/headroom - 1);
  EXPECT_EQ(ctx.budget_headroom(), headroom);
  ctx.set_tracer(&sink);
  BudgetedCall call;
  call.out = kernel(ctx);
  call.stats = ctx.stats();
  for (const TraceSpan& span : sink.Snapshot()) call.span_rows += span.rows_out;
  return call;
}

// The exhausting-call contract of scan, join and semijoin, whose exact
// output is `expected` (the unbudgeted run, itself checked against
// `oracle`). For every headroom from 1 to one past the output size: a
// call whose output reaches the headroom returns nothing, yet charges
// and notes min(total, headroom) rows, as a tuple-at-a-time loop that
// stopped there would; any other call returns `expected` exactly. The
// spans add up to what was returned.
template <typename Kernel>
void ExpectExhaustingCallContract(const Relation& expected,
                                  const Relation& oracle, const Kernel& kernel,
                                  int trial) {
  ASSERT_TRUE(expected.SetEquals(oracle)) << "trial " << trial;
  const Counter total = oracle.size();
  ASSERT_EQ(expected.size(), total) << "trial " << trial;
  for (Counter headroom = 1; headroom <= total + 1; ++headroom) {
    const BudgetedCall call = CallWithHeadroom(headroom, kernel);
    const bool exhausts = total >= headroom;
    const Counter charged = std::min(total, headroom);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " headroom "
                                      << headroom << " total " << total);
    EXPECT_EQ(call.out.size(), exhausts ? 0 : total);
    EXPECT_EQ(call.stats.tuples_produced, charged);
    EXPECT_EQ(call.stats.max_intermediate_rows, charged);
    EXPECT_EQ(call.span_rows, call.out.size());
    if (!exhausts) ExpectSameRows(expected, call.out, trial);
  }
}

TEST(FlatOpsPropertyTest, ExhaustingScanReturnsNothing) {
  Rng rng(1001);
  for (int trial = 0; trial < 60; ++trial) {
    const Relation stored = RandomRelation(RandomSchema(rng, 3), rng);
    // Odd trials repeat attributes (the selection path), even ones bind
    // distinct attributes (the pure column gather).
    std::vector<AttrId> args;
    for (int c = 0; c < stored.arity(); ++c) {
      args.push_back(static_cast<AttrId>(
          trial % 2 == 1 ? 20 + rng.NextBounded(2) : 20 + c));
    }
    ExecContext plain;
    ExpectExhaustingCallContract(
        BindAtom(stored, args, plain), RefBindAtom(stored, args),
        [&](ExecContext& ctx) {
          SpecPool pool;
          return ScanAtom(stored, PlanScan(stored.arity(), args, pool), ctx);
        },
        trial);
  }
}

TEST(FlatOpsPropertyTest, ExhaustingJoinReturnsNothing) {
  Rng rng(1002);
  for (int trial = 0; trial < 60; ++trial) {
    const Relation left = RandomRelation(RandomSchema(rng, 3), rng);
    const Relation right = RandomRelation(RandomSchema(rng, 3), rng);
    SpecPool pool;
    const JoinSpec spec =
        PlanJoin(left.schema().attrs(), right.schema().attrs(), pool);
    ExecContext plain;
    ExpectExhaustingCallContract(
        NaturalJoin(left, right, plain), RefJoin(left, right),
        [&](ExecContext& ctx) { return HashJoin(left, right, spec, ctx); },
        trial);
  }
}

TEST(FlatOpsPropertyTest, ExhaustingSemiJoinReturnsNothing) {
  Rng rng(1003);
  for (int trial = 0; trial < 60; ++trial) {
    const Relation left = RandomRelation(RandomSchema(rng, 3), rng);
    const Relation right = RandomRelation(RandomSchema(rng, 3), rng);
    const SemiJoinSpec spec = PlanSemiJoin(left.schema(), right.schema());
    ExecContext plain;
    ExpectExhaustingCallContract(
        SemiJoin(left, right, plain), RefSemiJoin(left, right),
        [&](ExecContext& ctx) {
          return SemiJoinFiltered(left, right, spec, ctx);
        },
        trial);
  }
}

// Projection cannot know its output size before it deduplicates: a
// budget-truncated projection keeps the first-occurrence prefix of its
// distinct keys, min(distinct, headroom) rows.
TEST(FlatOpsPropertyTest, TruncatedProjectionKeepsFirstOccurrencePrefix) {
  Rng rng(1004);
  for (int trial = 0; trial < 100; ++trial) {
    const Relation input = RandomRelation(RandomSchema(rng, 4), rng);
    std::vector<AttrId> keep;
    for (AttrId a : input.schema().attrs()) {
      if (rng.NextBounded(2) == 0) keep.push_back(a);
    }
    SpecPool pool;
    const ProjectSpec spec = PlanProject(input.schema().attrs(), keep, pool);
    const Relation oracle = RefProjectInOrder(input, keep);
    const Counter distinct = oracle.size();
    for (Counter headroom = 1; headroom <= distinct + 1; ++headroom) {
      const BudgetedCall call =
          CallWithHeadroom(headroom, [&](ExecContext& ctx) {
            return ProjectColumns(input, spec, ctx);
          });
      const Counter kept = std::min(distinct, headroom);
      SCOPED_TRACE(::testing::Message() << "trial " << trial << " headroom "
                                        << headroom << " distinct "
                                        << distinct);
      ASSERT_EQ(call.out.size(), kept);
      for (int64_t i = 0; i < kept; ++i) {
        for (int c = 0; c < oracle.arity(); ++c) {
          ASSERT_EQ(call.out.at(i, c), oracle.at(i, c)) << "row " << i;
        }
      }
      EXPECT_EQ(call.stats.tuples_produced, kept);
      EXPECT_EQ(call.stats.max_intermediate_rows, kept);
      EXPECT_EQ(call.span_rows, call.out.size());
    }
  }
}

// Nullary schemas hold at most the empty tuple.
TEST(FlatOpsPropertyTest, NullarySchemasHoldAtMostTheEmptyTuple) {
  const Schema nullary{std::vector<AttrId>{}};
  Relation empty_n{nullary};
  Relation full_n{nullary};
  full_n.AddTuple(std::span<const Value>{});
  Relation unary{Schema({3})};
  unary.AddTuple({7});
  unary.AddTuple({9});

  ExecContext ctx;
  EXPECT_TRUE(NaturalJoin(full_n, full_n, ctx).SetEquals(full_n));
  EXPECT_TRUE(NaturalJoin(full_n, empty_n, ctx).SetEquals(empty_n));
  EXPECT_TRUE(NaturalJoin(unary, full_n, ctx).SetEquals(unary));
  EXPECT_TRUE(NaturalJoin(full_n, unary, ctx).SetEquals(unary));
  EXPECT_TRUE(NaturalJoin(unary, empty_n, ctx).empty());
  // Boolean projection: nonempty input yields the single empty tuple.
  const Relation truth = Project(unary, {}, ctx);
  EXPECT_TRUE(truth.SetEquals(full_n));
  EXPECT_TRUE(Project(Relation{Schema({3})}, {}, ctx).empty());
  EXPECT_TRUE(SemiJoin(unary, full_n, ctx).SetEquals(unary));
  EXPECT_TRUE(SemiJoin(unary, empty_n, ctx).empty());
  EXPECT_TRUE(SemiJoin(full_n, unary, ctx).SetEquals(full_n));
  EXPECT_TRUE(SemiJoin(full_n, empty_n, ctx).empty());
  EXPECT_TRUE(BindAtom(full_n, {}, ctx).SetEquals(full_n));
  EXPECT_TRUE(BindAtom(empty_n, {}, ctx).empty());

  // The one-tuple outputs still respect the budget: an exhausted
  // context emits nothing more.
  ExecContext spent(/*tuple_budget=*/0);
  ASSERT_FALSE(spent.ChargeTuples(1));
  EXPECT_TRUE(NaturalJoin(full_n, full_n, spent).empty());
  EXPECT_TRUE(SemiJoin(full_n, unary, spent).empty());
  EXPECT_TRUE(BindAtom(full_n, {}, spent).empty());
  EXPECT_EQ(spent.stats().tuples_produced, 1);
}

// A pipeline run on a fresh traced context whose budget leaves
// `headroom` rows (kCounterMax: unbudgeted).
struct PipelineRun {
  Relation out;
  bool exhausted = false;
  ExecStats stats;
  std::vector<TraceSpan> spans;
};

template <typename Pipeline>
PipelineRun RunPipeline(Counter headroom, const Pipeline& pipeline) {
  TraceSink sink(TraceSink::kUnbounded);
  ExecContext ctx(headroom == kCounterMax ? kCounterMax : headroom - 1);
  ctx.set_tracer(&sink);
  PipelineRun run;
  run.out = pipeline(ctx);
  run.exhausted = ctx.exhausted();
  run.stats = ctx.stats();
  run.spans = sink.Snapshot();
  return run;
}

// A join call that produced rows but never wrote them: it probed each
// probe row once (writing probes again), or its footprint cannot hold
// its rows (a level counted through a chain also counts the probes of
// enumerating the levels below it).
bool Unwritten(const TraceSpan& call) {
  return call.op == TraceOp::kJoin && call.rows_out > 0 &&
         (call.ht_probe_ops == call.rows_in ||
          call.bytes < call.rows_out * call.arity_out *
                           static_cast<int64_t>(sizeof(Value)));
}

// Every span field but the wall-clock ones.
auto SpanFieldsOf(const std::vector<TraceSpan>& spans) {
  std::vector<std::tuple<TraceOp, int64_t, int64_t, int32_t, int32_t,
                         int64_t, int64_t, int64_t>>
      fields;
  for (const TraceSpan& s : spans) {
    fields.emplace_back(s.op, s.rows_in, s.rows_out, s.arity_in, s.arity_out,
                        s.bytes, s.ht_build_rows, s.ht_probe_ops);
  }
  return fields;
}

// The consumer contract: at every headroom the counted pipeline returns
// the written one's rows, exhaustion and every stat but peak_bytes; its
// spans are the same kernel calls with the same rows; and on a completed
// call sequence the span rows add up to the charges (an exhausting join
// charges rows it never writes). Returns how many runs left a join
// unwritten for the next call to read.
template <typename Written, typename Counted>
int ExpectConsumerContract(Counter max_headroom, const Written& written,
                           const Counted& counted, int trial) {
  int unwritten = 0;
  std::vector<Counter> headrooms;
  for (Counter h = 1; h <= max_headroom; ++h) headrooms.push_back(h);
  headrooms.push_back(kCounterMax);
  for (const Counter headroom : headrooms) {
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << " headroom " << headroom);
    const PipelineRun want = RunPipeline(headroom, written);
    const PipelineRun got = RunPipeline(headroom, counted);
    EXPECT_EQ(want.exhausted, got.exhausted);
    ExpectSameRows(want.out, got.out, trial);
    ExpectSameStatsExceptPeak(want.stats, got.stats, trial);
    EXPECT_EQ(want.spans.size(), got.spans.size());
    if (want.spans.size() != got.spans.size()) return unwritten;
    int64_t span_rows = 0;
    for (size_t k = 0; k < got.spans.size(); ++k) {
      EXPECT_EQ(want.spans[k].op, got.spans[k].op) << "call " << k;
      EXPECT_EQ(want.spans[k].rows_out, got.spans[k].rows_out) << "call " << k;
      span_rows += got.spans[k].rows_out;
      if (k + 1 < got.spans.size() && Unwritten(got.spans[k])) ++unwritten;
    }
    if (!got.exhausted) {
      EXPECT_EQ(span_rows, got.stats.tuples_produced);
    } else {
      EXPECT_LE(span_rows, got.stats.tuples_produced);
    }
  }
  return unwritten;
}

// Random relation of up to `max_rows` rows over values 1..domain.
Relation RandomRows(const Schema& schema, int64_t max_rows, uint64_t domain,
                    Rng& rng) {
  Relation rel{schema};
  if (schema.arity() == 0) {
    if (rng.NextBounded(2) == 0) rel.AddTuple(std::span<const Value>{});
    return rel;
  }
  const int64_t rows = static_cast<int64_t>(
      rng.NextBounded(static_cast<uint64_t>(max_rows + 1)));
  std::vector<Value> tuple(static_cast<size_t>(schema.arity()));
  for (int64_t i = 0; i < rows; ++i) {
    for (auto& v : tuple) v = static_cast<Value>(1 + rng.NextBounded(domain));
    rel.AddTuple(tuple);
  }
  return rel;
}

// Schema of the same arity as `schema` over attributes shared with
// nothing the pool of RandomSchema holds: its joins are cross products.
Schema Disjoint(const Schema& schema) {
  std::vector<AttrId> attrs;
  for (const AttrId a : schema.attrs()) attrs.push_back(a + 10);
  return Schema(std::move(attrs));
}

// A projection of a counted join, streamed from the probe, equals the
// projection of the written join: cross products, nullary and Boolean
// projections, columns from one side only, and heavy duplication.
TEST(FlatOpsPropertyTest, StreamedProjectionIsProjectionOfWrittenJoin) {
  Rng rng(1101);
  int unwritten = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const uint64_t domain = trial % 3 == 0 ? 1 : 3;
    const Schema left_schema = RandomSchema(rng, 3);
    const Schema right_schema =
        trial % 4 == 1 ? Disjoint(RandomSchema(rng, 2)) : RandomSchema(rng, 3);
    const Relation left = RandomRows(left_schema, 8, domain, rng);
    const Relation right = RandomRows(right_schema, 8, domain, rng);
    SpecPool join_pool;
    const JoinSpec join_spec =
        PlanJoin(left.schema().attrs(), right.schema().attrs(), join_pool);
    // Projected columns: none (Boolean), the left input's only, the
    // right-only ones only, or a random subset.
    std::vector<AttrId> keep;
    const std::span<const AttrId> out_attrs = join_spec.out_attrs;
    for (size_t c = 0; c < out_attrs.size(); ++c) {
      const bool from_left = static_cast<int>(c) < left.arity();
      const bool take = trial % 4 == 0   ? false
                        : trial % 4 == 1 ? from_left
                        : trial % 4 == 2 ? !from_left
                                         : rng.NextBounded(2) == 0;
      if (take) keep.push_back(out_attrs[c]);
    }
    SpecPool project_pool;
    const ProjectSpec project_spec =
        PlanProject(join_spec.out_attrs, keep, project_pool);
    const Schema projected(project_spec.out_attrs);
    ExecContext plain;
    const Counter total = HashJoin(left, right, join_spec, plain).size();
    unwritten += ExpectConsumerContract(
        2 * total + 1,
        [&](ExecContext& ctx) {
          const Relation joined = HashJoin(left, right, join_spec, ctx);
          if (ctx.exhausted()) return Relation{projected};
          return ProjectColumns(joined, project_spec, ctx);
        },
        [&](ExecContext& ctx) {
          CountedJoin joined(left, right, join_spec, ctx);
          if (ctx.exhausted()) return Relation{projected};
          return ProjectColumns(std::move(joined), project_spec, ctx);
        },
        trial);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(unwritten, 0) << "no projection streamed its join";
}

// Exactly `rows` random rows over values 1..domain (a nullary schema
// holds at most the empty tuple).
Relation ExactRows(const Schema& schema, int64_t rows, uint64_t domain,
                   Rng& rng) {
  Relation rel{schema};
  std::vector<Value> tuple(static_cast<size_t>(schema.arity()));
  for (int64_t i = 0; i < rows && (i == 0 || schema.arity() > 0); ++i) {
    for (auto& v : tuple) v = static_cast<Value>(1 + rng.NextBounded(domain));
    rel.AddTuple(tuple);
  }
  return rel;
}

// The inputs of a keyed projection: `keyed` names the input whose rows
// are distinct and whose attributes `keep` all holds.
struct KeyedTrial {
  Relation left;
  Relation right;
  KeyedSide keyed;
  std::vector<AttrId> keep;
};

// Trial shapes, by trial % 5: random schemas (0, 1); a cross product (2);
// one join attribute whose build groups hold one row each, or are one
// group of equal rows (3); and a keyed input that is the smaller one, so
// the join builds on it and the projection must stream as before (4).
// The keyed input is the left one on even trials, and otherwise the
// larger (probe) input. The other input's values come from 1..1 on every
// third trial, making every build group all-equal rows.
KeyedTrial MakeKeyedTrial(int trial, Rng& rng) {
  const int shape = trial % 5;
  const bool on_left = trial % 2 == 0;
  Schema keyed_schema = RandomSchema(rng, 3);
  Schema other_schema =
      shape == 2 ? Disjoint(RandomSchema(rng, 2)) : RandomSchema(rng, 3);
  if (shape == 3) {
    keyed_schema = Schema({0, 1});
    other_schema = Schema({1, 2});
  }
  const Relation keyed = RefProjectInOrder(
      RandomRows(keyed_schema, 10, 4, rng), keyed_schema.attrs());
  // The join builds on the left input iff it is no larger than the right.
  const int64_t n = keyed.size();
  const int64_t other_rows =
      shape == 4 ? n + 2
                 : static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(
                       on_left ? std::max<int64_t>(n, 1) : n + 1)));
  Relation other{other_schema};
  if (shape == 3 && (trial / 5) % 2 == 0) {
    for (int64_t i = 0; i < other_rows; ++i) {
      other.AddTuple({static_cast<Value>(i + 1),
                      static_cast<Value>(1 + rng.NextBounded(3))});
    }
  } else {
    other = ExactRows(other_schema, other_rows, trial % 3 == 0 ? 1 : 3, rng);
  }
  std::vector<AttrId> keep = keyed_schema.attrs();
  for (const AttrId a : other_schema.attrs()) {
    if (!keyed_schema.Contains(a) && rng.NextBounded(2) == 0) {
      keep.push_back(a);
    }
  }
  if (on_left) return {keyed, other, KeyedSide::kLeft, std::move(keep)};
  return {other, keyed, KeyedSide::kRight, std::move(keep)};
}

// A projection that keeps a distinct join input whole deduplicates once
// per key group when that input is the probe side, and equals the
// projection of the written join: rows, order, stats but peak_bytes and
// per-call span rows, at every headroom. Its spans differ from the
// streamed dedup's, which shows the keyed path ran; on a keyed build
// side they are the streamed dedup's.
TEST(FlatOpsPropertyTest, KeyedProjectionIsProjectionOfWrittenJoin) {
  Rng rng(1103);
  int probe_keyed = 0;
  int keyed_ran = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const KeyedTrial t = MakeKeyedTrial(trial, rng);
    SpecPool join_pool;
    SpecPool project_pool;
    const JoinSpec join_spec =
        PlanJoin(t.left.schema().attrs(), t.right.schema().attrs(), join_pool);
    const ProjectSpec project_spec =
        PlanProject(join_spec.out_attrs, t.keep, project_pool);
    const Schema projected(project_spec.out_attrs);
    const auto counted = [&](KeyedSide keyed) {
      return [&, keyed](ExecContext& ctx) {
        CountedJoin joined(t.left, t.right, join_spec, ctx);
        if (ctx.exhausted()) return Relation{projected};
        return ProjectColumns(std::move(joined), project_spec, ctx, keyed);
      };
    };
    ExecContext plain;
    const Counter total = HashJoin(t.left, t.right, join_spec, plain).size();
    ExpectConsumerContract(
        2 * total + 1,
        [&](ExecContext& ctx) {
          const Relation joined = HashJoin(t.left, t.right, join_spec, ctx);
          if (ctx.exhausted()) return Relation{projected};
          return ProjectColumns(joined, project_spec, ctx);
        },
        counted(t.keyed), trial);
    if (HasFatalFailure()) return;

    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    const PipelineRun keyed = RunPipeline(kCounterMax, counted(t.keyed));
    const PipelineRun streamed =
        RunPipeline(kCounterMax, counted(KeyedSide::kNone));
    const bool probe = (t.keyed == KeyedSide::kLeft) ==
                       (t.left.size() > t.right.size());
    if (!probe || total == 0 || t.keep.empty()) {
      EXPECT_EQ(SpanFieldsOf(keyed.spans), SpanFieldsOf(streamed.spans));
      continue;
    }
    ++probe_keyed;
    if (SpanFieldsOf(keyed.spans) != SpanFieldsOf(streamed.spans)) {
      ++keyed_ran;
    }
  }
  EXPECT_GT(probe_keyed, 0);
  EXPECT_EQ(keyed_ran, probe_keyed) << "a keyed probe side was deduplicated";
}

// A join counted through an unwritten join P equals the join over the
// written P, below the gate, above it, and at the exhaustion boundary:
// the third input is small, so P is the probe side.
TEST(FlatOpsPropertyTest, JoinCountedThroughUnwrittenJoinIsJoinOfWrittenJoin) {
  Rng rng(1102);
  int unwritten = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const uint64_t domain = trial % 3 == 0 ? 1 : 4;
    const Relation a = RandomRows(RandomSchema(rng, 3), 7, domain, rng);
    const Relation b = RandomRows(
        trial % 4 == 1 ? Disjoint(RandomSchema(rng, 2)) : RandomSchema(rng, 3),
        7, domain, rng);
    SpecPool p_pool;
    SpecPool j_pool;
    const JoinSpec p_spec =
        PlanJoin(a.schema().attrs(), b.schema().attrs(), p_pool);
    const Relation c = RandomRows(
        trial % 4 == 2 ? Disjoint(RandomSchema(rng, 2)) : RandomSchema(rng, 3),
        3, domain, rng);
    const JoinSpec j_spec =
        PlanJoin(p_spec.out_attrs, c.schema().attrs(), j_pool);
    const Schema joined_schema(j_spec.out_attrs);
    ExecContext plain;
    const Relation p = HashJoin(a, b, p_spec, plain);
    const Counter total = p.size() + HashJoin(p, c, j_spec, plain).size();
    unwritten += ExpectConsumerContract(
        total + 1,
        [&](ExecContext& ctx) {
          const Relation joined = HashJoin(a, b, p_spec, ctx);
          if (ctx.exhausted()) return Relation{joined_schema};
          return HashJoin(joined, c, j_spec, ctx);
        },
        [&](ExecContext& ctx) {
          CountedJoin joined(a, b, p_spec, ctx);
          if (ctx.exhausted()) return Relation{joined_schema};
          CountJoin(joined, c, j_spec, ctx);
          if (ctx.exhausted()) return Relation{joined_schema};
          return std::move(joined).Write();
        },
        trial);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(unwritten, 0) << "no join was counted through an unwritten one";
}

// A left-deep fold of `joins` joins: inputs[0] joined with inputs[1], then
// each further input. Every input holds distinct rows over a fresh
// attribute and one or two attributes of the fold so far (now and then
// none: a cross product), so the fold's rows are distinct too. The specs
// view the pools, which move with the trial.
struct FoldTrial {
  std::vector<Relation> inputs;
  std::vector<SpecPool> pools;
  std::vector<JoinSpec> specs;
};

// `n` distinct rows of the (at most binary) `schema` over values 1..3,
// in random order.
Relation DistinctRows(const Schema& schema, int n, Rng& rng) {
  std::vector<std::vector<Value>> all = {{}};
  for (int c = 0; c < schema.arity(); ++c) {
    std::vector<std::vector<Value>> longer;
    for (const auto& row : all) {
      for (Value v = 1; v <= 3; ++v) {
        longer.push_back(row);
        longer.back().push_back(v);
      }
    }
    all = std::move(longer);
  }
  for (size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[static_cast<size_t>(rng.NextBounded(i))]);
  }
  Relation rel{schema};
  for (int i = 0; i < n && i < static_cast<int>(all.size()); ++i) {
    rel.AddTuple(all[static_cast<size_t>(i)]);
  }
  return rel;
}

FoldTrial MakeFoldTrial(int joins, Rng& rng) {
  FoldTrial t;
  t.pools.resize(static_cast<size_t>(joins));
  std::vector<AttrId> attrs = {0, 1};
  const int base_rows = 5 + static_cast<int>(rng.NextBounded(5));
  t.inputs.push_back(DistinctRows(Schema(attrs), base_rows, rng));
  for (int k = 0; k < joins; ++k) {
    const AttrId fresh = static_cast<AttrId>(attrs.size());
    const auto old = [&] {
      return attrs[static_cast<size_t>(rng.NextBounded(attrs.size()))];
    };
    std::vector<AttrId> in;
    int rows = 0;
    switch (rng.NextBounded(5)) {
      case 0:  // a cross product
        in = {fresh};
        rows = 1 + static_cast<int>(rng.NextBounded(2));
        break;
      case 1: {  // a filter
        const AttrId a = old();
        AttrId b = old();
        while (b == a) b = old();
        in = {a, b};
        rows = 4 + static_cast<int>(rng.NextBounded(5));
        break;
      }
      default:
        in = {old(), fresh};
        rows = 2 + static_cast<int>(rng.NextBounded(4));
    }
    t.inputs.push_back(DistinctRows(Schema(in), rows, rng));
    t.specs.push_back(PlanJoin(attrs, in, t.pools[static_cast<size_t>(k)]));
    attrs.assign(t.specs.back().out_attrs.begin(),
                 t.specs.back().out_attrs.end());
  }
  return t;
}

// The reader of a fold's last join.
enum class FoldReader { kWrite, kStream, kKeyed, kCount };

// A chain of 1..8 counted joins (CountJoin over CountedJoin) equals the
// fold of written HashJoins at every headroom, for each reader of its
// top level: Write(), the streamed projection, the keyed projection (it
// keeps every attribute of the level below the top, distinct rows), and
// the next count, which counts through the chain. The consumer contract
// checks rows, row order, every stat but peak_bytes — so the calls made
// up to the exhausting one — and per-call span rows. Levels are left
// unwritten or written first (for a build side, or because writing them
// is cheaper than enumerating them again) as their counts decide.
TEST(FlatOpsPropertyTest, CountedChainIsFoldOfWrittenJoins) {
  Rng rng(1104);
  for (const FoldReader reader : {FoldReader::kWrite, FoldReader::kStream,
                                  FoldReader::kKeyed, FoldReader::kCount}) {
    int unwritten = 0;
    for (int depth = 1; depth <= 8; ++depth) {
      for (int trial = 0; trial < 3; ++trial) {
        // The next count reads a chain of `depth` joins with one more.
        const int joins = depth + (reader == FoldReader::kCount ? 1 : 0);
        // A fold whose last join keeps some rows, of at most 300 tuples.
        FoldTrial t;
        Counter total = 0;
        for (bool kept = false; !kept || total > 300;) {
          t = MakeFoldTrial(joins, rng);
          ExecContext plain;
          Relation fold = t.inputs[0];
          total = 0;
          for (int k = 0; k < joins; ++k) {
            fold = HashJoin(fold, t.inputs[k + 1], t.specs[k], plain);
            total += fold.size();
          }
          kept = !fold.empty();
        }
        const JoinSpec& top = t.specs[static_cast<size_t>(depth - 1)];
        const std::span<const AttrId> out = top.out_attrs;
        const size_t left = out.size() - top.right_carry_cols.size();
        std::vector<AttrId> keep;
        for (size_t c = 0; c < out.size(); ++c) {
          const bool take = reader == FoldReader::kKeyed && c < left;
          if (take || rng.NextBounded(2) == 0) keep.push_back(out[c]);
        }
        SpecPool project_pool;
        const ProjectSpec project = PlanProject(out, keep, project_pool);
        const Schema last(t.specs.back().out_attrs);
        const Schema projected(project.out_attrs);
        const auto read_written = [&](Relation rows, ExecContext& ctx) {
          switch (reader) {
            case FoldReader::kWrite:
              return rows;
            case FoldReader::kStream:
            case FoldReader::kKeyed:
              return ProjectColumns(rows, project, ctx);
            case FoldReader::kCount:
              HashJoin(rows, t.inputs.back(), t.specs.back(), ctx);
              return Relation{last};
          }
          return rows;
        };
        const auto read_counted = [&](CountedJoin chain, ExecContext& ctx) {
          switch (reader) {
            case FoldReader::kWrite:
              return std::move(chain).Write();
            case FoldReader::kStream:
              return ProjectColumns(std::move(chain), project, ctx);
            case FoldReader::kKeyed:
              return ProjectColumns(std::move(chain), project, ctx,
                                    KeyedSide::kLeft);
            case FoldReader::kCount:
              CountJoin(chain, t.inputs.back(), t.specs.back(), ctx);
              return Relation{last};
          }
          return Relation{last};
        };
        const Schema done = reader == FoldReader::kWrite ? Schema(out)
                            : reader == FoldReader::kCount ? last
                                                           : projected;
        unwritten += ExpectConsumerContract(
            total + 1,
            [&](ExecContext& ctx) {
              Relation acc = t.inputs[0];
              for (int k = 0; k < depth; ++k) {
                acc = HashJoin(acc, t.inputs[k + 1], t.specs[k], ctx);
                if (ctx.exhausted()) return Relation{done};
              }
              return read_written(std::move(acc), ctx);
            },
            [&](ExecContext& ctx) {
              CountedJoin chain(t.inputs[0], t.inputs[1], t.specs[0], ctx);
              for (int k = 1; k < depth && !ctx.exhausted(); ++k) {
                CountJoin(chain, t.inputs[k + 1], t.specs[k], ctx);
              }
              if (ctx.exhausted()) return Relation{done};
              return read_counted(std::move(chain), ctx);
            },
            depth * 10 + trial);
        if (HasFatalFailure()) return;
      }
    }
    EXPECT_GT(unwritten, 0) << "reader " << static_cast<int>(reader);
  }
}

TEST(FlatOpsPropertyTest, NullaryJoinCombinations) {
  const Schema nullary{std::vector<AttrId>{}};
  Relation empty_n{nullary};
  Relation full_n{nullary};
  full_n.AddTuple(std::span<const Value>{});
  Relation unary{Schema({3})};
  unary.AddTuple({7});
  unary.AddTuple({9});

  ExecContext ctx;
  EXPECT_TRUE(NaturalJoin(full_n, full_n, ctx).SetEquals(full_n));
  EXPECT_TRUE(NaturalJoin(full_n, empty_n, ctx).SetEquals(empty_n));
  EXPECT_TRUE(NaturalJoin(empty_n, empty_n, ctx).SetEquals(empty_n));
  EXPECT_TRUE(NaturalJoin(unary, full_n, ctx).SetEquals(unary));
  EXPECT_TRUE(NaturalJoin(full_n, unary, ctx).SetEquals(unary));
  EXPECT_TRUE(NaturalJoin(unary, empty_n, ctx).empty());
}

}  // namespace
}  // namespace ppr
