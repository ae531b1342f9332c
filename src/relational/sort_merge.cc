#include "relational/sort_merge.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/check.h"
#include "obs/trace.h"
#include "relational/ops.h"

namespace ppr {
namespace {

// Fills `order` with row indices of `rel` sorted lexicographically by the
// values of `cols`. The index array is arena scratch owned by the caller.
void SortRowOrder(const Relation& rel, std::span<const int> cols,
                  std::span<int64_t> order) {
  std::iota(order.begin(), order.end(), int64_t{0});
  const Value* base = rel.data();
  const int arity = rel.arity();
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const Value* ra = base + a * arity;
    const Value* rb = base + b * arity;
    for (int c : cols) {
      if (ra[c] != rb[c]) return ra[c] < rb[c];
    }
    return a < b;
  });
}

// -1 / 0 / +1 comparison of the key columns of two rows from two relations.
int CompareKeys(const Relation& left, int64_t li, std::span<const int> lc,
                const Relation& right, int64_t ri, std::span<const int> rc) {
  for (size_t k = 0; k < lc.size(); ++k) {
    const Value a = left.at(li, lc[k]);
    const Value b = right.at(ri, rc[k]);
    if (a != b) return a < b ? -1 : 1;
  }
  return 0;
}

}  // namespace

Relation SortMergeJoin(const Relation& left, const Relation& right,
                       ExecContext& ctx) {
  ctx.stats().num_joins++;
  SpanRecorder rec(ctx.tracer(), TraceOp::kJoin, ctx.trace_node());
  if (rec.enabled()) {
    rec.span().rows_in = left.size() + right.size();
    rec.span().arity_in = std::max(left.arity(), right.arity());
  }

  SpecPool pool;
  const JoinSpec spec =
      PlanJoin(left.schema().attrs(), right.schema().attrs(), pool);
  const std::span<const int> left_cols = spec.left_key_cols;
  const std::span<const int> right_cols = spec.right_key_cols;
  const std::span<const int> right_carry = spec.right_carry_cols;

  Relation out{Schema(spec.out_attrs)};
  if (rec.enabled()) rec.span().arity_out = out.arity();
  if (left.empty() || right.empty()) {
    ctx.stats().NoteIntermediate(out.arity(), 0);
    return out;
  }

  ArenaScope scope(ctx.arena());
  std::span<int64_t> lorder = ctx.arena().AllocSpan<int64_t>(left.size());
  std::span<int64_t> rorder = ctx.arena().AllocSpan<int64_t>(right.size());
  SortRowOrder(left, left_cols, lorder);
  SortRowOrder(right, right_cols, rorder);

  const int out_arity = out.arity();
  std::span<Value> tuple = ctx.arena().AllocSpan<Value>(std::max(out_arity, 1));
  auto emit = [&](int64_t li, int64_t ri) {
    for (int c = 0; c < left.arity(); ++c) {
      tuple[static_cast<size_t>(c)] = left.at(li, c);
    }
    for (size_t c = 0; c < right_carry.size(); ++c) {
      tuple[static_cast<size_t>(left.arity()) + c] =
          right.at(ri, right_carry[c]);
    }
    if (out_arity > 0) {
      out.AppendRaw(tuple.data());
    } else {
      out.AddTuple(std::span<const Value>{});
    }
    return ctx.ChargeTuples(1);
  };

  size_t l = 0;
  size_t r = 0;
  while (l < lorder.size() && r < rorder.size() && !ctx.exhausted()) {
    const int cmp = CompareKeys(left, lorder[l], left_cols, right, rorder[r],
                                right_cols);
    if (cmp < 0) {
      ++l;
    } else if (cmp > 0) {
      ++r;
    } else {
      // Find the full run of equal keys on both sides and emit the cross
      // product of the two runs.
      size_t lend = l + 1;
      while (lend < lorder.size() &&
             CompareKeys(left, lorder[lend], left_cols, right, rorder[r],
                         right_cols) == 0) {
        ++lend;
      }
      size_t rend = r + 1;
      while (rend < rorder.size() &&
             CompareKeys(left, lorder[l], left_cols, right, rorder[rend],
                         right_cols) == 0) {
        ++rend;
      }
      for (size_t i = l; i < lend && !ctx.exhausted(); ++i) {
        for (size_t j = r; j < rend; ++j) {
          if (!emit(lorder[i], rorder[j])) break;
        }
      }
      l = lend;
      r = rend;
    }
  }

  const Counter footprint =
      static_cast<Counter>(scope.bytes_allocated()) + out.byte_size();
  if (rec.enabled()) {
    rec.span().rows_out = out.size();
    rec.span().bytes = footprint;
  }
  ctx.stats().NotePeakBytes(footprint);
  ctx.stats().NoteIntermediate(out.arity(), out.size());
  return out;
}

}  // namespace ppr
