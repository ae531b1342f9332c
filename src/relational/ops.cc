#include "relational/ops.h"

#include <algorithm>
#include <cstddef>

#include "common/check.h"
#include "relational/batch_ops.h"

namespace ppr {
namespace {

std::vector<int> ColumnIndices(const Schema& schema,
                               const std::vector<AttrId>& attrs) {
  std::vector<int> cols;
  cols.reserve(attrs.size());
  for (AttrId a : attrs) {
    int idx = schema.IndexOf(a);
    PPR_CHECK(idx >= 0);
    cols.push_back(idx);
  }
  return cols;
}

// Appends `n` ints to `pool` and returns the first of them. A pool that
// holds no spec may grow; one that does must have the room already,
// since growing would move the ints its specs view.
int32_t* Extend(SpecPool& pool, size_t n) {
  PPR_CHECK(pool.empty() || pool.size() + n <= pool.capacity());
  const size_t at = pool.size();
  pool.resize(at + n);
  return pool.data() + at;
}

}  // namespace

JoinSpec PlanJoin(std::span<const AttrId> left, std::span<const AttrId> right,
                  SpecPool& pool) {
  size_t keys = 0;
  for (AttrId a : left) keys += IndexOfAttr(right, a) >= 0 ? 1 : 0;
  const size_t carry = right.size() - keys;
  const size_t out = left.size() + carry;
  // Layout: output attributes, left keys, right keys, carried columns.
  int32_t* p = Extend(pool, out + 2 * keys + carry);
  std::copy(left.begin(), left.end(), p);
  int* left_keys = p + out;
  int* right_keys = left_keys + keys;
  int* carried = right_keys + keys;
  size_t k = 0;
  for (size_t c = 0; c < left.size(); ++c) {
    const int r = IndexOfAttr(right, left[c]);
    if (r < 0) continue;
    left_keys[k] = static_cast<int>(c);
    right_keys[k] = r;
    ++k;
  }
  // Output: all of left's attrs, then right-only attrs.
  size_t j = 0;
  for (size_t c = 0; c < right.size(); ++c) {
    if (IndexOfAttr(left, right[c]) >= 0) continue;
    p[left.size() + j] = right[c];
    carried[j] = static_cast<int>(c);
    ++j;
  }
  return JoinSpec{{p, out}, {left_keys, keys}, {right_keys, keys},
                  {carried, carry}};
}

ProjectSpec PlanProject(std::span<const AttrId> input,
                        const std::vector<AttrId>& attrs, SpecPool& pool) {
  const size_t n = attrs.size();
  int32_t* p = Extend(pool, 2 * n);
  for (size_t i = 0; i < n; ++i) {
    const int idx = IndexOfAttr(input, attrs[i]);
    PPR_CHECK(idx >= 0);
    PPR_CHECK(IndexOfAttr({attrs.data(), i}, attrs[i]) < 0);
    p[i] = attrs[i];
    p[n + i] = idx;
  }
  return ProjectSpec{{p, n}, {p + n, n}};
}

SemiJoinSpec PlanSemiJoin(const Schema& left, const Schema& right) {
  SemiJoinSpec spec;
  const std::vector<AttrId> common = left.CommonAttrs(right);
  spec.left_key_cols = ColumnIndices(left, common);
  spec.right_key_cols = ColumnIndices(right, common);
  return spec;
}

ScanSpec PlanScan(int stored_arity, const std::vector<AttrId>& args,
                  SpecPool& pool) {
  PPR_CHECK(static_cast<int>(args.size()) == stored_arity);
  size_t distinct = 0;
  for (size_t c = 0; c < args.size(); ++c) {
    distinct += IndexOfAttr({args.data(), c}, args[c]) < 0 ? 1 : 0;
  }
  // Layout: output attributes, source columns, equality-check pairs.
  int32_t* p = Extend(pool, 2 * args.size());
  int* source = p + distinct;
  int* checks = source + distinct;
  size_t d = 0;
  size_t e = 0;
  for (size_t c = 0; c < args.size(); ++c) {
    const int first = IndexOfAttr({p, d}, args[c]);
    if (first < 0) {
      p[d] = args[c];
      source[d++] = static_cast<int>(c);
    } else {
      checks[e++] = static_cast<int>(c);
      checks[e++] = source[first];
    }
  }
  return ScanSpec{{p, distinct}, {source, distinct}, {checks, e}};
}

Relation NaturalJoin(const Relation& left, const Relation& right,
                     ExecContext& ctx) {
  SpecPool pool;
  return HashJoin(left, right,
                  PlanJoin(left.schema().attrs(), right.schema().attrs(), pool),
                  ctx);
}

Relation Project(const Relation& input, const std::vector<AttrId>& attrs,
                 ExecContext& ctx) {
  SpecPool pool;
  return ProjectColumns(input, PlanProject(input.schema().attrs(), attrs, pool),
                        ctx);
}

Relation SemiJoin(const Relation& left, const Relation& right,
                  ExecContext& ctx) {
  return SemiJoinFiltered(left, right,
                          PlanSemiJoin(left.schema(), right.schema()), ctx);
}

Relation BindAtom(const Relation& stored, const std::vector<AttrId>& args,
                  ExecContext& ctx) {
  SpecPool pool;
  return ScanAtom(stored, PlanScan(stored.arity(), args, pool), ctx);
}

}  // namespace ppr
