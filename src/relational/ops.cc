#include "relational/ops.h"

#include <cstddef>
#include <utility>

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

}  // namespace

JoinSpec PlanJoin(const Schema& left, const Schema& right) {
  JoinSpec spec;
  const std::vector<AttrId> common = left.CommonAttrs(right);
  spec.left_key_cols = ColumnIndices(left, common);
  spec.right_key_cols = ColumnIndices(right, common);

  // Output schema: all of left's attrs, then right-only attrs.
  std::vector<AttrId> out_attrs = left.attrs();
  const std::vector<AttrId> right_only = right.AttrsNotIn(left);
  out_attrs.insert(out_attrs.end(), right_only.begin(), right_only.end());
  spec.right_carry_cols = ColumnIndices(right, right_only);
  spec.out_schema = Schema(std::move(out_attrs));
  return spec;
}

ProjectSpec PlanProject(const Schema& input,
                        const std::vector<AttrId>& attrs) {
  ProjectSpec spec;
  spec.cols = ColumnIndices(input, attrs);
  spec.out_schema = Schema(attrs);
  return spec;
}

SemiJoinSpec PlanSemiJoin(const Schema& left, const Schema& right) {
  SemiJoinSpec spec;
  const std::vector<AttrId> common = left.CommonAttrs(right);
  spec.left_key_cols = ColumnIndices(left, common);
  spec.right_key_cols = ColumnIndices(right, common);
  return spec;
}

ScanSpec PlanScan(int stored_arity, const std::vector<AttrId>& args) {
  PPR_CHECK(static_cast<int>(args.size()) == stored_arity);
  ScanSpec spec;
  std::vector<AttrId> distinct;
  for (size_t c = 0; c < args.size(); ++c) {
    int d = -1;
    for (size_t i = 0; i < distinct.size(); ++i) {
      if (distinct[i] == args[c]) {
        d = static_cast<int>(i);
        break;
      }
    }
    if (d < 0) {
      distinct.push_back(args[c]);
      spec.source_cols.push_back(static_cast<int>(c));
    } else {
      spec.equal_checks.emplace_back(static_cast<int>(c),
                                     spec.source_cols[static_cast<size_t>(d)]);
    }
  }
  spec.out_schema = Schema(std::move(distinct));
  return spec;
}

Relation NaturalJoin(const Relation& left, const Relation& right,
                     ExecContext& ctx) {
  return HashJoin(left, right, PlanJoin(left.schema(), right.schema()), ctx);
}

Relation Project(const Relation& input, const std::vector<AttrId>& attrs,
                 ExecContext& ctx) {
  return ProjectColumns(input, PlanProject(input.schema(), attrs), ctx);
}

Relation SemiJoin(const Relation& left, const Relation& right,
                  ExecContext& ctx) {
  return SemiJoinFiltered(left, right,
                          PlanSemiJoin(left.schema(), right.schema()), ctx);
}

Relation BindAtom(const Relation& stored, const std::vector<AttrId>& args,
                  ExecContext& ctx) {
  return ScanAtom(stored, PlanScan(stored.arity(), args), ctx);
}

}  // namespace ppr
