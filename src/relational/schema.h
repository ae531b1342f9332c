#ifndef PPR_RELATIONAL_SCHEMA_H_
#define PPR_RELATIONAL_SCHEMA_H_

#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace ppr {

/// Column index of `attr` in the attribute list `attrs`, or -1 when
/// absent.
int IndexOfAttr(std::span<const AttrId> attrs, AttrId attr);

/// An ordered list of distinct attributes — the column layout of a relation.
///
/// Attribute order is significant (it fixes the column order of tuples),
/// but two schemas with the same attribute *set* describe join-compatible
/// relations; the operators in ops.h reorder columns as needed.
class Schema {
 public:
  Schema() = default;

  /// Constructs a schema from attributes. PPR_CHECK-fails on duplicates.
  explicit Schema(std::vector<AttrId> attrs);
  explicit Schema(std::span<const AttrId> attrs)
      : Schema(std::vector<AttrId>(attrs.begin(), attrs.end())) {}

  int arity() const { return static_cast<int>(attrs_.size()); }
  const std::vector<AttrId>& attrs() const { return attrs_; }
  AttrId attr(int i) const { return attrs_[static_cast<size_t>(i)]; }

  /// Column index of `attr`, or -1 when absent.
  int IndexOf(AttrId attr) const;

  bool Contains(AttrId attr) const { return IndexOf(attr) >= 0; }

  /// Attributes present in both schemas, in this schema's column order.
  std::vector<AttrId> CommonAttrs(const Schema& other) const;

  /// Attributes of this schema absent from `other`, in column order.
  std::vector<AttrId> AttrsNotIn(const Schema& other) const;

  /// True when both schemas contain exactly the same attribute set
  /// (column order may differ).
  bool SameAttrSet(const Schema& other) const;

  bool operator==(const Schema& other) const { return attrs_ == other.attrs_; }

  /// Renders "(x1, x2, ...)" using raw attribute ids.
  std::string ToString() const;

 private:
  std::vector<AttrId> attrs_;
};

}  // namespace ppr

#endif  // PPR_RELATIONAL_SCHEMA_H_
