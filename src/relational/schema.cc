#include "relational/schema.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace ppr {

Schema::Schema(std::vector<AttrId> attrs) : attrs_(std::move(attrs)) {
  // Kernels build their output schemas from spec views on every call,
  // and plans hold at most a few dozen columns: those are checked pair by
  // pair without allocating. A longer list (a decoded reply header may
  // hold millions) is checked in O(n log n).
  constexpr size_t kPairwiseArity = 32;
  if (attrs_.size() <= kPairwiseArity) {
    for (size_t i = 0; i < attrs_.size(); ++i) {
      for (size_t j = i + 1; j < attrs_.size(); ++j) {
        PPR_CHECK(attrs_[i] != attrs_[j]);
      }
    }
    return;
  }
  std::vector<AttrId> sorted = attrs_;
  std::sort(sorted.begin(), sorted.end());
  PPR_CHECK(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
}

int IndexOfAttr(std::span<const AttrId> attrs, AttrId attr) {
  const auto it = std::find(attrs.begin(), attrs.end(), attr);
  return it == attrs.end() ? -1 : static_cast<int>(it - attrs.begin());
}

int Schema::IndexOf(AttrId attr) const { return IndexOfAttr(attrs_, attr); }

std::vector<AttrId> Schema::CommonAttrs(const Schema& other) const {
  std::vector<AttrId> out;
  for (AttrId a : attrs_) {
    if (other.Contains(a)) out.push_back(a);
  }
  return out;
}

std::vector<AttrId> Schema::AttrsNotIn(const Schema& other) const {
  std::vector<AttrId> out;
  for (AttrId a : attrs_) {
    if (!other.Contains(a)) out.push_back(a);
  }
  return out;
}

bool Schema::SameAttrSet(const Schema& other) const {
  if (arity() != other.arity()) return false;
  return std::all_of(attrs_.begin(), attrs_.end(),
                     [&](AttrId a) { return other.Contains(a); });
}

std::string Schema::ToString() const {
  std::ostringstream out;
  out << "(";
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (i > 0) out << ", ";
    out << "x" << attrs_[i];
  }
  out << ")";
  return out.str();
}

}  // namespace ppr
