#ifndef PPR_RELATIONAL_RELATION_H_
#define PPR_RELATIONAL_RELATION_H_

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "relational/schema.h"

namespace ppr {

/// std::allocator whose argument-less construct() default-initializes, so
/// growing a vector of trivial values leaves the new elements
/// uninitialized instead of writing zeros.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>& /*other*/) noexcept {}

  template <typename U>
  void construct(U* p) noexcept {
    std::uninitialized_default_construct_n(p, 1);
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

/// An in-memory relation: a schema plus a row-major flat tuple store.
///
/// This is the engine's only table representation. It is deliberately
/// simple — the paper's databases are tiny (the `edge` relation has six
/// tuples) and all cost comes from intermediate-result blowup, which this
/// layout measures faithfully (row count x arity).
class Relation {
 public:
  Relation() = default;

  /// Creates an empty relation with the given schema.
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}

  /// Creates a relation and bulk-loads `rows` (each of length arity).
  Relation(Schema schema, std::initializer_list<std::vector<Value>> rows);

  const Schema& schema() const { return schema_; }
  int arity() const { return schema_.arity(); }
  int64_t size() const {
    return schema_.arity() == 0
               ? (nullary_nonempty_ ? 1 : 0)
               : static_cast<int64_t>(data_.size()) / schema_.arity();
  }
  bool empty() const { return size() == 0; }

  /// Read-only view of row `i`.
  std::span<const Value> row(int64_t i) const {
    PPR_DCHECK(i >= 0 && i < size());
    return {data_.data() + i * arity(), static_cast<size_t>(arity())};
  }

  /// Value of column `col` in row `i`.
  Value at(int64_t i, int col) const {
    PPR_DCHECK(col >= 0 && col < arity());
    return data_[static_cast<size_t>(i * arity() + col)];
  }

  /// Appends a tuple; `tuple.size()` must equal the arity. For nullary
  /// relations this marks the relation nonempty (the single empty tuple).
  void AddTuple(std::span<const Value> tuple);
  void AddTuple(std::initializer_list<Value> tuple) {
    AddTuple(std::span<const Value>(tuple.begin(), tuple.size()));
  }

  /// Hot-path append of exactly arity() values starting at `src`, without
  /// per-call length validation. Invalid for nullary relations.
  void AppendRaw(const Value* src) {
    PPR_DCHECK(arity() > 0);
    data_.insert(data_.end(), src, src + arity());
  }

  /// Raw row-major tuple storage (size() * arity() values).
  const Value* data() const { return data_.data(); }

  /// Appends `rows` uninitialized tuples and returns a mutable pointer to
  /// the first of them, for operators that fill rows through a raw
  /// cursor. Nothing is written here: the caller writes every row it
  /// keeps and truncates the rest away (TruncateRows), so the pages of
  /// rows it never writes are never touched. Invalid for nullary
  /// relations.
  Value* GrowRows(int64_t rows) {
    PPR_DCHECK(arity() > 0 && rows >= 0);
    const size_t old = data_.size();
    data_.resize(old + static_cast<size_t>(rows * arity()));
    return data_.data() + old;
  }

  /// Drops all but the first `rows` tuples (cursor writers that stop
  /// early shrink back to what they actually filled).
  void TruncateRows(int64_t rows) {
    PPR_DCHECK(arity() > 0 && rows >= 0 && rows <= size());
    data_.resize(static_cast<size_t>(rows * arity()));
  }

  /// Bytes of tuple storage currently held.
  int64_t byte_size() const {
    return static_cast<int64_t>(data_.size() * sizeof(Value));
  }

  /// Reserves storage for `rows` additional tuples.
  void Reserve(int64_t rows) {
    data_.reserve(data_.size() + static_cast<size_t>(rows * arity()));
  }

  /// True when the relation contains `tuple` (linear scan; test helper).
  bool ContainsTuple(std::span<const Value> tuple) const;

  /// Removes duplicate rows in place (order not preserved).
  void DeduplicateInPlace();

  /// Set equality: same attribute set and the same set of tuples, ignoring
  /// column order and row order. The canonical comparison for strategy
  /// equivalence tests.
  bool SetEquals(const Relation& other) const;

  /// Renders schema plus all rows; intended for small relations in tests
  /// and examples.
  std::string ToString() const;

 private:
  /// Rows sorted lexicographically after permuting columns into ascending
  /// attribute-id order; canonical form used by SetEquals.
  std::vector<std::vector<Value>> CanonicalRows() const;

  Schema schema_;
  std::vector<Value, DefaultInitAllocator<Value>> data_;
  /// Nullary relations (arity 0) carry one bit of information: whether
  /// they contain the empty tuple. Boolean query results live here.
  bool nullary_nonempty_ = false;
};

}  // namespace ppr

#endif  // PPR_RELATIONAL_RELATION_H_
