#include "relational/batch_ops.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"
#include "relational/flat_hash.h"

namespace ppr {
namespace {

// An unstamped span (start_ns < 0) of operator `op` at the context's
// current plan node, for a call whose work is not one scope.
TraceSpan OpenSpan(TraceOp op, const ExecContext& ctx) {
  TraceSpan span;
  span.op = op;
  span.node_id = ctx.trace_node();
  span.start_ns = -1;
  return span;
}

// Adds the enclosing scope's wall time to `span`; the first timed scope
// stamps its start. Inert without a sink.
class SpanTimer {
 public:
  SpanTimer(TraceSink* sink, TraceSpan& span) : sink_(sink), span_(span) {
    if (sink_ != nullptr) start_ns_ = sink_->NowNs();
  }
  ~SpanTimer() {
    if (sink_ == nullptr) return;
    if (span_.start_ns < 0) span_.start_ns = start_ns_;
    span_.duration_ns += sink_->NowNs() - start_ns_;
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  TraceSink* sink_;
  TraceSpan& span_;
  int64_t start_ns_ = 0;
};

// Clamps a row count to what the budget still allows. min(rows,
// headroom) is the row a tuple-at-a-time loop stops at: it emits
// headroom rows before the charge latches exhausted(), and
// ChargeTuples(min(rows, headroom)) latches iff rows >= headroom.
int64_t ClampToHeadroom(int64_t rows, ExecContext& ctx) {
  const Counter headroom = ctx.budget_headroom();
  if (static_cast<Counter>(rows) > headroom) {
    return static_cast<int64_t>(headroom);
  }
  return rows;
}

// Charges a call's exact output of `total` rows against the budget and
// returns the rows the call keeps: all of them, or none when they reach
// the headroom. The exhausting call materializes nothing, since every
// budgeted caller discards an exhausted run's output, yet it charges and
// notes min(total, headroom) rows, as a tuple-at-a-time loop stopping at
// the budget would: every ExecStats field but peak_bytes matches that
// loop's.
int64_t ChargeOutput(int64_t total, int arity, ExecContext& ctx) {
  const int64_t charged = ClampToHeadroom(total, ctx);
  const bool exhausts =
      static_cast<Counter>(total) >= ctx.budget_headroom();
  if (charged > 0) ctx.ChargeTuples(charged);
  ctx.stats().NoteIntermediate(arity, charged);
  return exhausts ? 0 : total;
}

// Whether a stored row satisfies the scan's repeated-attribute checks.
bool PassesChecks(const Value* row, const ScanSpec& spec) {
  const std::span<const int> checks = spec.equal_checks;
  for (size_t k = 0; k < checks.size(); k += 2) {
    if (row[checks[k]] != row[checks[k + 1]]) return false;
  }
  return true;
}

// Records in `sel` the indexes of the first `rows` stored rows that pass
// the scan's checks; returns how many there are.
int64_t SelectScanRows(const Value* base, int in_arity, const ScanSpec& spec,
                       int64_t rows, int32_t* sel) {
  int64_t kept = 0;
  for (int64_t i = 0; i < rows; ++i) {
    if (PassesChecks(base + i * in_arity, spec)) {
      sel[kept++] = static_cast<int32_t>(i);
    }
  }
  return kept;
}

// Writes `quota` stored rows, bound to the output columns, to `cursor`:
// the rows at indexes sel[0, quota), or with no selection (an atom
// without repeated attributes) rows [0, quota) as a pure column gather,
// one strided loop per column.
void EmitScanRows(const Value* base, int in_arity, const ScanSpec& spec,
                  const int32_t* sel, int64_t quota, Value* cursor) {
  const int out_arity = static_cast<int>(spec.out_attrs.size());
  const int* source = spec.source_cols.data();
  if (sel == nullptr) {
    for (int c = 0; c < out_arity; ++c) {
      const Value* src = base + source[c];
      Value* dst = cursor + c;
      for (int64_t i = 0; i < quota; ++i) {
        dst[i * out_arity] = src[i * in_arity];
      }
    }
    return;
  }
  for (int64_t j = 0; j < quota; ++j) {
    const Value* row = base + sel[j] * in_arity;
    for (int c = 0; c < out_arity; ++c) cursor[c] = row[source[c]];
    cursor += out_arity;
  }
}

// Nullary outputs hold at most the empty tuple: emits it unless that
// exhausts the budget (ChargeOutput).
void EmitNullary(TraceOp op, Relation& out, ExecContext& ctx) {
  SpanRecorder rec(ctx.tracer(), op, ctx.trace_node());
  if (ChargeOutput(1, 0, ctx) > 0) out.AddTuple(std::span<const Value>{});
  if (rec.enabled()) {
    rec.span().rows_in = 1;
    rec.span().rows_out = out.size();
  }
}

}  // namespace

// The column layout of one counted hash join: the build-side index, the
// probe side (the larger input), and where each output column comes
// from.
class JoinRows {
 public:
  explicit JoinRows(const CountedJoin& j)
      : index(*j.index_),
        build_left(j.build_left_),
        probe_base(j.build_left_ ? j.right_base_ : j.left_base_),
        probe_arity(j.build_left_ ? j.right_arity_ : j.left_arity_),
        probe_rows(j.probe_rows_),
        rows(j.rows_),
        probe_key(j.build_left_ ? j.spec_->right_key_cols.data()
                                : j.spec_->left_key_cols.data()),
        key_width(static_cast<int>(j.spec_->left_key_cols.size())),
        key(j.probe_key_),
        build_base(j.build_left_ ? j.left_base_ : j.right_base_),
        build_arity(j.build_left_ ? j.left_arity_ : j.right_arity_),
        left_arity(j.left_arity_),
        carry(j.spec_->right_carry_cols.data()),
        num_carry(static_cast<int>(j.spec_->right_carry_cols.size())),
        out_arity(static_cast<int>(j.spec_->out_attrs.size())) {}

  const Value* probe_row(int64_t i) const {
    return probe_base + i * probe_arity;
  }
  const Value* build_row(int64_t b) const {
    return build_base + b * build_arity;
  }

  // The id of the key group matching `row` of the probe side, or -1, its
  // key assembled in place in the join's key scratch — no gathered or
  // packed copy of the probe keys.
  int64_t FindGroup(const Value* row) const {
    for (int c = 0; c < key_width; ++c) key[c] = row[probe_key[c]];
    return index.FindGroup(key);
  }

  // The build rows matching `row` of the probe side (FindGroup).
  std::span<const int64_t> Probe(const Value* row) const {
    const int64_t g = FindGroup(row);
    if (g < 0) return {};
    return index.Group(g);
  }

  // Output column k comes from the probe row (else the build row), from
  // its column SourceColumn(k).
  bool FromProbe(int k) const { return (k < left_arity) != build_left; }
  int SourceColumn(int k) const {
    return k < left_arity ? k : carry[k - left_arity];
  }

  const JoinIndex& index;
  bool build_left;
  const Value* probe_base;
  int probe_arity;
  int64_t probe_rows;
  // Rows the join counted and keeps.
  int64_t rows;
  const int* probe_key;
  int key_width;
  Value* key;
  const Value* build_base;
  int build_arity;
  int left_arity;
  const int* carry;
  int num_carry;
  int out_arity;
};

namespace {

// Output rows of the join.
int64_t CountJoinRows(const JoinRows& j) {
  int64_t total = 0;
  for (int64_t i = 0; i < j.probe_rows; ++i) {
    total += static_cast<int64_t>(j.Probe(j.probe_row(i)).size());
  }
  return total;
}

// Writes the first `quota` output rows of the join to `cursor`, in
// probe-row then build-row order, and returns the number of probe rows
// probed. The caller sized `quota` from CountJoinRows.
int64_t EmitJoinRows(const JoinRows& j, int64_t quota, Value* cursor) {
  const int left_arity = j.left_arity;
  const int out_arity = j.out_arity;
  const int num_carry = j.num_carry;
  const int* carry = j.carry;
  int64_t emitted = 0;
  int64_t i = 0;
  for (; i < j.probe_rows && emitted < quota; ++i) {
    const Value* probe_row = j.probe_row(i);
    const std::span<const int64_t> matches = j.Probe(probe_row);
    if (j.build_left) {
      // Probe side is the right input: its carry columns repeat across
      // every match of this probe row.
      for (int64_t b : matches) {
        const Value* left_row = j.build_row(b);
        for (int c = 0; c < left_arity; ++c) cursor[c] = left_row[c];
        for (int c = 0; c < num_carry; ++c) {
          cursor[left_arity + c] = probe_row[carry[c]];
        }
        cursor += out_arity;
        if (++emitted == quota) break;
      }
    } else {
      for (int64_t b : matches) {
        const Value* right_row = j.build_row(b);
        for (int c = 0; c < left_arity; ++c) cursor[c] = probe_row[c];
        for (int c = 0; c < num_carry; ++c) {
          cursor[left_arity + c] = right_row[carry[c]];
        }
        cursor += out_arity;
        if (++emitted == quota) break;
      }
    }
  }
  return i;
}

// A key over some of a counted join's output columns, assembled from a
// (probe row, build row) pair instead of a written output row: (key
// column, source column) pairs for the columns the probe row supplies,
// then for those the build row supplies. Derived once per call into
// arena memory.
struct PairKey {
  const int* probe_pairs;
  int num_probe;
  const int* build_pairs;
  int num_build;

  void Assemble(const Value* probe_row, const Value* build_row,
                Value* key) const {
    for (int p = 0; p < num_probe; ++p) {
      key[probe_pairs[2 * p]] = probe_row[probe_pairs[2 * p + 1]];
    }
    AssembleBuild(build_row, key);
  }

  // The build row's columns of the key only.
  void AssembleBuild(const Value* build_row, Value* key) const {
    for (int p = 0; p < num_build; ++p) {
      key[build_pairs[2 * p]] = build_row[build_pairs[2 * p + 1]];
    }
  }
};

// The PairKey of output columns `cols` (`width` of them) of join `j`.
PairKey MakePairKey(const JoinRows& j, const int* cols, int width,
                    ExecArena& arena) {
  int* pairs = arena.AllocSpan<int>(2 * std::max(width, 1)).data();
  int num_probe = 0;
  for (int c = 0; c < width; ++c) {
    if (!j.FromProbe(cols[c])) continue;
    pairs[2 * num_probe] = c;
    pairs[2 * num_probe + 1] = j.SourceColumn(cols[c]);
    ++num_probe;
  }
  int* build_pairs = pairs + 2 * num_probe;
  int num_build = 0;
  for (int c = 0; c < width; ++c) {
    if (j.FromProbe(cols[c])) continue;
    build_pairs[2 * num_build] = c;
    build_pairs[2 * num_build + 1] = j.SourceColumn(cols[c]);
    ++num_build;
  }
  return {pairs, num_probe, build_pairs, num_build};
}

// The rows a projection deduplicates: a written relation's.
class RelationRows {
 public:
  RelationRows(const Relation& input, const ProjectSpec& spec)
      : base_(input.data()),
        arity_(input.arity()),
        rows_(input.size()),
        cols_(spec.cols.data()) {}

  int64_t rows() const { return rows_; }
  int arity() const { return arity_; }

  // Inserts the keys of the rows into `seen`, in row order, until it
  // holds `cap` keys; returns the lookups made. Each key is assembled at
  // seen.next_key(), so a new key is written once, in place in seen's
  // key store.
  int64_t Insert(int64_t cap, FlatKeyIndex& seen) const {
    const int key_width = seen.key_width();
    int64_t i = 0;
    while (i < rows_ && seen.num_keys() < cap) {
      const Value* row = base_ + i * arity_;
      ++i;
      Value* key = seen.next_key();
      for (int c = 0; c < key_width; ++c) key[c] = row[cols_[c]];
      seen.InsertNext();
    }
    return i;
  }

 private:
  const Value* base_;
  int arity_;
  int64_t rows_;
  const int* cols_;
};

// A counted join's unwritten rows: the probe side is probed again, and
// the projected key of every match is assembled in the order the join
// would have written the rows.
class JoinPairRows {
 public:
  JoinPairRows(const JoinRows& join, const PairKey& key)
      : join_(join), key_(key) {}

  int64_t rows() const { return join_.rows; }
  int arity() const { return join_.out_arity; }

  // As RelationRows::Insert.
  int64_t Insert(int64_t cap, FlatKeyIndex& seen) const {
    int64_t lookups = 0;
    for (int64_t i = 0; i < join_.probe_rows && seen.num_keys() < cap; ++i) {
      const Value* probe_row = join_.probe_row(i);
      ++lookups;
      for (const int64_t b : join_.Probe(probe_row)) {
        if (seen.num_keys() == cap) break;
        key_.Assemble(probe_row, join_.build_row(b), seen.next_key());
        seen.InsertNext();
        ++lookups;
      }
    }
    return lookups;
  }

 private:
  const JoinRows& join_;
  const PairKey& key_;
};

// The projection kernel over either row source: one index whose key
// store is the output.
template <typename Rows>
Relation ProjectRows(const Rows& input, const ProjectSpec& spec,
                     ExecContext& ctx) {
  ctx.stats().num_projections++;
  Relation out{Schema(spec.out_attrs)};
  if (spec.cols.empty()) {
    // Boolean projection: nonempty input -> the single empty tuple.
    SpanRecorder rec(ctx.tracer(), TraceOp::kProject, ctx.trace_node());
    if (rec.enabled()) {
      rec.span().rows_in = input.rows();
      rec.span().arity_in = input.arity();
      rec.span().arity_out = 0;
    }
    if (input.rows() > 0) {
      out.AddTuple(std::span<const Value>{});
      ctx.ChargeTuples(1);
    }
    if (rec.enabled()) rec.span().rows_out = out.size();
    ctx.stats().NoteIntermediate(0, out.size());
    return out;
  }
  if (input.rows() == 0) {
    ctx.stats().NoteIntermediate(out.arity(), 0);
    return out;
  }

  // Projection cannot know its output size before it deduplicates, so
  // it sizes its output for the rows the budget still allows, inserts
  // each distinct key straight into that output (the index's key store),
  // and truncates to the keys it found. A run that exhausts the budget
  // keeps its first-occurrence prefix.
  const int key_width = static_cast<int>(spec.cols.size());
  ArenaScope scope(ctx.arena());
  SpanRecorder rec(ctx.tracer(), TraceOp::kProject, ctx.trace_node());
  const int64_t cap = ClampToHeadroom(input.rows(), ctx);
  FlatKeyIndex seen(cap, key_width, out.GrowRows(cap), ctx.arena());
  const int64_t probed = input.Insert(cap, seen);
  out.TruncateRows(seen.num_keys());
  if (!out.empty()) ctx.ChargeTuples(out.size());
  const Counter footprint =
      static_cast<Counter>(scope.bytes_allocated()) + out.byte_size();
  if (rec.enabled()) {
    rec.span().rows_in = input.rows();
    rec.span().rows_out = out.size();
    rec.span().arity_in = input.arity();
    rec.span().arity_out = key_width;
    rec.span().bytes = footprint;
    rec.span().ht_build_rows = out.size();
    rec.span().ht_probe_ops = probed;
  }
  ctx.stats().NotePeakBytes(footprint);
  ctx.stats().NoteIntermediate(out.arity(), out.size());
  return out;
}

// The representatives of a join's key groups under a PairKey: each
// group's first build row for every distinct value of the key's
// build-row share, in build-row order. Group g's are rows[offsets[g],
// offsets[g + 1]).
struct GroupRepresentatives {
  std::span<const int64_t> offsets;
  std::span<const int64_t> rows;

  int64_t count(int64_t g) const { return offsets[g + 1] - offsets[g]; }
};

// Walks join `j`'s key groups once, deduplicating (group id, build-row
// share of `key`) in one index whose scratch comes from `arena`.
GroupRepresentatives Representatives(const JoinRows& j, const PairKey& key,
                                     ExecArena& arena) {
  const JoinIndex& index = j.index;
  const int64_t build_rows = index.num_rows();
  const int64_t groups = index.num_groups();
  const int width = 1 + key.num_build;
  FlatKeyIndex seen(build_rows, width,
                    arena.AllocSpan<Value>(build_rows * width).data(), arena);
  std::span<int64_t> offsets = arena.AllocSpan<int64_t>(groups + 1);
  std::span<int64_t> rows = arena.AllocSpan<int64_t>(build_rows);
  offsets[0] = 0;
  for (int64_t g = 0; g < groups; ++g) {
    for (const int64_t b : index.Group(g)) {
      const Value* row = j.build_row(b);
      Value* share = seen.next_key();
      share[0] = static_cast<Value>(g);
      for (int p = 0; p < key.num_build; ++p) {
        share[1 + p] = row[key.build_pairs[2 * p + 1]];
      }
      const int64_t id = seen.num_keys();
      if (seen.InsertNext() == id) rows[id] = b;
    }
    offsets[g + 1] = seen.num_keys();
  }
  return {offsets, rows.first(static_cast<size_t>(seen.num_keys()))};
}

// The projection of counted join `j` when its probe rows are pairwise
// distinct and the projection keeps every probe attribute (KeyedSide):
// keys of different probe rows never collide, so a probe row's distinct
// keys are its group's representatives, met in the order the dedup
// would first meet them. It counts the probe rows' keys, then writes the
// first min(distinct, headroom) into an output sized exactly, with no
// index over the output.
Relation ProjectKeyed(const JoinRows& j, const PairKey& key,
                      const ProjectSpec& spec, ExecContext& ctx) {
  ctx.stats().num_projections++;
  Relation out{Schema(spec.out_attrs)};
  const int key_width = out.arity();
  ArenaScope scope(ctx.arena());
  SpanRecorder rec(ctx.tracer(), TraceOp::kProject, ctx.trace_node());
  const GroupRepresentatives reps = Representatives(j, key, ctx.arena());

  int64_t keys = 0;
  for (int64_t i = 0; i < j.probe_rows; ++i) {
    const int64_t g = j.FindGroup(j.probe_row(i));
    if (g >= 0) keys += reps.count(g);
  }

  const int64_t kept = ClampToHeadroom(keys, ctx);
  Value* cursor = out.GrowRows(kept);
  int64_t written = 0;
  int64_t i = 0;
  for (; i < j.probe_rows && written < kept; ++i) {
    const Value* row = j.probe_row(i);
    const int64_t g = j.FindGroup(row);
    if (g < 0) continue;
    // A group has a representative at least; the keys after its first
    // share their probe columns with the key before them.
    const int64_t n = std::min(reps.count(g), kept - written);
    const int64_t* rep = reps.rows.data() + reps.offsets[g];
    key.Assemble(row, j.build_row(rep[0]), cursor);
    for (int64_t r = 1; r < n; ++r) {
      std::copy(cursor, cursor + key_width, cursor + key_width);
      cursor += key_width;
      key.AssembleBuild(j.build_row(rep[r]), cursor);
    }
    cursor += key_width;
    written += n;
  }
  if (kept > 0) ctx.ChargeTuples(kept);

  const Counter footprint =
      static_cast<Counter>(scope.bytes_allocated()) + out.byte_size();
  if (rec.enabled()) {
    rec.span().rows_in = j.rows;
    rec.span().rows_out = kept;
    rec.span().arity_in = j.out_arity;
    rec.span().arity_out = key_width;
    rec.span().bytes = footprint;
    rec.span().ht_build_rows = static_cast<int64_t>(reps.rows.size());
    rec.span().ht_probe_ops = j.probe_rows + i + j.index.num_rows();
  }
  ctx.stats().NotePeakBytes(footprint);
  ctx.stats().NoteIntermediate(key_width, kept);
  return out;
}

}  // namespace

Relation ScanAtom(const Relation& stored, const ScanSpec& spec,
                  ExecContext& ctx) {
  Relation out{Schema(spec.out_attrs)};
  if (stored.empty()) {
    // No scratch for empty inputs, so peak_bytes stays an honest 0 on
    // runs against empty databases.
    ctx.stats().NoteIntermediate(out.arity(), 0);
    return out;
  }
  if (out.arity() == 0) {
    // Nullary binding: the stored relation is nullary and holds the
    // empty tuple.
    EmitNullary(TraceOp::kScan, out, ctx);
    return out;
  }

  const int in_arity = stored.arity();
  const int out_arity = out.arity();
  const int64_t in_rows = stored.size();
  const Value* base = stored.data();
  ArenaScope scope(ctx.arena());
  SpanRecorder rec(ctx.tracer(), TraceOp::kScan, ctx.trace_node());

  // Count the surviving rows. An atom with repeated attributes checks
  // each row once here and records the survivors in a selection array,
  // which the copy reads.
  int32_t* sel = nullptr;
  int64_t kept = in_rows;
  if (!spec.equal_checks.empty()) {
    PPR_CHECK(in_rows <= std::numeric_limits<int32_t>::max());
    sel = ctx.arena().AllocSpan<int32_t>(in_rows).data();
    kept = SelectScanRows(base, in_arity, spec, in_rows, sel);
  }

  // Copy them, in row order, into an output sized exactly. A call that
  // exhausts the budget skips it.
  if (ChargeOutput(kept, out_arity, ctx) > 0) {
    EmitScanRows(base, in_arity, spec, sel, kept, out.GrowRows(kept));
  }

  const Counter footprint =
      static_cast<Counter>(scope.bytes_allocated()) + out.byte_size();
  if (rec.enabled()) {
    rec.span().rows_in = in_rows;
    rec.span().rows_out = out.size();
    rec.span().arity_in = in_arity;
    rec.span().arity_out = out_arity;
    rec.span().bytes = footprint;
  }
  ctx.stats().NotePeakBytes(footprint);
  return out;
}

struct CountedJoin::Prebuilt {
  std::optional<JoinIndex> index;
  // Scratch bytes of the index.
  Counter bytes = 0;
  // The call's work so far: the build and any counting through the
  // unwritten join.
  TraceSpan time;
};

CountedJoin::CountedJoin(const Relation& left, const Relation& right,
                         const JoinSpec& spec, ExecContext& ctx,
                         const Prebuilt* prebuilt)
    : ctx_(&ctx),
      spec_(&spec),
      arena_(prebuilt == nullptr ? &ctx.arena() : nullptr),
      mark_(ctx.arena().Save()),
      out_(Schema(spec.out_attrs)),
      build_left_(left.size() <= right.size()),
      left_base_(left.data()),
      right_base_(right.data()),
      left_arity_(left.arity()),
      right_arity_(right.arity()),
      probe_rows_(build_left_ ? right.size() : left.size()),
      span_(OpenSpan(TraceOp::kJoin, ctx)) {
  ctx.stats().num_joins++;
  if (left.empty() || right.empty()) {
    ctx.stats().NoteIntermediate(out_.arity(), 0);
    return;
  }
  if (out_.arity() == 0) {
    // Both inputs nullary and nonempty: the empty tuple.
    EmitNullary(TraceOp::kJoin, out_, ctx);
    rows_ = out_.size();
    return;
  }
  open_ = true;
  const Relation& build = build_left_ ? left : right;
  const int key_width = static_cast<int>(spec.left_key_cols.size());
  if (prebuilt != nullptr) {
    // The index was built, and maybe counted through, as this call's
    // work.
    PPR_DCHECK(!build_left_);
    index_.emplace(*prebuilt->index);
    scratch_bytes_ = prebuilt->bytes;
    span_.start_ns = prebuilt->time.start_ns;
    span_.duration_ns = prebuilt->time.duration_ns;
  }
  {
    SpanTimer timer(ctx.tracer(), span_);
    if (prebuilt == nullptr) {
      index_.emplace(build,
                     build_left_ ? spec.left_key_cols : spec.right_key_cols,
                     ctx.arena());
    }
    probe_key_ = ctx.arena().AllocSpan<Value>(std::max(key_width, 1)).data();
    // The index's bytes (a prebuilt one's sit below mark_) and the key's.
    scratch_bytes_ +=
        static_cast<Counter>(ctx.arena().bytes_in_use() - mark_.used);
    // A hash + find per probe row costs far less than the emit work it
    // sizes, and the exact size removes realloc copies and per-emit
    // capacity checks from the emit loop. The call charges its rows now,
    // written or not; one that exhausts the budget keeps none, and one
    // that keeps none is resolved.
    const JoinRows join(*this);
    rows_ = ChargeOutput(CountJoinRows(join), join.out_arity, ctx);
  }
  span_.rows_in = probe_rows_;
  span_.rows_out = rows_;
  span_.arity_in = std::max(left.arity(), right.arity());
  span_.arity_out = out_.arity();
  span_.ht_build_rows = build.size();
  span_.ht_probe_ops = probe_rows_;
  if (rows_ == 0) Close(0);
}

CountedJoin::CountedJoin(const JoinSpec& spec, ExecContext& ctx)
    : ctx_(&ctx), spec_(&spec), out_(Schema(spec.out_attrs)) {}

CountedJoin::CountedJoin(CountedJoin&& other) noexcept {
  *this = std::move(other);
}

CountedJoin& CountedJoin::operator=(CountedJoin&& other) noexcept {
  if (this == &other) return *this;
  Close(0);
  Release();
  ctx_ = other.ctx_;
  spec_ = other.spec_;
  arena_ = std::exchange(other.arena_, nullptr);
  mark_ = other.mark_;
  owned_left_ = std::move(other.owned_left_);
  owned_right_ = std::move(other.owned_right_);
  out_ = std::move(other.out_);
  build_left_ = other.build_left_;
  left_base_ = other.left_base_;
  right_base_ = other.right_base_;
  left_arity_ = other.left_arity_;
  right_arity_ = other.right_arity_;
  probe_rows_ = other.probe_rows_;
  index_ = std::move(other.index_);
  probe_key_ = other.probe_key_;
  rows_ = other.rows_;
  scratch_bytes_ = other.scratch_bytes_;
  span_ = other.span_;
  open_ = std::exchange(other.open_, false);
  return *this;
}

CountedJoin::~CountedJoin() {
  Close(0);
  Release();
}

void CountedJoin::Close(int64_t out_bytes) {
  if (!open_) return;
  open_ = false;
  const Counter footprint = scratch_bytes_ + out_bytes;
  if (TraceSink* sink = ctx_->tracer(); sink != nullptr) {
    span_.bytes = footprint;
    sink->Record(span_);
  }
  ctx_->stats().NotePeakBytes(footprint);
}

void CountedJoin::Release() {
  if (arena_ == nullptr) return;
  arena_->Restore(mark_);
  arena_ = nullptr;
}

Relation CountedJoin::Write() && {
  if (!open_) return std::move(out_);
  {
    // Re-probe and materialize into the output the count sized.
    SpanTimer timer(ctx_->tracer(), span_);
    span_.ht_probe_ops +=
        EmitJoinRows(JoinRows(*this), rows_, out_.GrowRows(rows_));
  }
  Close(out_.byte_size());
  return std::move(out_);
}

CountedJoin::CountedJoin(Relation left, Relation right, const JoinSpec& spec,
                         ExecContext& ctx)
    : CountedJoin(left, right, spec, ctx, nullptr) {
  // Moving a relation keeps its rows where they are.
  owned_left_ = std::move(left);
  owned_right_ = std::move(right);
}

CountedJoin CountJoin(CountedJoin&& left, Relation right,
                      const JoinSpec& spec, ExecContext& ctx) {
  // This join can exhaust the budget only if |P| times the largest group
  // of its index reaches the headroom; |right| bounds that group.
  const auto may_exhaust = [&](int64_t group) {
    return static_cast<Counter>(left.rows()) * group >= ctx.budget_headroom();
  };
  if (!left.streamable() || left.rows() <= right.size() ||
      !may_exhaust(right.size())) {
    // P is this join's build side, or the join cannot exhaust: P is read
    // as it stands, as HashJoin reads its inputs.
    Relation rows = std::move(left).Write();
    left.Release();
    return CountedJoin(std::move(rows), std::move(right), spec, ctx);
  }

  // Build this join's index over `right` (its build side, the smaller
  // input) above P's scratch, timed as this call's work.
  const JoinRows p(left);
  TraceSink* const sink = ctx.tracer();
  CountedJoin::Prebuilt pre{std::nullopt, 0, OpenSpan(TraceOp::kJoin, ctx)};
  {
    const size_t before = ctx.arena().bytes_in_use();
    SpanTimer timer(sink, pre.time);
    pre.index.emplace(right, spec.right_key_cols, ctx.arena());
    pre.bytes = static_cast<Counter>(ctx.arena().bytes_in_use() - before);
  }

  if (may_exhaust(pre.index->max_group())) {
    // Count the output through P's (probe row, build row) pairs, probing
    // P with its own key scratch; the count stops once it reaches the
    // headroom, which decides the call.
    const Counter headroom = ctx.budget_headroom();
    const int key_width = static_cast<int>(spec.left_key_cols.size());
    const PairKey key =
        MakePairKey(p, spec.left_key_cols.data(), key_width, ctx.arena());
    const int out_arity = static_cast<int>(spec.out_attrs.size());
    int64_t total = 0;
    Counter scratch = 0;
    {
      SpanTimer timer(sink, pre.time);
      ArenaScope scope(ctx.arena());
      Value* j_key =
          ctx.arena().AllocSpan<Value>(std::max(key_width, 1)).data();
      scratch = static_cast<Counter>(scope.bytes_allocated());
      int64_t pairs = 0;
      for (int64_t i = 0; i < p.probe_rows && total < headroom; ++i) {
        const Value* row = p.probe_row(i);
        for (const int64_t b : p.Probe(row)) {
          key.Assemble(row, p.build_row(b), j_key);
          total += static_cast<int64_t>(pre.index->Probe(j_key).size());
          ++pairs;
        }
      }
      pre.time.ht_probe_ops = pairs;
    }
    if (static_cast<Counter>(total) >= headroom) {
      // Exhausts, as HashJoin over the written P would: P's call ends with
      // its count, this one charges and notes min(total, headroom) rows,
      // and neither writes anything. Its span is the count through P.
      left.Close(0);
      ctx.stats().num_joins++;
      ChargeOutput(total, out_arity, ctx);
      const Counter footprint = pre.bytes + scratch;
      if (sink != nullptr) {
        pre.time.rows_in = p.rows;
        pre.time.arity_in = std::max(p.out_arity, right.arity());
        pre.time.arity_out = out_arity;
        pre.time.bytes = footprint;
        pre.time.ht_build_rows = right.size();
        sink->Record(pre.time);
      }
      ctx.stats().NotePeakBytes(footprint);
      left.Release();
      return CountedJoin(spec, ctx);
    }
  }

  // It does not exhaust: write P and count over it with the index built
  // above, which sits on P's scratch, so this call takes over P's
  // checkpoint.
  Relation rows = std::move(left).Write();
  CountedJoin join(rows, right, spec, ctx, &pre);
  join.owned_left_ = std::move(rows);
  join.owned_right_ = std::move(right);
  join.arena_ = std::exchange(left.arena_, nullptr);
  join.mark_ = left.mark_;
  return join;
}

Relation HashJoin(const Relation& left, const Relation& right,
                  const JoinSpec& spec, ExecContext& ctx) {
  return CountedJoin(left, right, spec, ctx, nullptr).Write();
}

Relation ProjectColumns(const Relation& input, const ProjectSpec& spec,
                        ExecContext& ctx) {
  return ProjectRows(RelationRows(input, spec), spec, ctx);
}

Relation ProjectColumns(CountedJoin&& input, const ProjectSpec& spec,
                        ExecContext& ctx, KeyedSide keyed) {
  if (!input.streamable()) {
    return ProjectColumns(std::move(input).Write(), spec, ctx);
  }
  // The join's call ends with its count: its span and footprint go on
  // record as they stand, and the projection's span times the probes
  // that stream its rows, which reuse the join's key scratch. The key
  // map sits on the join's scratch and is released with it; the
  // projection's own scratch is released first.
  input.Close(0);
  const JoinRows join(input);
  const PairKey key = MakePairKey(join, spec.cols.data(),
                                  static_cast<int>(spec.cols.size()),
                                  ctx.arena());
  // A Boolean projection keeps at most the empty tuple and reads no row.
  const KeyedSide probe =
      join.build_left ? KeyedSide::kRight : KeyedSide::kLeft;
  Relation out = keyed == probe && !spec.cols.empty()
                     ? ProjectKeyed(join, key, spec, ctx)
                     : ProjectRows(JoinPairRows(join, key), spec, ctx);
  input.Release();
  return out;
}

Relation SemiJoinFiltered(const Relation& left, const Relation& right,
                          const SemiJoinSpec& spec, ExecContext& ctx) {
  ctx.stats().num_semijoins++;
  Relation out{left.schema()};
  if (left.empty()) return out;
  const bool no_common = spec.left_key_cols.empty();
  if (no_common && right.empty()) {
    // No shared attributes: semijoin keeps everything iff right is nonempty.
    return out;
  }
  if (left.arity() == 0) {
    // Nullary left (so no shared attributes) against a nonempty right:
    // the empty tuple survives.
    EmitNullary(TraceOp::kSemiJoin, out, ctx);
    return out;
  }

  const int left_arity = left.arity();
  const int64_t left_rows = left.size();
  const Value* left_base = left.data();
  const int* left_key = spec.left_key_cols.data();
  const int key_width = static_cast<int>(spec.left_key_cols.size());
  SpanRecorder rec(ctx.tracer(), TraceOp::kSemiJoin, ctx.trace_node());

  // Key filter over the right side, then one pass that probes each left
  // key in place and copies the survivors, as a tuple-at-a-time loop
  // would, into an output sized for the rows the budget still allows; a
  // pass that exhausts the budget keeps none of them.
  ArenaScope scope(ctx.arena());
  Value* right_keys =
      ctx.arena().AllocSpan<Value>(right.size() * key_width).data();
  FlatKeyIndex keys(right.size(), key_width, right_keys, ctx.arena());
  const int right_arity = right.arity();
  const Value* right_base = right.data();
  const int* right_key = spec.right_key_cols.data();
  for (int64_t r = 0; r < right.size(); ++r) {
    const Value* row = right_base + r * right_arity;
    Value* key = keys.next_key();
    for (int c = 0; c < key_width; ++c) key[c] = row[right_key[c]];
    keys.InsertNext();
  }

  Value* key = ctx.arena().AllocSpan<Value>(std::max(key_width, 1)).data();
  const int64_t cap = ClampToHeadroom(left_rows, ctx);
  Value* cursor = out.GrowRows(cap);
  int64_t kept = 0;
  int64_t i = 0;
  while (i < left_rows && kept < cap) {
    const Value* row = left_base + i * left_arity;
    ++i;
    if (!no_common) {
      for (int c = 0; c < key_width; ++c) key[c] = row[left_key[c]];
      if (keys.Find(key) < 0) continue;
    }
    std::copy(row, row + left_arity, cursor + kept * left_arity);
    ++kept;
  }
  out.TruncateRows(ChargeOutput(kept, left_arity, ctx));
  const Counter footprint =
      static_cast<Counter>(scope.bytes_allocated()) + out.byte_size();
  if (rec.enabled()) {
    rec.span().rows_in = left_rows;
    rec.span().rows_out = out.size();
    rec.span().arity_in = std::max(left_arity, right_arity);
    rec.span().arity_out = left_arity;
    rec.span().bytes = footprint;
    rec.span().ht_build_rows = right.size();
    rec.span().ht_probe_ops = no_common ? 0 : i;
  }
  ctx.stats().NotePeakBytes(footprint);
  return out;
}

}  // namespace ppr
