#include "relational/batch_ops.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"
#include "relational/flat_hash.h"

namespace ppr {

int64_t MorselExec::MorselRows(int64_t rows) const {
  return morsel_rows > 0 ? morsel_rows : std::max<int64_t>(rows, 1);
}

int64_t MorselExec::NumMorsels(int64_t rows) const {
  if (rows <= 0) return 0;
  const int64_t mr = MorselRows(rows);
  return (rows + mr - 1) / mr;
}

void MorselExec::ForEachMorselParallel(
    int64_t count, const std::function<void(int64_t, int)>& body) const {
  if (count <= 0) return;
  // Concurrent morsels sharing the context arena would race; a driver
  // that installs a parallel_for must bring per-worker arenas along.
  PPR_CHECK(num_workers >= 1 &&
            worker_arenas.size() >= static_cast<size_t>(num_workers));
  parallel_for(count, body);
}

namespace batch_internal {

MorselSpans::MorselSpans(TraceSink* sink, TraceOp op, int32_t node_id,
                         int64_t num_morsels)
    : sink_(sink) {
  if (sink_ == nullptr) return;
  spans_.resize(static_cast<size_t>(num_morsels));
  for (int64_t m = 0; m < num_morsels; ++m) {
    TraceSpan& span = spans_[static_cast<size_t>(m)];
    span.op = op;
    span.node_id = node_id;
    span.start_ns = -1;
    span.morsel_id = static_cast<int32_t>(m);
  }
}

void MorselSpans::AddTimeOf(const MorselSpans& other) {
  if (!enabled() || spans_.empty()) return;
  for (size_t k = 0; k < other.spans_.size(); ++k) {
    const TraceSpan& from = other.spans_[k];
    if (from.start_ns < 0) continue;
    TraceSpan& to = spans_[std::min(k, spans_.size() - 1)];
    if (to.start_ns < 0 || from.start_ns < to.start_ns) {
      to.start_ns = from.start_ns;
    }
    to.duration_ns += from.duration_ns;
  }
}

void MorselSpans::RecordInOrder() {
  for (const TraceSpan& span : spans_) sink_->Record(span);
}

}  // namespace batch_internal

namespace {

using batch_internal::MorselSlots;
using batch_internal::MorselSpans;

struct MorselRange {
  int64_t begin;
  int64_t end;
};

MorselRange RangeOf(int64_t m, int64_t morsel_rows, int64_t total) {
  const int64_t begin = m * morsel_rows;
  return {begin, std::min(begin + morsel_rows, total)};
}

ExecArena& WorkerArena(const MorselExec& mx, ExecContext& ctx, int w) {
  if (mx.worker_arenas.empty()) return ctx.arena();
  return *mx.worker_arenas[static_cast<size_t>(w)];
}

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

// Turns per-morsel output counts, stored at offsets[m + 1] by phase A,
// into prefix sums (morsel m's output starts at offsets[m]) and charges
// their total (ChargeOutput). A call that exhausts the budget keeps no
// rows: its offsets become all zero, so no morsel emits anything.
// Returns the output rows.
int64_t PrefixSumsCharged(MorselSlots& offsets, int arity, ExecContext& ctx) {
  const int64_t last = offsets.size() - 1;
  for (int64_t m = 1; m <= last; ++m) offsets[m] += offsets[m - 1];
  const int64_t rows = ChargeOutput(offsets[last], arity, ctx);
  if (rows == 0) {
    for (int64_t m = 0; m <= last; ++m) offsets[m] = 0;
  }
  return rows;
}

// Whether a stored row satisfies the scan's repeated-attribute checks.
bool PassesChecks(const Value* row, const ScanSpec& spec) {
  for (const auto& [col, first] : spec.equal_checks) {
    if (row[col] != row[first]) return false;
  }
  return true;
}

// Records in `sel` the offsets (from `begin`) of the stored rows among
// [begin, end) that pass the scan's checks; returns how many there are.
int64_t SelectScanRows(const Value* base, int in_arity, const ScanSpec& spec,
                       int64_t begin, int64_t end, int32_t* sel) {
  int64_t kept = 0;
  for (int64_t i = begin; i < end; ++i) {
    if (PassesChecks(base + i * in_arity, spec)) {
      sel[kept++] = static_cast<int32_t>(i - begin);
    }
  }
  return kept;
}

// Writes `quota` stored rows, bound to the output columns, to `cursor`:
// the rows at offsets sel[0, quota) from row `begin`, or with no
// selection (an atom without repeated attributes) rows [begin,
// begin + quota) as a pure column gather, one strided loop per column.
void EmitScanRows(const Value* base, int in_arity, const ScanSpec& spec,
                  int64_t begin, const int32_t* sel, int64_t quota,
                  Value* cursor) {
  const int out_arity = spec.out_schema.arity();
  const int* source = spec.source_cols.data();
  if (sel == nullptr) {
    for (int c = 0; c < out_arity; ++c) {
      const Value* src = base + begin * in_arity + source[c];
      Value* dst = cursor + c;
      for (int64_t i = 0; i < quota; ++i) {
        dst[i * out_arity] = src[i * in_arity];
      }
    }
    return;
  }
  for (int64_t j = 0; j < quota; ++j) {
    const Value* row = base + (begin + sel[j]) * in_arity;
    for (int c = 0; c < out_arity; ++c) cursor[c] = row[source[c]];
    cursor += out_arity;
  }
}

// Nullary outputs hold at most the empty tuple: emits it unless that
// exhausts the budget (ChargeOutput), recording the call as one morsel.
void EmitNullary(TraceOp op, Relation& out, ExecContext& ctx) {
  SpanRecorder rec(ctx.tracer(), op, ctx.trace_node());
  if (ChargeOutput(1, 0, ctx) > 0) out.AddTuple(std::span<const Value>{});
  if (rec.enabled()) {
    rec.span().rows_in = 1;
    rec.span().rows_out = out.size();
    rec.span().morsel_id = 0;
  }
}

}  // namespace

// The column layout of one counted hash join, shared read-only by its
// morsels: the build-side index, the probe side (the larger input), and
// where each output column comes from.
class JoinRows {
 public:
  explicit JoinRows(const CountedJoin& j)
      : index(*j.index_),
        build_left(j.build_left_),
        probe_base(j.build_left_ ? j.right_base_ : j.left_base_),
        probe_arity(j.build_left_ ? j.right_arity_ : j.left_arity_),
        probe_key(j.build_left_ ? j.spec_->right_key_cols.data()
                                : j.spec_->left_key_cols.data()),
        key_width(static_cast<int>(j.spec_->left_key_cols.size())),
        build_base(j.build_left_ ? j.left_base_ : j.right_base_),
        build_arity(j.build_left_ ? j.left_arity_ : j.right_arity_),
        left_arity(j.left_arity_),
        carry(j.spec_->right_carry_cols.data()),
        num_carry(static_cast<int>(j.spec_->right_carry_cols.size())),
        out_arity(j.spec_->out_schema.arity()) {}

  const Value* probe_row(int64_t i) const {
    return probe_base + i * probe_arity;
  }
  const Value* build_row(int64_t b) const {
    return build_base + b * build_arity;
  }

  // The id of the key group matching `row` of the probe side, or -1, its
  // key assembled in place in `key` (key_width values of scratch) — no
  // gathered or packed copy of the probe keys.
  int64_t FindGroup(const Value* row, Value* key) const {
    for (int c = 0; c < key_width; ++c) key[c] = row[probe_key[c]];
    return index.FindGroup(key);
  }

  // The build rows matching `row` of the probe side (FindGroup).
  std::span<const int64_t> Probe(const Value* row, Value* key) const {
    const int64_t g = FindGroup(row, key);
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
  const int* probe_key;
  int key_width;
  const Value* build_base;
  int build_arity;
  int left_arity;
  const int* carry;
  int num_carry;
  int out_arity;
};

namespace {

// Output rows of probe rows [begin, end).
int64_t CountJoinRows(const JoinRows& j, int64_t begin, int64_t end,
                      Value* key) {
  int64_t total = 0;
  for (int64_t i = begin; i < end; ++i) {
    total += static_cast<int64_t>(j.Probe(j.probe_row(i), key).size());
  }
  return total;
}

// Writes the first `quota` output rows of probe rows [begin, end) to
// `cursor`, in probe-row then build-row order, and returns the number of
// probe rows probed. The caller sized `quota` from CountJoinRows.
int64_t EmitJoinRows(const JoinRows& j, int64_t begin, int64_t end,
                     int64_t quota, Value* key, Value* cursor) {
  const int left_arity = j.left_arity;
  const int out_arity = j.out_arity;
  const int num_carry = j.num_carry;
  const int* carry = j.carry;
  int64_t emitted = 0;
  int64_t i = begin;
  for (; i < end && emitted < quota; ++i) {
    const Value* probe_row = j.probe_row(i);
    const std::span<const int64_t> matches = j.Probe(probe_row, key);
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
  return i - begin;
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

// Inserts into `seen` the keys of rows [0, rows) of a row-major store
// (`stride` values per row; the key is columns `cols`), in row order,
// until `seen` holds `cap` keys. Each key is assembled at
// seen.next_key(), so a new key is written once, in place in seen's key
// store. Returns the rows probed. Serves the one-morsel projection, the
// morsel-local indexes and their merge alike.
int64_t InsertDistinct(const Value* base, int stride, const int* cols,
                       int64_t rows, int64_t cap, FlatKeyIndex& seen) {
  const int key_width = seen.key_width();
  int64_t i = 0;
  while (i < rows && seen.num_keys() < cap) {
    const Value* row = base + i * stride;
    ++i;
    Value* key = seen.next_key();
    for (int c = 0; c < key_width; ++c) key[c] = row[cols[c]];
    seen.InsertNext();
  }
  return i;
}

// The rows a projection deduplicates, in morsels: a written relation's
// rows, partitioned by the projection's MorselExec.
class RelationRows {
 public:
  RelationRows(const Relation& input, const ProjectSpec& spec,
               const MorselExec& mx)
      : base_(input.data()),
        arity_(input.arity()),
        rows_(input.size()),
        cols_(spec.cols.data()),
        morsel_rows_(mx.MorselRows(rows_)),
        num_morsels_(mx.NumMorsels(rows_)) {}

  int64_t rows() const { return rows_; }
  int arity() const { return arity_; }
  int64_t num_morsels() const { return num_morsels_; }
  int64_t morsel_input(int64_t m) const {
    const auto [begin, end] = RangeOf(m, morsel_rows_, rows_);
    return end - begin;
  }
  // Values of per-morsel scratch Insert needs.
  int scratch_width() const { return 0; }

  // Inserts the keys of morsel m's rows into `seen`, in row order, until
  // it holds `cap` keys; returns the lookups made.
  int64_t Insert(int64_t m, int64_t cap, FlatKeyIndex& seen,
                 Value* /*scratch*/) const {
    const auto [begin, end] = RangeOf(m, morsel_rows_, rows_);
    return InsertDistinct(base_ + begin * arity_, arity_, cols_, end - begin,
                          cap, seen);
  }

 private:
  const Value* base_;
  int arity_;
  int64_t rows_;
  const int* cols_;
  int64_t morsel_rows_;
  int64_t num_morsels_;
};

// A counted join's unwritten rows, in the morsels of its probe side:
// each morsel probes again and assembles the projected key of every
// match, in the order the join would have written the rows.
class JoinPairRows {
 public:
  JoinPairRows(const JoinRows& join, const PairKey& key,
               const MorselSlots& offsets, int64_t probe_rows,
               int64_t morsel_rows)
      : join_(join),
        key_(key),
        offsets_(offsets),
        probe_rows_(probe_rows),
        morsel_rows_(morsel_rows) {}

  int64_t rows() const { return offsets_[num_morsels()]; }
  int arity() const { return join_.out_arity; }
  int64_t num_morsels() const { return offsets_.size() - 1; }
  int64_t morsel_input(int64_t m) const {
    return offsets_[m + 1] - offsets_[m];
  }
  int scratch_width() const { return std::max(join_.key_width, 1); }

  // As RelationRows::Insert; `scratch` holds the join's probe key.
  int64_t Insert(int64_t m, int64_t cap, FlatKeyIndex& seen,
                 Value* scratch) const {
    const auto [begin, end] = RangeOf(m, morsel_rows_, probe_rows_);
    int64_t lookups = 0;
    for (int64_t i = begin; i < end && seen.num_keys() < cap; ++i) {
      const Value* probe_row = join_.probe_row(i);
      ++lookups;
      for (const int64_t b : join_.Probe(probe_row, scratch)) {
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
  const MorselSlots& offsets_;
  int64_t probe_rows_;
  int64_t morsel_rows_;
};

// The projection kernel over either row source: one index whose key
// store is the output for a one-morsel input, morsel-local indexes
// merged in morsel-index order otherwise.
template <typename Rows>
Relation ProjectRows(const Rows& input, const ProjectSpec& spec,
                     ExecContext& ctx, const MorselExec& mx) {
  ctx.stats().num_projections++;
  Relation out{spec.out_schema};
  if (spec.cols.empty()) {
    // Boolean projection: nonempty input -> the single empty tuple.
    SpanRecorder rec(ctx.tracer(), TraceOp::kProject, ctx.trace_node());
    if (rec.enabled()) {
      rec.span().rows_in = input.rows();
      rec.span().arity_in = input.arity();
      rec.span().arity_out = 0;
      rec.span().morsel_id = 0;
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

  const int key_width = static_cast<int>(spec.cols.size());
  const int in_arity = input.arity();
  const int64_t in_rows = input.rows();
  const int64_t num_morsels = input.num_morsels();

  // Projection cannot know its output size before it deduplicates, so
  // it sizes its output for the rows the budget still allows, inserts
  // each distinct key straight into that output (the index's key store),
  // and truncates to the keys it found. A run that exhausts the budget
  // keeps its first-occurrence prefix.
  //
  // Single-morsel path (every serial call): one morsel means the
  // morsel-local index IS the global dedup — the merge pass would
  // re-hash every distinct key into a second index just to recover an
  // order it already has.
  if (num_morsels == 1) {
    Value* scratch =
        ctx.arena().AllocSpan<Value>(input.scratch_width()).data();
    ArenaScope scope(ctx.arena());
    SpanRecorder mrec(ctx.tracer(), TraceOp::kProject, ctx.trace_node());
    const int64_t cap = ClampToHeadroom(in_rows, ctx);
    FlatKeyIndex seen(cap, key_width, out.GrowRows(cap), ctx.arena());
    const int64_t probed = input.Insert(0, cap, seen, scratch);
    out.TruncateRows(seen.num_keys());
    if (!out.empty()) ctx.ChargeTuples(out.size());
    const Counter footprint =
        static_cast<Counter>(scope.bytes_allocated()) + out.byte_size();
    if (mrec.enabled()) {
      mrec.span().rows_in = in_rows;
      mrec.span().rows_out = out.size();
      mrec.span().arity_in = in_arity;
      mrec.span().arity_out = key_width;
      mrec.span().bytes = footprint;
      mrec.span().ht_build_rows = out.size();
      mrec.span().ht_probe_ops = probed;
      mrec.span().morsel_id = 0;
    }
    ctx.stats().NotePeakBytes(footprint);
    ctx.stats().NoteIntermediate(out.arity(), out.size());
    return out;
  }

  // Phase A: morsel-local dedup. Each morsel builds its own FlatKeyIndex,
  // slots and key store, in its worker slot's arena. The index must
  // outlive the phase for the merge to read its packed keys, so one scope
  // per worker arena, opened here on the calling thread, keeps every
  // local index until the call returns. A morsel's scratch is the bytes
  // it allocated, whichever slot ran it, so peak_bytes does not depend on
  // the worker count.
  std::vector<std::optional<ArenaScope>> local_scopes(
      std::max<size_t>(mx.worker_arenas.size(), 1));
  for (size_t w = 0; w < local_scopes.size(); ++w) {
    local_scopes[w].emplace(WorkerArena(mx, ctx, static_cast<int>(w)));
  }
  std::vector<std::optional<FlatKeyIndex>> locals(
      static_cast<size_t>(num_morsels));
  MorselSlots scratch(num_morsels);
  MorselSpans spans(ctx.tracer(), TraceOp::kProject, ctx.trace_node(),
                    num_morsels);
  mx.ForEachMorsel(num_morsels, [&](int64_t m, int w) {
    MorselSpans::Timer timer(spans, m);
    const int64_t n = input.morsel_input(m);
    ExecArena& arena = WorkerArena(mx, ctx, w);
    const size_t before = arena.bytes_in_use();
    FlatKeyIndex& local = locals[static_cast<size_t>(m)].emplace(
        n, key_width, arena.AllocSpan<Value>(n * key_width).data(), arena);
    const int64_t lookups = input.Insert(
        m, n, local, arena.AllocSpan<Value>(input.scratch_width()).data());
    scratch[m] = static_cast<int64_t>(arena.bytes_in_use() - before);
    if (spans.enabled()) {
      TraceSpan& span = spans.span(m);
      span.rows_in = n;
      span.arity_in = in_arity;
      span.arity_out = key_width;
      span.ht_build_rows = local.num_keys();
      span.ht_probe_ops = lookups;
      span.bytes = scratch[m];
    }
  });

  int64_t sum_local = 0;
  for (const auto& local : locals) sum_local += local->num_keys();

  // Merge in morsel-index order: concatenating the morsel-local
  // first-occurrence orders and deduplicating sequentially reproduces
  // the global first-occurrence order exactly. Each morsel's merge is
  // part of its span: its rows_out is the rows it adds to the output.
  ArenaScope merge_scope(ctx.arena());
  const int64_t cap = ClampToHeadroom(sum_local, ctx);
  FlatKeyIndex seen(cap, key_width, out.GrowRows(cap), ctx.arena());
  int* packed_cols = ctx.arena().AllocSpan<int>(key_width).data();
  for (int c = 0; c < key_width; ++c) packed_cols[c] = c;
  for (int64_t m = 0; m < num_morsels && seen.num_keys() < cap; ++m) {
    MorselSpans::Timer timer(spans, m);
    const FlatKeyIndex& local = *locals[static_cast<size_t>(m)];
    const int64_t before = seen.num_keys();
    const int64_t probed = InsertDistinct(local.key_data(), key_width,
                                          packed_cols, local.num_keys(), cap,
                                          seen);
    const int64_t added = seen.num_keys() - before;
    if (spans.enabled()) {
      TraceSpan& span = spans.span(m);
      span.rows_out = added;
      span.ht_build_rows += added;
      span.ht_probe_ops += probed;
      span.bytes += added * key_width * static_cast<int64_t>(sizeof(Value));
    }
  }
  out.TruncateRows(seen.num_keys());
  if (!out.empty()) ctx.ChargeTuples(out.size());

  const Counter shared = static_cast<Counter>(merge_scope.bytes_allocated());
  if (spans.enabled()) spans.span(0).bytes += shared;
  spans.RecordInOrder();
  Counter footprint = shared + out.byte_size();
  for (int64_t m = 0; m < num_morsels; ++m) footprint += scratch[m];
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
// would first meet them. Phase A counts each probe morsel's keys; phase
// B writes the first min(distinct, headroom) into exact disjoint ranges,
// with no index over the output and no merge. `join_offsets` are the
// join's per-morsel output ranges over its probe morsels.
Relation ProjectKeyed(const JoinRows& j, const PairKey& key,
                      const MorselSlots& join_offsets, int64_t probe_rows,
                      int64_t morsel_rows, const ProjectSpec& spec,
                      ExecContext& ctx, const MorselExec& mx) {
  ctx.stats().num_projections++;
  Relation out{spec.out_schema};
  const int key_width = out.arity();
  const int64_t num_morsels = join_offsets.size() - 1;
  MorselSpans spans(ctx.tracer(), TraceOp::kProject, ctx.trace_node(),
                    num_morsels);

  // Shared pass on the calling thread, timed into morsel 0's span.
  ArenaScope shared_scope(ctx.arena());
  GroupRepresentatives reps;
  {
    MorselSpans::Timer timer(spans, 0);
    reps = Representatives(j, key, ctx.arena());
  }

  // Phase A: the keys of each probe morsel's rows.
  MorselSlots offsets(num_morsels + 1);
  MorselSlots scratch(num_morsels);
  mx.ForEachMorsel(num_morsels, [&](int64_t m, int w) {
    MorselSpans::Timer timer(spans, m);
    const auto [begin, end] = RangeOf(m, morsel_rows, probe_rows);
    ExecArena& warena = WorkerArena(mx, ctx, w);
    ArenaScope scope(warena);
    Value* probe_key =
        warena.AllocSpan<Value>(std::max(j.key_width, 1)).data();
    int64_t keys = 0;
    for (int64_t i = begin; i < end; ++i) {
      const int64_t g = j.FindGroup(j.probe_row(i), probe_key);
      if (g >= 0) keys += reps.count(g);
    }
    offsets[m + 1] = keys;
    scratch[m] = static_cast<int64_t>(scope.bytes_allocated());
    if (spans.enabled()) {
      TraceSpan& span = spans.span(m);
      span.rows_in = join_offsets[m + 1] - join_offsets[m];
      span.arity_in = j.out_arity;
      span.arity_out = key_width;
      span.bytes = scratch[m];
      span.ht_probe_ops = end - begin;
    }
  });
  for (int64_t m = 1; m <= num_morsels; ++m) offsets[m] += offsets[m - 1];

  // Phase B: each morsel writes its share of the kept prefix.
  const int64_t kept = ClampToHeadroom(offsets[num_morsels], ctx);
  Value* out_base = out.GrowRows(kept);
  mx.ForEachMorsel(num_morsels, [&](int64_t m, int w) {
    const int64_t first = std::min(offsets[m], kept);
    const int64_t quota = std::min(offsets[m + 1], kept) - first;
    if (quota == 0) return;
    MorselSpans::Timer timer(spans, m);
    const auto [begin, end] = RangeOf(m, morsel_rows, probe_rows);
    ExecArena& warena = WorkerArena(mx, ctx, w);
    ArenaScope scope(warena);
    Value* probe_key =
        warena.AllocSpan<Value>(std::max(j.key_width, 1)).data();
    Value* cursor = out_base + first * key_width;
    int64_t written = 0;
    int64_t i = begin;
    for (; i < end && written < quota; ++i) {
      const Value* row = j.probe_row(i);
      const int64_t g = j.FindGroup(row, probe_key);
      if (g < 0) continue;
      // A group has a representative at least; the keys after its first
      // share their probe columns with the key before them.
      const int64_t n = std::min(reps.count(g), quota - written);
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
    if (spans.enabled()) {
      TraceSpan& span = spans.span(m);
      span.rows_out = quota;
      span.bytes += quota * key_width * static_cast<int64_t>(sizeof(Value));
      span.ht_probe_ops += i - begin;
    }
  });
  if (kept > 0) ctx.ChargeTuples(kept);

  const Counter shared = static_cast<Counter>(shared_scope.bytes_allocated());
  if (spans.enabled()) {
    spans.span(0).ht_build_rows = static_cast<int64_t>(reps.rows.size());
    spans.span(0).ht_probe_ops += j.index.num_rows();
    spans.span(0).bytes += shared;
  }
  spans.RecordInOrder();
  Counter footprint = shared + out.byte_size();
  for (int64_t m = 0; m < num_morsels; ++m) footprint += scratch[m];
  ctx.stats().NotePeakBytes(footprint);
  ctx.stats().NoteIntermediate(key_width, kept);
  return out;
}

}  // namespace

Relation ScanAtom(const Relation& stored, const ScanSpec& spec,
                  ExecContext& ctx, const MorselExec& mx) {
  Relation out{spec.out_schema};
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

  const int64_t morsel_rows = mx.MorselRows(in_rows);
  const int64_t num_morsels = mx.NumMorsels(in_rows);
  MorselSpans spans(ctx.tracer(), TraceOp::kScan, ctx.trace_node(),
                    num_morsels);

  // Phase A: exact per-morsel surviving-row counts. An atom with
  // repeated attributes checks each row once here and records the
  // survivors' offsets within their morsel in a selection array allocated
  // on the calling thread (morsel m owns the entries of its own input
  // range), which phase B copies from.
  ArenaScope shared_scope(ctx.arena());
  int32_t* sel = nullptr;
  if (!spec.equal_checks.empty()) {
    PPR_CHECK(morsel_rows <= std::numeric_limits<int32_t>::max());
    sel = ctx.arena().AllocSpan<int32_t>(in_rows).data();
  }
  MorselSlots offsets(num_morsels + 1);
  mx.ForEachMorsel(num_morsels, [&](int64_t m, int /*w*/) {
    MorselSpans::Timer timer(spans, m);
    const auto [begin, end] = RangeOf(m, morsel_rows, in_rows);
    offsets[m + 1] =
        sel == nullptr
            ? end - begin
            : SelectScanRows(base, in_arity, spec, begin, end, sel + begin);
    if (spans.enabled()) {
      TraceSpan& span = spans.span(m);
      span.rows_in = end - begin;
      span.arity_in = in_arity;
      span.arity_out = out_arity;
    }
  });

  // Phase B: copy the morsel's survivors, in row order, into its slice of
  // the output. A call that exhausts the budget skips it.
  if (PrefixSumsCharged(offsets, out_arity, ctx) > 0) {
    Value* out_base = out.GrowRows(offsets[num_morsels]);
    mx.ForEachMorsel(num_morsels, [&](int64_t m, int /*w*/) {
      MorselSpans::Timer timer(spans, m);
      const int64_t begin = RangeOf(m, morsel_rows, in_rows).begin;
      const int64_t kept = offsets[m + 1] - offsets[m];
      EmitScanRows(base, in_arity, spec, begin,
                   sel == nullptr ? nullptr : sel + begin, kept,
                   out_base + offsets[m] * out_arity);
      if (spans.enabled()) {
        TraceSpan& span = spans.span(m);
        span.rows_out = kept;
        span.bytes = kept * out_arity * static_cast<int64_t>(sizeof(Value));
      }
    });
  }

  const Counter shared = static_cast<Counter>(shared_scope.bytes_allocated());
  if (spans.enabled()) spans.span(0).bytes += shared;
  spans.RecordInOrder();
  ctx.stats().NotePeakBytes(shared + out.byte_size());
  return out;
}

struct CountedJoin::Prebuilt {
  std::optional<JoinIndex> index;
  // Scratch bytes of the index.
  Counter bytes = 0;
  // The call's work so far, in the morsels of the counted join's probe
  // side: the build (morsel 0) and any counting through that join.
  MorselSpans time;
};

CountedJoin::CountedJoin(const Relation& left, const Relation& right,
                         const JoinSpec& spec, ExecContext& ctx,
                         const MorselExec& mx, const Prebuilt* prebuilt)
    : ctx_(&ctx),
      mx_(&mx),
      spec_(&spec),
      arena_(prebuilt == nullptr ? &ctx.arena() : nullptr),
      mark_(ctx.arena().Save()),
      out_(spec.out_schema),
      build_left_(left.size() <= right.size()),
      left_base_(left.data()),
      right_base_(right.data()),
      left_arity_(left.arity()),
      right_arity_(right.arity()),
      probe_rows_(build_left_ ? right.size() : left.size()),
      morsel_rows_(mx.MorselRows(probe_rows_)),
      num_morsels_(left.empty() || right.empty() || out_.arity() == 0
                       ? 0
                       : mx.NumMorsels(probe_rows_)),
      offsets_(num_morsels_ + 1),
      scratch_(num_morsels_),
      spans_(ctx.tracer(), TraceOp::kJoin, ctx.trace_node(), num_morsels_) {
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

  // Shared build phase on the calling thread, timed into morsel 0's
  // span; the index is read-only once constructed, so morsel workers
  // probe it without locks.
  if (prebuilt != nullptr) {
    PPR_DCHECK(!build_left_);
    index_.emplace(*prebuilt->index);
    shared_bytes_ = prebuilt->bytes;
    spans_.AddTimeOf(prebuilt->time);
  } else {
    MorselSpans::Timer timer(spans_, 0);
    index_.emplace(build,
                   build_left_ ? spec.left_key_cols : spec.right_key_cols,
                   ctx.arena());
    shared_bytes_ =
        static_cast<Counter>(ctx.arena().bytes_in_use() - mark_.used);
  }
  const JoinRows join(*this);
  const int key_width = join.key_width;
  const int32_t arity_in = std::max(left.arity(), right.arity());

  // Phase A: counting probe per morsel. A hash + find per probe row costs
  // far less than the emit work it sizes, and the exact sizes remove
  // realloc copies and per-emit capacity checks from the emit loop.
  mx.ForEachMorsel(num_morsels_, [&](int64_t m, int w) {
    MorselSpans::Timer timer(spans_, m);
    const auto [begin, end] = RangeOf(m, morsel_rows_, probe_rows_);
    ExecArena& warena = WorkerArena(mx, ctx, w);
    ArenaScope scope(warena);
    Value* key = warena.AllocSpan<Value>(std::max(key_width, 1)).data();
    offsets_[m + 1] = CountJoinRows(join, begin, end, key);
    scratch_[m] = static_cast<int64_t>(scope.bytes_allocated());
    if (spans_.enabled()) {
      TraceSpan& span = spans_.span(m);
      span.rows_in = end - begin;
      span.arity_in = arity_in;
      span.arity_out = join.out_arity;
      span.bytes = scratch_[m];
      span.ht_probe_ops = end - begin;
    }
  });

  // The call charges its rows now, written or not; each morsel's span
  // reports the rows it produced. A call that exhausts the budget keeps
  // none, and one that keeps none is resolved.
  rows_ = PrefixSumsCharged(offsets_, join.out_arity, ctx);
  if (spans_.enabled()) {
    for (int64_t m = 0; m < num_morsels_; ++m) {
      spans_.span(m).rows_out = offsets_[m + 1] - offsets_[m];
    }
    spans_.span(0).ht_build_rows = build.size();
    spans_.span(0).bytes += shared_bytes_;
  }
  if (rows_ == 0) Close(0);
}

CountedJoin::CountedJoin(const JoinSpec& spec, ExecContext& ctx,
                         const MorselExec& mx)
    : ctx_(&ctx),
      mx_(&mx),
      spec_(&spec),
      out_(spec.out_schema),
      offsets_(1),
      scratch_(0),
      spans_(nullptr, TraceOp::kJoin, -1, 0) {}

CountedJoin::CountedJoin(CountedJoin&& other) noexcept
    : offsets_(0), scratch_(0), spans_(nullptr, TraceOp::kJoin, -1, 0) {
  *this = std::move(other);
}

CountedJoin& CountedJoin::operator=(CountedJoin&& other) noexcept {
  if (this == &other) return *this;
  Close(0);
  Release();
  ctx_ = other.ctx_;
  mx_ = other.mx_;
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
  rows_ = other.rows_;
  morsel_rows_ = other.morsel_rows_;
  num_morsels_ = other.num_morsels_;
  offsets_ = std::move(other.offsets_);
  scratch_ = std::move(other.scratch_);
  spans_ = std::move(other.spans_);
  shared_bytes_ = other.shared_bytes_;
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
  spans_.RecordInOrder();
  Counter footprint = shared_bytes_ + out_bytes;
  for (int64_t m = 0; m < num_morsels_; ++m) footprint += scratch_[m];
  ctx_->stats().NotePeakBytes(footprint);
}

void CountedJoin::Release() {
  if (arena_ == nullptr) return;
  arena_->Restore(mark_);
  arena_ = nullptr;
}

Relation CountedJoin::Write() && {
  if (!open_) return std::move(out_);
  // Phase B: re-probe and materialize into the morsel's disjoint range.
  // Emit order within a morsel is probe-row order then build-row order,
  // so the concatenation does not depend on the partition.
  ExecContext& ctx = *ctx_;
  const MorselExec& mx = *mx_;
  const JoinRows join(*this);
  Value* out_base = out_.GrowRows(rows_);
  mx.ForEachMorsel(num_morsels_, [&](int64_t m, int w) {
    MorselSpans::Timer timer(spans_, m);
    const int64_t quota = offsets_[m + 1] - offsets_[m];
    if (quota == 0) return;
    const auto [begin, end] = RangeOf(m, morsel_rows_, probe_rows_);
    ExecArena& warena = WorkerArena(mx, ctx, w);
    ArenaScope scope(warena);
    Value* key = warena.AllocSpan<Value>(std::max(join.key_width, 1)).data();
    const int64_t probes =
        EmitJoinRows(join, begin, end, quota, key,
                     out_base + offsets_[m] * join.out_arity);
    if (spans_.enabled()) {
      TraceSpan& span = spans_.span(m);
      span.bytes +=
          quota * join.out_arity * static_cast<int64_t>(sizeof(Value));
      span.ht_probe_ops += probes;
    }
  });
  Close(out_.byte_size());
  return std::move(out_);
}

CountedJoin::CountedJoin(Relation left, Relation right, const JoinSpec& spec,
                         ExecContext& ctx, const MorselExec& mx)
    : CountedJoin(left, right, spec, ctx, mx, nullptr) {
  // Moving a relation keeps its rows where they are.
  owned_left_ = std::move(left);
  owned_right_ = std::move(right);
}

CountedJoin CountJoin(CountedJoin&& left, Relation right,
                      const JoinSpec& spec, ExecContext& ctx,
                      const MorselExec& mx) {
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
    return CountedJoin(std::move(rows), std::move(right), spec, ctx, mx);
  }

  // Build this join's index over `right` (its build side, the smaller
  // input) above P's scratch, timed as this call's work.
  const JoinRows p(left);
  const int64_t p_morsels = left.num_morsels_;
  CountedJoin::Prebuilt pre{
      std::nullopt, 0,
      MorselSpans(ctx.tracer(), TraceOp::kJoin, ctx.trace_node(), p_morsels)};
  {
    const size_t before = ctx.arena().bytes_in_use();
    MorselSpans::Timer timer(pre.time, 0);
    pre.index.emplace(right, spec.right_key_cols, ctx.arena());
    pre.bytes = static_cast<Counter>(ctx.arena().bytes_in_use() - before);
  }

  if (may_exhaust(pre.index->max_group())) {
    // Count the output through P's (probe row, build row) pairs, per
    // morsel of P's probe side; a morsel stops once its count alone
    // reaches the headroom, which decides the call.
    const Counter headroom = ctx.budget_headroom();
    const int key_width = static_cast<int>(spec.left_key_cols.size());
    const PairKey key =
        MakePairKey(p, spec.left_key_cols.data(), key_width, ctx.arena());
    const int32_t arity_in = std::max(p.out_arity, right.arity());
    const int out_arity = spec.out_schema.arity();
    MorselSlots counts(p_morsels);
    MorselSlots scratch(p_morsels);
    mx.ForEachMorsel(p_morsels, [&](int64_t m, int w) {
      MorselSpans::Timer timer(pre.time, m);
      const auto [begin, end] =
          RangeOf(m, left.morsel_rows_, left.probe_rows_);
      ExecArena& warena = WorkerArena(mx, ctx, w);
      ArenaScope scope(warena);
      Value* p_key = warena.AllocSpan<Value>(std::max(p.key_width, 1)).data();
      Value* j_key = warena.AllocSpan<Value>(std::max(key_width, 1)).data();
      int64_t total = 0;
      int64_t pairs = 0;
      for (int64_t i = begin; i < end && total < headroom; ++i) {
        const Value* row = p.probe_row(i);
        for (const int64_t b : p.Probe(row, p_key)) {
          key.Assemble(row, p.build_row(b), j_key);
          total += static_cast<int64_t>(pre.index->Probe(j_key).size());
          ++pairs;
        }
      }
      counts[m] = total;
      scratch[m] = static_cast<int64_t>(scope.bytes_allocated());
      if (pre.time.enabled()) {
        TraceSpan& span = pre.time.span(m);
        span.rows_in = left.offsets_[m + 1] - left.offsets_[m];
        span.arity_in = arity_in;
        span.arity_out = out_arity;
        span.bytes = scratch[m];
        span.ht_probe_ops = pairs;
      }
    });
    int64_t total = 0;
    for (int64_t m = 0; m < p_morsels; ++m) total += counts[m];
    if (static_cast<Counter>(total) >= headroom) {
      // Exhausts, as HashJoin over the written P would: P's call ends with
      // its count, this one charges and notes min(total, headroom) rows,
      // and neither writes anything. Its spans are the counting morsels.
      left.Close(0);
      ctx.stats().num_joins++;
      ChargeOutput(total, out_arity, ctx);
      Counter footprint = pre.bytes;
      for (int64_t m = 0; m < p_morsels; ++m) footprint += scratch[m];
      if (pre.time.enabled()) {
        pre.time.span(0).ht_build_rows = right.size();
        pre.time.span(0).bytes += pre.bytes;
      }
      pre.time.RecordInOrder();
      ctx.stats().NotePeakBytes(footprint);
      left.Release();
      return CountedJoin(spec, ctx, mx);
    }
  }

  // It does not exhaust: write P and count over it with the index built
  // above, which sits on P's scratch, so this call takes over P's
  // checkpoint.
  Relation rows = std::move(left).Write();
  CountedJoin join(rows, right, spec, ctx, mx, &pre);
  join.owned_left_ = std::move(rows);
  join.owned_right_ = std::move(right);
  join.arena_ = std::exchange(left.arena_, nullptr);
  join.mark_ = left.mark_;
  return join;
}

Relation HashJoin(const Relation& left, const Relation& right,
                  const JoinSpec& spec, ExecContext& ctx,
                  const MorselExec& mx) {
  return CountedJoin(left, right, spec, ctx, mx, nullptr).Write();
}

Relation ProjectColumns(const Relation& input, const ProjectSpec& spec,
                        ExecContext& ctx, const MorselExec& mx) {
  return ProjectRows(RelationRows(input, spec, mx), spec, ctx, mx);
}

Relation ProjectColumns(CountedJoin&& input, const ProjectSpec& spec,
                        ExecContext& ctx, const MorselExec& mx,
                        KeyedSide keyed) {
  if (!input.streamable()) {
    return ProjectColumns(std::move(input).Write(), spec, ctx, mx);
  }
  // The join's call ends with its count: its spans and footprint go on
  // record as they stand, and the projection's spans time the probes
  // that stream its rows. The key map sits on the join's scratch and is
  // released with it; the projection's own scratch is released first.
  input.Close(0);
  const JoinRows join(input);
  const PairKey key = MakePairKey(join, spec.cols.data(),
                                  static_cast<int>(spec.cols.size()),
                                  ctx.arena());
  // A Boolean projection keeps at most the empty tuple and reads no row.
  const KeyedSide probe =
      join.build_left ? KeyedSide::kRight : KeyedSide::kLeft;
  Relation out =
      keyed == probe && !spec.cols.empty()
          ? ProjectKeyed(join, key, input.offsets_, input.probe_rows_,
                         input.morsel_rows_, spec, ctx, mx)
          : ProjectRows(JoinPairRows(join, key, input.offsets_,
                                     input.probe_rows_, input.morsel_rows_),
                        spec, ctx, mx);
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
    rec.span().morsel_id = 0;
  }
  ctx.stats().NotePeakBytes(footprint);
  return out;
}

}  // namespace ppr
