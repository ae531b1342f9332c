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

namespace {

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

// Zeroed per-morsel counters (offsets, scratch sizes): stored inline for
// the two a one-morsel call needs, so serial calls never allocate them
// on the heap.
class MorselSlots {
 public:
  explicit MorselSlots(int64_t n) : size_(n) {
    if (n > kInline) {
      heap_.assign(static_cast<size_t>(n), 0);
      data_ = heap_.data();
    }
  }
  MorselSlots(const MorselSlots&) = delete;
  MorselSlots& operator=(const MorselSlots&) = delete;

  int64_t& operator[](int64_t i) { return data_[i]; }
  int64_t operator[](int64_t i) const { return data_[i]; }
  int64_t size() const { return size_; }

 private:
  static constexpr int64_t kInline = 2;
  int64_t size_;
  int64_t inline_[kInline] = {0, 0};
  std::vector<int64_t> heap_;
  int64_t* data_ = inline_;
};

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

// One trace span per morsel of a kernel call, covering that morsel's
// work in every phase (morsel 0's also covers any shared build). Only the
// worker running morsel m writes span m; once all morsels finished, the
// calling thread records the spans into the run's sink in morsel-index
// order, so workers never touch the sink and the span order does not
// depend on the schedule. Inert without a sink.
class MorselSpans {
 public:
  MorselSpans(TraceSink* sink, TraceOp op, int32_t node_id,
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

  bool enabled() const { return sink_ != nullptr; }
  TraceSpan& span(int64_t m) { return spans_[static_cast<size_t>(m)]; }

  // Adds the enclosing scope's wall time to morsel m's span; the first
  // timed scope stamps the span's start.
  class Timer {
   public:
    Timer(MorselSpans& spans, int64_t m) : spans_(spans), m_(m) {
      if (spans_.enabled()) start_ns_ = spans_.sink_->NowNs();
    }
    ~Timer() {
      if (!spans_.enabled()) return;
      TraceSpan& span = spans_.span(m_);
      if (span.start_ns < 0) span.start_ns = start_ns_;
      span.duration_ns += spans_.sink_->NowNs() - start_ns_;
    }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

   private:
    MorselSpans& spans_;
    int64_t m_;
    int64_t start_ns_ = 0;
  };

  void RecordInOrder() {
    for (const TraceSpan& span : spans_) sink_->Record(span);
  }

 private:
  TraceSink* sink_;
  std::vector<TraceSpan> spans_;
};

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

// The column layout of one hash join, shared read-only by its morsels:
// the build-side index, the probe side (the larger input), and where
// each output column comes from.
struct JoinProbe {
  JoinProbe(const JoinIndex& index, const Relation& left,
            const Relation& right, const JoinSpec& spec, bool build_left)
      : index(index),
        build_left(build_left),
        probe_base(build_left ? right.data() : left.data()),
        probe_arity(build_left ? right.arity() : left.arity()),
        probe_key(build_left ? spec.right_key_cols.data()
                             : spec.left_key_cols.data()),
        key_width(static_cast<int>(spec.left_key_cols.size())),
        left_base(left.data()),
        right_base(right.data()),
        left_arity(left.arity()),
        right_arity(right.arity()),
        carry(spec.right_carry_cols.data()),
        num_carry(static_cast<int>(spec.right_carry_cols.size())),
        out_arity(spec.out_schema.arity()) {}

  const JoinIndex& index;
  bool build_left;
  const Value* probe_base;
  int probe_arity;
  const int* probe_key;
  int key_width;
  const Value* left_base;
  const Value* right_base;
  int left_arity;
  int right_arity;
  const int* carry;
  int num_carry;
  int out_arity;
};

// Output rows of probe rows [begin, end). Each probe key is assembled in
// place in `key` (key_width values of scratch) — no gathered or packed
// copy of the probe keys.
int64_t CountJoinRows(const JoinProbe& j, int64_t begin, int64_t end,
                      Value* key) {
  int64_t total = 0;
  for (int64_t i = begin; i < end; ++i) {
    const Value* probe_row = j.probe_base + i * j.probe_arity;
    for (int c = 0; c < j.key_width; ++c) key[c] = probe_row[j.probe_key[c]];
    total += static_cast<int64_t>(j.index.Probe(key).size());
  }
  return total;
}

// Writes the first `quota` output rows of probe rows [begin, end) to
// `cursor`, in probe-row then build-row order, and returns the number of
// probe rows probed. The caller sized `quota` from CountJoinRows.
int64_t EmitJoinRows(const JoinProbe& j, int64_t begin, int64_t end,
                     int64_t quota, Value* key, Value* cursor) {
  const int left_arity = j.left_arity;
  const int out_arity = j.out_arity;
  const int num_carry = j.num_carry;
  const int* carry = j.carry;
  int64_t emitted = 0;
  int64_t i = begin;
  for (; i < end && emitted < quota; ++i) {
    const Value* probe_row = j.probe_base + i * j.probe_arity;
    for (int c = 0; c < j.key_width; ++c) key[c] = probe_row[j.probe_key[c]];
    const std::span<const int64_t> matches = j.index.Probe(key);
    if (j.build_left) {
      // Probe side is the right input: its carry columns repeat across
      // every match of this probe row.
      for (int64_t b : matches) {
        const Value* left_row = j.left_base + b * left_arity;
        for (int c = 0; c < left_arity; ++c) cursor[c] = left_row[c];
        for (int c = 0; c < num_carry; ++c) {
          cursor[left_arity + c] = probe_row[carry[c]];
        }
        cursor += out_arity;
        if (++emitted == quota) break;
      }
    } else {
      for (int64_t b : matches) {
        const Value* right_row = j.right_base + b * j.right_arity;
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

Relation HashJoin(const Relation& left, const Relation& right,
                  const JoinSpec& spec, ExecContext& ctx,
                  const MorselExec& mx) {
  ctx.stats().num_joins++;
  Relation out{spec.out_schema};
  if (left.empty() || right.empty()) {
    ctx.stats().NoteIntermediate(out.arity(), 0);
    return out;
  }
  if (out.arity() == 0) {
    // Both inputs nullary and nonempty: the empty tuple.
    EmitNullary(TraceOp::kJoin, out, ctx);
    return out;
  }

  const bool build_left = left.size() <= right.size();
  const Relation& build = build_left ? left : right;
  const Relation& probe = build_left ? right : left;
  const int64_t probe_rows = probe.size();
  const int64_t morsel_rows = mx.MorselRows(probe_rows);
  const int64_t num_morsels = mx.NumMorsels(probe_rows);
  MorselSpans spans(ctx.tracer(), TraceOp::kJoin, ctx.trace_node(),
                    num_morsels);

  // Shared build phase on the calling thread, timed into morsel 0's
  // span; the index is read-only once constructed, so morsel workers
  // probe it without locks.
  ArenaScope shared_scope(ctx.arena());
  const JoinIndex index = [&] {
    MorselSpans::Timer timer(spans, 0);
    return JoinIndex(build,
                     build_left ? spec.left_key_cols : spec.right_key_cols,
                     ctx.arena());
  }();
  const JoinProbe join{index, left, right, spec, build_left};
  const int key_width = static_cast<int>(spec.left_key_cols.size());
  const int32_t arity_in = std::max(left.arity(), right.arity());

  // Phase A: counting probe per morsel. A hash + find per probe row costs
  // far less than the emit work it sizes, and the exact sizes remove
  // realloc copies and per-emit capacity checks from the emit loop.
  MorselSlots offsets(num_morsels + 1);
  MorselSlots scratch(num_morsels);
  mx.ForEachMorsel(num_morsels, [&](int64_t m, int w) {
    MorselSpans::Timer timer(spans, m);
    const auto [begin, end] = RangeOf(m, morsel_rows, probe_rows);
    ExecArena& warena = WorkerArena(mx, ctx, w);
    ArenaScope scope(warena);
    Value* key = warena.AllocSpan<Value>(std::max(key_width, 1)).data();
    offsets[m + 1] = CountJoinRows(join, begin, end, key);
    scratch[m] = static_cast<int64_t>(scope.bytes_allocated());
    if (spans.enabled()) {
      TraceSpan& span = spans.span(m);
      span.rows_in = end - begin;
      span.arity_in = arity_in;
      span.arity_out = join.out_arity;
      span.bytes = scratch[m];
      span.ht_probe_ops = end - begin;
    }
  });

  // Phase B: re-probe and materialize into the morsel's disjoint range.
  // Emit order within a morsel is probe-row order then build-row order,
  // so the concatenation does not depend on the partition. A call that
  // exhausts the budget skips it.
  if (PrefixSumsCharged(offsets, join.out_arity, ctx) > 0) {
    Value* out_base = out.GrowRows(offsets[num_morsels]);
    mx.ForEachMorsel(num_morsels, [&](int64_t m, int w) {
      MorselSpans::Timer timer(spans, m);
      const int64_t quota = offsets[m + 1] - offsets[m];
      if (quota == 0) return;
      const auto [begin, end] = RangeOf(m, morsel_rows, probe_rows);
      ExecArena& warena = WorkerArena(mx, ctx, w);
      ArenaScope scope(warena);
      Value* key = warena.AllocSpan<Value>(std::max(key_width, 1)).data();
      const int64_t probes =
          EmitJoinRows(join, begin, end, quota, key,
                       out_base + offsets[m] * join.out_arity);
      if (spans.enabled()) {
        TraceSpan& span = spans.span(m);
        span.rows_out = quota;
        span.bytes +=
            quota * join.out_arity * static_cast<int64_t>(sizeof(Value));
        span.ht_probe_ops += probes;
      }
    });
  }

  const Counter shared = static_cast<Counter>(shared_scope.bytes_allocated());
  if (spans.enabled()) {
    spans.span(0).ht_build_rows = build.size();
    spans.span(0).bytes += shared;
  }
  spans.RecordInOrder();

  Counter footprint = shared + out.byte_size();
  for (int64_t m = 0; m < num_morsels; ++m) footprint += scratch[m];
  ctx.stats().NotePeakBytes(footprint);
  return out;
}

Relation ProjectColumns(const Relation& input, const ProjectSpec& spec,
                        ExecContext& ctx, const MorselExec& mx) {
  ctx.stats().num_projections++;
  Relation out{spec.out_schema};
  if (spec.cols.empty()) {
    // Boolean projection: nonempty input -> the single empty tuple.
    SpanRecorder rec(ctx.tracer(), TraceOp::kProject, ctx.trace_node());
    if (rec.enabled()) {
      rec.span().rows_in = input.size();
      rec.span().arity_in = input.arity();
      rec.span().arity_out = 0;
      rec.span().morsel_id = 0;
    }
    if (!input.empty()) {
      out.AddTuple(std::span<const Value>{});
      ctx.ChargeTuples(1);
    }
    if (rec.enabled()) rec.span().rows_out = out.size();
    ctx.stats().NoteIntermediate(0, out.size());
    return out;
  }
  if (input.empty()) {
    ctx.stats().NoteIntermediate(out.arity(), 0);
    return out;
  }

  const int key_width = static_cast<int>(spec.cols.size());
  const int in_arity = input.arity();
  const int64_t in_rows = input.size();
  const Value* base = input.data();
  const int* cols = spec.cols.data();

  const int64_t morsel_rows = mx.MorselRows(in_rows);
  const int64_t num_morsels = mx.NumMorsels(in_rows);

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
    ArenaScope scope(ctx.arena());
    SpanRecorder mrec(ctx.tracer(), TraceOp::kProject, ctx.trace_node());
    const int64_t cap = ClampToHeadroom(in_rows, ctx);
    FlatKeyIndex seen(cap, key_width, out.GrowRows(cap), ctx.arena());
    const int64_t probed =
        InsertDistinct(base, in_arity, cols, in_rows, cap, seen);
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
    const auto [begin, end] = RangeOf(m, morsel_rows, in_rows);
    const int64_t n = end - begin;
    ExecArena& arena = WorkerArena(mx, ctx, w);
    const size_t before = arena.bytes_in_use();
    FlatKeyIndex& local = locals[static_cast<size_t>(m)].emplace(
        n, key_width, arena.AllocSpan<Value>(n * key_width).data(), arena);
    InsertDistinct(base + begin * in_arity, in_arity, cols, n, n, local);
    scratch[m] = static_cast<int64_t>(arena.bytes_in_use() - before);
    if (spans.enabled()) {
      TraceSpan& span = spans.span(m);
      span.rows_in = n;
      span.arity_in = in_arity;
      span.arity_out = key_width;
      span.ht_build_rows = local.num_keys();
      span.ht_probe_ops = n;
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

Relation SemiJoinFiltered(const Relation& left, const Relation& right,
                          const SemiJoinSpec& spec, ExecContext& ctx,
                          const MorselExec& mx) {
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
  const int64_t morsel_rows = mx.MorselRows(left_rows);
  const int64_t num_morsels = mx.NumMorsels(left_rows);
  MorselSpans spans(ctx.tracer(), TraceOp::kSemiJoin, ctx.trace_node(),
                    num_morsels);

  // Shared filter build on the calling thread, timed into morsel 0's
  // span; read-only afterwards.
  ArenaScope shared_scope(ctx.arena());
  Value* right_keys =
      ctx.arena().AllocSpan<Value>(right.size() * key_width).data();
  FlatKeyIndex keys(right.size(), key_width, right_keys, ctx.arena());
  {
    MorselSpans::Timer timer(spans, 0);
    const int right_arity = right.arity();
    const int64_t right_rows = right.size();
    const Value* right_base = right.data();
    const int* right_key = spec.right_key_cols.data();
    for (int64_t i = 0; i < right_rows; ++i) {
      const Value* row = right_base + i * right_arity;
      Value* key = keys.next_key();
      for (int c = 0; c < key_width; ++c) key[c] = row[right_key[c]];
      keys.InsertNext();
    }
  }

  // Single-morsel path (every serial call): one pass that probes each
  // left key in place and copies the survivors, as a tuple-at-a-time
  // loop would, into an output sized for the rows the budget still
  // allows; a pass that exhausts the budget keeps none of them. On
  // BM_SemiJoin/16384 (2-column rows, all surviving; one pinned Xeon
  // core) the two phases below took 1.5-1.9 ms in some heap layouts and
  // this pass 0.35-0.47 ms, so serial calls skip the selection round
  // trip.
  if (num_morsels == 1) {
    Value* key = ctx.arena().AllocSpan<Value>(std::max(key_width, 1)).data();
    const int64_t cap = ClampToHeadroom(left_rows, ctx);
    Value* cursor = out.GrowRows(cap);
    int64_t kept = 0;
    int64_t i = 0;
    {
      MorselSpans::Timer timer(spans, 0);
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
    }
    out.TruncateRows(ChargeOutput(kept, left_arity, ctx));
    const Counter footprint =
        static_cast<Counter>(shared_scope.bytes_allocated()) +
        out.byte_size();
    if (spans.enabled()) {
      TraceSpan& span = spans.span(0);
      span.rows_in = left_rows;
      span.rows_out = out.size();
      span.arity_in = std::max(left_arity, right.arity());
      span.arity_out = left_arity;
      span.bytes = footprint;
      span.ht_build_rows = right.size();
      span.ht_probe_ops = no_common ? 0 : i;
    }
    spans.RecordInOrder();
    ctx.stats().NotePeakBytes(footprint);
    return out;
  }

  // Phase A: probe per morsel, each left key assembled in place, and
  // record the survivors' offsets within the morsel. The selection array
  // is allocated here on the calling thread: morsel m owns the entries of
  // its own input range, so phase B, which may run on another worker,
  // can read them.
  PPR_CHECK(morsel_rows <= std::numeric_limits<int32_t>::max());
  int32_t* sel =
      no_common ? nullptr : ctx.arena().AllocSpan<int32_t>(left_rows).data();
  MorselSlots offsets(num_morsels + 1);
  MorselSlots scratch(num_morsels);
  mx.ForEachMorsel(num_morsels, [&](int64_t m, int w) {
    MorselSpans::Timer timer(spans, m);
    const auto [begin, end] = RangeOf(m, morsel_rows, left_rows);
    if (no_common) {
      // Right is nonempty: every left row survives (identity selection,
      // not materialized).
      offsets[m + 1] = end - begin;
    } else {
      ExecArena& warena = WorkerArena(mx, ctx, w);
      ArenaScope scope(warena);
      Value* mkey = warena.AllocSpan<Value>(key_width).data();
      int32_t* msel = sel + begin;
      int64_t kept = 0;
      for (int64_t i = begin; i < end; ++i) {
        const Value* row = left_base + i * left_arity;
        for (int c = 0; c < key_width; ++c) mkey[c] = row[left_key[c]];
        if (keys.Find(mkey) >= 0) {
          msel[kept++] = static_cast<int32_t>(i - begin);
        }
      }
      offsets[m + 1] = kept;
      scratch[m] = static_cast<int64_t>(scope.bytes_allocated());
    }
    if (spans.enabled()) {
      TraceSpan& span = spans.span(m);
      span.rows_in = end - begin;
      span.arity_in = std::max(left_arity, right.arity());
      span.arity_out = left_arity;
      span.bytes = scratch[m];
      span.ht_probe_ops = no_common ? 0 : end - begin;
    }
  });

  // Phase B: copy the surviving left rows into the disjoint ranges. A
  // call that exhausts the budget skips it.
  if (PrefixSumsCharged(offsets, left_arity, ctx) > 0) {
    Value* out_base = out.GrowRows(offsets[num_morsels]);
    mx.ForEachMorsel(num_morsels, [&](int64_t m, int /*w*/) {
      MorselSpans::Timer timer(spans, m);
      const int64_t begin = RangeOf(m, morsel_rows, left_rows).begin;
      const int64_t quota = offsets[m + 1] - offsets[m];
      Value* cursor = out_base + offsets[m] * left_arity;
      if (no_common) {
        const Value* src = left_base + begin * left_arity;
        std::copy(src, src + quota * left_arity, cursor);
      } else {
        const int32_t* msel = sel + begin;
        for (int64_t j = 0; j < quota; ++j) {
          const Value* row = left_base + (begin + msel[j]) * left_arity;
          for (int c = 0; c < left_arity; ++c) cursor[c] = row[c];
          cursor += left_arity;
        }
      }
      if (spans.enabled()) {
        TraceSpan& span = spans.span(m);
        span.rows_out = quota;
        span.bytes += quota * left_arity * static_cast<int64_t>(sizeof(Value));
      }
    });
  }

  const Counter shared = static_cast<Counter>(shared_scope.bytes_allocated());
  if (spans.enabled()) {
    spans.span(0).ht_build_rows = right.size();
    spans.span(0).bytes += shared;
  }
  spans.RecordInOrder();

  Counter footprint = shared + out.byte_size();
  for (int64_t m = 0; m < num_morsels; ++m) footprint += scratch[m];
  ctx.stats().NotePeakBytes(footprint);
  return out;
}

}  // namespace ppr
