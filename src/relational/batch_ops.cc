#include "relational/batch_ops.h"

#include <algorithm>
#include <limits>
#include <iterator>
#include <memory>
#include <span>
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

// Where an output column of a chain level comes from: column `col` of
// the row in slot `slot`, where slot 0 holds a row of the chain's base
// and slot j a build row of level j.
struct Source {
  int slot;
  int col;
};

// One level of a counted chain: a hash join that builds on a written
// input and probes the level below it (level 1: the chain's base, and
// its build side may be the join's left input). It sits in the context
// arena and owns its build input when the chain does.
struct ChainLevel {
  ChainLevel(const Relation& build, const JoinSpec& spec, bool build_left,
             ExecArena& arena)
      : spec(spec),
        build_left(build_left),
        build(build.data()),
        build_arity(build.arity()),
        index(build, build_left ? spec.left_key_cols : spec.right_key_cols,
              arena) {}

  const Value* build_row(int64_t b) const { return build + b * build_arity; }

  const JoinSpec& spec;
  const bool build_left;
  const Value* build;
  int build_arity;
  JoinIndex index;
  Relation owned;
  ChainLevel* below = nullptr;
  // The level's depth, which is its build rows' slot.
  int slot = 1;
  // Sources of the probe key's columns, and scratch to assemble it in.
  int key_width = 0;
  Source* key = nullptr;
  Value* key_scratch = nullptr;
  // Rows counted and kept.
  int64_t rows = 0;
};

namespace {

// Where output column `c` of `level` comes from: a column the level
// carries from its right input, or a column of its left input, which is
// the level below (level 1: the base's row, or the build row when it
// builds on the left).
Source SourceOf(const ChainLevel* level, int c) {
  for (;;) {
    const std::span<const int> carry = level->spec.right_carry_cols;
    const int left_arity =
        static_cast<int>(level->spec.out_attrs.size() - carry.size());
    if (c >= left_arity) {
      return {level->build_left ? 0 : level->slot, carry[c - left_arity]};
    }
    if (level->below == nullptr) return {level->build_left ? 1 : 0, c};
    level = level->below;
  }
}

// A level over `below` (null: the chain's base) that indexes `build`,
// with the sources of its probe key derived from the rows it probes.
ChainLevel* NewLevel(const Relation& build, const JoinSpec& spec,
                     bool build_left, ChainLevel* below, ExecArena& arena) {
  void* at = arena.Allocate(sizeof(ChainLevel));
  ChainLevel& level = *std::construct_at(static_cast<ChainLevel*>(at), build,
                                         spec, build_left, arena);
  level.below = below;
  level.slot = below == nullptr ? 1 : below->slot + 1;
  const std::span<const int> probe_key =
      build_left ? spec.right_key_cols : spec.left_key_cols;
  level.key_width = static_cast<int>(probe_key.size());
  const int64_t width = std::max(level.key_width, 1);
  level.key = arena.AllocSpan<Source>(width).data();
  level.key_scratch = arena.AllocSpan<Value>(width).data();
  for (int c = 0; c < level.key_width; ++c) {
    level.key[c] = below == nullptr ? Source{0, probe_key[c]}
                                    : SourceOf(below, probe_key[c]);
  }
  return &level;
}

// Destroys `level` and the levels below it, freeing the inputs they own.
void DestroyLevels(ChainLevel* level) {
  while (level != nullptr) {
    ChainLevel* below = level->below;
    std::destroy_at(level);
    level = below;
  }
}

}  // namespace

// A counted chain's rows, enumerated without writing them: a depth-first
// walk from each base row through the levels' key groups, which meets
// the rows in the order a fold of written joins writes them. The walk's
// state comes from `arena`.
class ChainRows {
 public:
  ChainRows(const CountedJoin& j, ExecArena& arena)
      : top(*j.top_),
        depth(j.depth_),
        rows(arena.AllocSpan<const Value*>(j.depth_ + 1).data()),
        base_(j.base_),
        base_arity_(j.base_arity_),
        base_rows_(j.base_rows_),
        step_(arena.AllocSpan<Step>(j.depth_ + 1).data()) {
    for (const ChainLevel* l = &top; l != nullptr; l = l->below) {
      const std::span<const int> carry = l->spec.right_carry_cols;
      step_[l->slot] = {l, nullptr, nullptr, l->build_left ? 0 : l->slot,
                        static_cast<int>(carry.size()), carry.data()};
    }
    const ChainLevel& first = *step_[1].level;
    left_slot_ = first.build_left ? 1 : 0;
    left_arity_ = static_cast<int>(first.spec.out_attrs.size() -
                                   first.spec.right_carry_cols.size());
  }
  ChainRows(const ChainRows&) = delete;
  ChainRows& operator=(const ChainRows&) = delete;

  // Visits each row the top level probes (the base's rows under level
  // 1), in written order, with rows[0, depth) set; stops when visit()
  // returns false, and then returns false. The walk goes depth first
  // from each base row; level depth - 1's rows are the matches of its
  // key group, visited in one loop. Each visit probes the top once:
  // `probes` counts those and the walk's own.
  template <typename Visit>
  bool ForEachProbeRow(Visit&& visit) {
    // Locals, so that no store of the visit reloads them.
    const int last = depth - 1;
    const ChainLevel& inner = *step_[std::max(last, 1)].level;
    const Value* const base = base_;
    const int64_t arity = base_arity_;
    const int64_t base_rows = base_rows_;
    int64_t walked = 0;
    const auto done = [&](bool all) {
      probes += walked;
      return all;
    };
    if (last == 0) {
      // The top probes the base: one loop over its rows.
      for (int64_t i = 0; i < base_rows; ++i) {
        rows[0] = base + i * arity;
        ++walked;
        if (!visit()) return done(false);
      }
      return done(true);
    }
    int64_t i = 0;
    for (int j = 0;;) {
      // The next row of level j (0: the base), or back to the level below.
      if (j == 0) {
        if (i == base_rows) return done(true);
        rows[0] = base + i++ * arity;
      } else if (Step& step = step_[j]; step.next == step.end) {
        --j;
        continue;
      } else {
        rows[j] = step.level->build_row(*step.next++);
      }
      ++walked;
      if (j + 1 < last) {
        // Start level j + 1's matches for the rows below it.
        Step& next = step_[++j];
        const int64_t g = FindGroup(*next.level);
        const std::span<const int64_t> group =
            g < 0 ? std::span<const int64_t>{} : next.level->index.Group(g);
        next.next = group.data();
        next.end = group.data() + group.size();
        continue;
      }
      const int64_t g = FindGroup(inner);
      if (g < 0) continue;
      for (const int64_t b : inner.index.Group(g)) {
        rows[last] = inner.build_row(b);
        ++walked;
        if (!visit()) return done(false);
      }
    }
  }

  // Visits each row of the top level, rows[depth] its build row.
  template <typename Visit>
  bool ForEachRow(Visit&& visit) {
    return ForEachProbeRow([&] {
      const int64_t g = FindGroup(top);
      if (g < 0) return true;
      for (const int64_t b : top.index.Group(g)) {
        rows[depth] = top.build_row(b);
        if (!visit()) return false;
      }
      return true;
    });
  }

  // The id of the key group of `level` matching the rows it probes, or
  // -1, its key assembled in the level's key scratch.
  int64_t FindGroup(const ChainLevel& level) const {
    const Source* const source = level.key;
    const int width = level.key_width;
    Value* const key = level.key_scratch;
    for (int c = 0; c < width; ++c) {
      key[c] = rows[source[c].slot][source[c].col];
    }
    return level.index.FindGroup(key);
  }

  // Writes the row of level `m` that rows[0, m] make up: level 1's left
  // input, then the columns each level carries from its right input.
  void WriteRow(int m, Value* out) const {
    const Value* const left = rows[left_slot_];
    const int left_arity = left_arity_;
    for (int c = 0; c < left_arity; ++c) out[c] = left[c];
    out += left_arity;
    for (int j = 1; j <= m; ++j) {
      const Value* const right = rows[step_[j].right_slot];
      const int count = step_[j].carry_count;
      const int* const cols = step_[j].carry;
      for (int c = 0; c < count; ++c) out[c] = right[cols[c]];
      out += count;
    }
  }

  const ChainLevel& top;
  const int depth;
  // rows[s]: the current row of slot s.
  const Value** const rows;
  // Probes of the walks so far.
  int64_t probes = 0;

 private:
  // Level j's walk: its level, its remaining matches (next up to end),
  // and the columns it carries from the row in `right_slot`, its right
  // input.
  struct Step {
    const ChainLevel* level;
    const int64_t* next;
    const int64_t* end;
    int right_slot;
    int carry_count;
    const int* carry;
  };

  const Value* const base_;
  const int base_arity_;
  const int64_t base_rows_;
  Step* const step_;
  int left_slot_ = 0;
  int left_arity_ = 0;
};

namespace {

// A key over some of the top level's output columns, assembled from the
// rows a top-level row is made of instead of a written row: (key column,
// slot, source column) for the columns the rows below the top supply,
// then (key column, source column) for those the top's build row
// supplies. Derived once per call into arena memory.
struct PairKey {
  const int* probe_cols;
  int num_probe;
  const int* build_pairs;
  int num_build;

  void Assemble(const Value* const* rows, const Value* build_row,
                Value* key) const {
    for (int p = 0; p < num_probe; ++p) {
      const int* col = probe_cols + 3 * p;
      key[col[0]] = rows[col[1]][col[2]];
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

// The PairKey of output columns `cols` (`width` of them) of the chain's
// top level.
PairKey MakePairKey(const ChainRows& j, const int* cols, int width,
                    ExecArena& arena) {
  int* probe_cols = arena.AllocSpan<int>(5 * std::max(width, 1)).data();
  int* build_pairs = probe_cols + 3 * width;
  PairKey key{probe_cols, 0, build_pairs, 0};
  for (int c = 0; c < width; ++c) {
    const Source s = SourceOf(&j.top, cols[c]);
    int* to = s.slot == j.depth ? build_pairs + 2 * key.num_build++
                                : probe_cols + 3 * key.num_probe++;
    *to++ = c;
    if (s.slot != j.depth) *to++ = s.slot;
    *to = s.col;
  }
  return key;
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

// A counted join's unwritten rows: the chain is enumerated again, and
// the projected key of every row of its top level is assembled in the
// order a fold of written joins would have written the rows.
class JoinPairRows {
 public:
  JoinPairRows(ChainRows& join, const PairKey& key)
      : join_(join), key_(key) {}

  int64_t rows() const { return join_.top.rows; }
  int arity() const { return std::ssize(join_.top.spec.out_attrs); }

  // As RelationRows::Insert; the lookups include the walk's probes.
  int64_t Insert(int64_t cap, FlatKeyIndex& seen) const {
    int64_t inserts = 0;
    join_.ForEachRow([&] {
      key_.Assemble(join_.rows, join_.rows[join_.depth], seen.next_key());
      seen.InsertNext();
      ++inserts;
      return seen.num_keys() < cap;
    });
    return join_.probes + inserts;
  }

 private:
  ChainRows& join_;
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

// Walks level `top`'s key groups once, deduplicating (group id,
// build-row share of `key`) in one index whose scratch comes from
// `arena`.
GroupRepresentatives Representatives(const ChainLevel& top,
                                     const PairKey& key, ExecArena& arena) {
  const JoinIndex& index = top.index;
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
      const Value* row = top.build_row(b);
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

// The projection of the chain's top level when the rows it probes are
// pairwise distinct and the projection keeps every attribute of them
// (KeyedSide): keys of different probe rows never collide, so a probe
// row's distinct keys are its group's representatives, met in the order
// the dedup would first meet them. It counts the probe rows' keys, then
// writes the first min(distinct, headroom) into an output sized exactly,
// with no index over the output.
Relation ProjectKeyed(ChainRows& j, const PairKey& key,
                      const ProjectSpec& spec, ExecContext& ctx) {
  ctx.stats().num_projections++;
  Relation out{Schema(spec.out_attrs)};
  const int key_width = out.arity();
  ArenaScope scope(ctx.arena());
  SpanRecorder rec(ctx.tracer(), TraceOp::kProject, ctx.trace_node());
  const ChainLevel& top = j.top;
  const GroupRepresentatives reps = Representatives(top, key, ctx.arena());

  int64_t keys = 0;
  j.ForEachProbeRow([&] {
    const int64_t g = j.FindGroup(top);
    if (g >= 0) keys += reps.count(g);
    return true;
  });

  const int64_t kept = ClampToHeadroom(keys, ctx);
  Value* cursor = out.GrowRows(kept);
  int64_t written = 0;
  if (kept > 0) j.ForEachProbeRow([&] {
    const int64_t g = j.FindGroup(top);
    if (g < 0) return true;
    // A group has a representative at least; the keys after its first
    // share their probe columns with the key before them.
    const int64_t n = std::min(reps.count(g), kept - written);
    const int64_t* rep = reps.rows.data() + reps.offsets[g];
    key.Assemble(j.rows, top.build_row(rep[0]), cursor);
    for (int64_t r = 1; r < n; ++r) {
      std::copy(cursor, cursor + key_width, cursor + key_width);
      cursor += key_width;
      key.AssembleBuild(top.build_row(rep[r]), cursor);
    }
    cursor += key_width;
    written += n;
    return written < kept;
  });
  if (kept > 0) ctx.ChargeTuples(kept);

  const Counter footprint =
      static_cast<Counter>(scope.bytes_allocated()) + out.byte_size();
  if (rec.enabled()) {
    rec.span().rows_in = top.rows;
    rec.span().rows_out = kept;
    rec.span().arity_in = std::ssize(top.spec.out_attrs);
    rec.span().arity_out = key_width;
    rec.span().bytes = footprint;
    rec.span().ht_build_rows = static_cast<int64_t>(reps.rows.size());
    rec.span().ht_probe_ops = j.probes + top.index.num_rows();
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


CountedJoin::CountedJoin(const Relation& left, const Relation& right,
                         const JoinSpec& spec, ExecContext& ctx,
                         std::nullptr_t)
    : ctx_(&ctx),
      arena_(&ctx.arena()),
      mark_(ctx.arena().Save()),
      out_(Schema(spec.out_attrs)),
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
  const bool build_left = left.size() <= right.size();
  const Relation& probe = build_left ? right : left;
  const Relation& build = build_left ? left : right;
  base_ = probe.data();
  base_arity_ = probe.arity();
  base_rows_ = probe.size();
  {
    // The count sizes the output exactly, so a write needs no realloc
    // copies or capacity checks. The call charges its rows now, written
    // or not; one that exhausts the budget keeps none and is resolved.
    SpanTimer timer(ctx.tracer(), span_);
    top_ = NewLevel(build, spec, build_left, nullptr, ctx.arena());
    depth_ = 1;
    const int64_t total = CountTop(span_);
    scratch_bytes_ =
        static_cast<Counter>(ctx.arena().bytes_in_use() - mark_.used);
    rows_ = top_->rows = ChargeOutput(total, out_.arity(), ctx);
  }
  span_.rows_in = probe.size();
  span_.rows_out = rows_;
  span_.arity_in = std::max(left.arity(), right.arity());
  span_.arity_out = out_.arity();
  span_.ht_build_rows = build.size();
  if (rows_ == 0) Close(0);
}

CountedJoin::CountedJoin(CountedJoin&& other) noexcept {
  *this = std::move(other);
}

CountedJoin& CountedJoin::operator=(CountedJoin&& other) noexcept {
  if (this == &other) return *this;
  Close(0);
  Release();
  ctx_ = other.ctx_;
  arena_ = std::exchange(other.arena_, nullptr);
  mark_ = other.mark_;
  owned_base_ = std::move(other.owned_base_);
  base_ = other.base_;
  base_arity_ = other.base_arity_;
  base_rows_ = other.base_rows_;
  out_ = std::move(other.out_);
  top_ = std::exchange(other.top_, nullptr);
  depth_ = other.depth_;
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
  DestroyLevels(std::exchange(top_, nullptr));
  if (arena_ == nullptr) return;
  arena_->Restore(mark_);
  arena_ = nullptr;
}

int64_t CountedJoin::CountTop(TraceSpan& span) {
  const ChainLevel& top = *top_;
  if (top.key_width == 0) {
    // A cross product: every row it probes matches every build row.
    const int64_t probed = depth_ == 1 ? base_rows_ : top.below->rows;
    return probed * top.index.num_rows();
  }
  int64_t total = 0;
  ArenaScope walk(*arena_);
  ChainRows chain(*this, *arena_);
  const Counter headroom = ctx_->budget_headroom();
  chain.ForEachProbeRow([&] {
    const int64_t g = chain.FindGroup(top);
    if (g >= 0) total += std::ssize(top.index.Group(g));
    return static_cast<Counter>(total) < headroom;
  });
  span.ht_probe_ops += chain.probes;
  return total;
}

void CountedJoin::Extend(Relation right, const JoinSpec& spec) {
  ExecContext& ctx = *ctx_;
  ChainLevel& below = *top_;
  TraceSpan span = OpenSpan(TraceOp::kJoin, ctx);
  span.rows_in = below.rows;
  span.arity_in = std::max<int>(std::ssize(below.spec.out_attrs),
                                right.arity());
  span.ht_build_rows = right.size();
  const size_t start = ctx.arena().bytes_in_use();
  int64_t total = 0;
  {
    SpanTimer timer(ctx.tracer(), span);
    top_ = NewLevel(right, spec, false, &below, ctx.arena());
    ++depth_;
    total = CountTop(span);
  }
  top_->owned = std::move(right);
  // The call of the level below ends with this count.
  Close(0);
  ctx.stats().num_joins++;
  open_ = true;
  span_ = span;
  scratch_bytes_ = static_cast<Counter>(ctx.arena().bytes_in_use() - start);
  out_ = Relation(Schema(spec.out_attrs));
  rows_ = top_->rows = ChargeOutput(total, out_.arity(), ctx);
  span_.rows_out = rows_;
  span_.arity_out = out_.arity();
  if (rows_ == 0) Close(0);
}

Relation CountedJoin::Write() && {
  if (!open_) return std::move(out_);
  {
    // Enumerate the rows again and write them into the output the count
    // sized.
    SpanTimer timer(ctx_->tracer(), span_);
    const ChainLevel& top = *top_;
    const std::span<const int> carry = top.spec.right_carry_cols;
    const int arity = out_.arity();
    const int left_arity = arity - static_cast<int>(carry.size());
    const int depth = depth_;
    Value* cursor = out_.GrowRows(rows_);
    Value* const end = cursor + rows_ * arity;
    ArenaScope walk(*arena_);
    ChainRows chain(*this, *arena_);
    // Each row the top probes is the base's, or the level below's, which
    // is written once into `below` for all of its matches. The loop's
    // bounds are locals, so that no store of a row reloads them.
    Value* const below =
        depth > 1 ? arena_->AllocSpan<Value>(left_arity).data() : nullptr;
    chain.ForEachProbeRow([&] {
      const int64_t g = chain.FindGroup(top);
      if (g < 0) return true;
      const Value* probe = chain.rows[0];
      if (depth > 1) {
        chain.WriteRow(depth - 1, below);
        probe = below;
      }
      for (const int64_t b : top.index.Group(g)) {
        const Value* left = top.build_left ? top.build_row(b) : probe;
        const Value* right = top.build_left ? probe : top.build_row(b);
        for (int c = 0; c < left_arity; ++c) cursor[c] = left[c];
        for (size_t c = 0; c < carry.size(); ++c) {
          cursor[left_arity + c] = right[carry[c]];
        }
        cursor += arity;
      }
      return cursor != end;
    });
    span_.ht_probe_ops += chain.probes;
  }
  Close(out_.byte_size());
  return std::move(out_);
}

CountedJoin::CountedJoin(Relation left, Relation right, const JoinSpec& spec,
                         ExecContext& ctx)
    : CountedJoin(left, right, spec, ctx, nullptr) {
  // Moving a relation keeps its rows where they are.
  if (top_ == nullptr) return;
  const bool build_left = top_->build_left;
  owned_base_ = std::move(build_left ? right : left);
  top_->owned = std::move(build_left ? left : right);
}

void CountJoin(CountedJoin& chain, Relation right, const JoinSpec& spec,
               ExecContext& ctx) {
  // P is read written when it resolved, when it is this join's build side
  // (no larger than `right`), or when |P| x |right| stays below the
  // headroom: this count cannot exhaust the budget then, so some call
  // reads P again, and a copied row costs less than the probes that
  // enumerate it. This join then counts over the written P, the base of a
  // new chain.
  const int64_t rows = chain.rows();
  if (!chain.streamable() || rows <= right.size() ||
      static_cast<Counter>(rows) * right.size() < ctx.budget_headroom()) {
    Relation written = std::move(chain).Write();
    chain.Release();
    chain = CountedJoin(std::move(written), std::move(right), spec, ctx);
    return;
  }
  chain.Extend(std::move(right), spec);
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
  // record as they stand, and the projection's span times the walk that
  // streams its rows. The walk's scratch and the key map sit on the
  // chain's scratch and are released with it; the projection's own
  // scratch is released first.
  input.Close(0);
  ChainRows join(input, ctx.arena());
  const PairKey key = MakePairKey(join, spec.cols.data(),
                                  static_cast<int>(spec.cols.size()),
                                  ctx.arena());
  // A Boolean projection keeps at most the empty tuple and reads no row.
  const KeyedSide probe = join.depth == 1 && join.top.build_left
                              ? KeyedSide::kRight
                              : KeyedSide::kLeft;
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
