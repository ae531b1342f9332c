#ifndef PPR_RELATIONAL_BATCH_OPS_H_
#define PPR_RELATIONAL_BATCH_OPS_H_

#include <cstdint>
#include <algorithm>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/types.h"
#include "obs/trace.h"
#include "relational/exec_context.h"
#include "relational/flat_hash.h"
#include "relational/ops.h"
#include "relational/relation.h"

namespace ppr {

/// The operator kernels — the engine's only kernel set. Scan, join and
/// projection partition their probe/input side into morsels as their
/// MorselExec (below) says, run the per-morsel work, and materialize
/// every morsel into a precomputed disjoint slice of the output; the
/// semijoin, which only the semijoin pass runs, is one serial pass. A hash join writes its
/// output only when it is read: a CountedJoin counts and charges it, and a
/// consumer either writes it (CountedJoin::Write, which is HashJoin) or
/// reads it unwritten — a projection deduplicating straight from the
/// probe (once per key group when the plan says the probe side is keyed,
/// see KeyedSide), or the next join counting through it when it may
/// exhaust the budget.
///
/// Serial callers pass the default MorselExec: the whole input is one
/// morsel, and only the morsel driver (runtime/morsel_driver.h) splits
/// inputs into several. Scan and join run the same two phases (below)
/// at any morsel count, with every key assembled in place from its row;
/// one morsel makes them a count pass and a copy pass. Projection has a
/// one-morsel pass of its own: it deduplicates into a single hash index,
/// whose key store is the output, instead of merging morsel-local ones.
/// The semijoin probes and copies in one loop. A keyed projection over a counted join needs no dedup of its
/// output and runs the two phases too.
///
/// Determinism contract (the property tests and the morsel driver rely
/// on it):
///
///  - For the same inputs, spec, and morsel size, the output relation
///    and every ExecStats field are byte-identical regardless of how
///    many workers run the morsels — including under tuple-budget
///    truncation.
///  - Across morsel sizes, the output rows (and their order) and every
///    ExecStats field except peak_bytes are identical. peak_bytes is one
///    accounting — shared build scratch + the sum of per-morsel scratch
///    + output bytes — so it depends on how the input was partitioned.
///
/// The recipe:
///
///  - The morsel partition depends only on the row count and morsel
///    size, never on the worker count.
///  - A counting phase computes exact per-morsel output sizes, and
///    prefix sums turn them into disjoint output ranges.
///  - A call whose total output reaches budget_headroom() exhausts the
///    budget. It charges and notes min(total, headroom) rows — the row a
///    sequential tuple-at-a-time loop would stop at — and returns an
///    empty relation, writing no output: every budgeted caller discards
///    an exhausted run's output. The semijoin, which learns its size as
///    it copies, truncates what it wrote to nothing.
///    Projection learns its size only by deduplicating (a keyed one by
///    counting): it keeps its first min(distinct, headroom) keys in
///    first-occurrence order.
///  - Per-morsel scratch is measured per morsel, as the bytes the morsel
///    allocated, and folded in morsel-index order. Scratch that must
///    outlive its morsel (the multi-morsel projection's local indexes)
///    stays in the worker slot's arena until the call returns. Each
///    morsel has one trace span (carrying its morsel_id, 0 for a
///    one-morsel call) covering its work in every phase, morsel 0's also
///    the shared build; only the worker running the morsel writes it,
///    and the calling thread records a call's spans in morsel-index
///    order.
///
/// Nullary schemas (Boolean queries) hold at most the empty tuple; their
/// kernels run as one morsel whatever the MorselExec says.
///
/// The spans are the kernels' only per-morsel record: their rows_out add
/// up to the rows the call produced, written or read unwritten, which is
/// what the morsel-accounting verifier (exec/verify_hook.h) checks after
/// a morsel-driven run. A counted join's spans record its count; work a
/// consumer does on its unwritten rows is timed in the consumer's spans.

/// How a kernel call partitions its probe/input side into morsels and
/// where the morsels run. The default is the serial configuration: one
/// morsel covering the whole input, run inline on the calling thread
/// with the context arena.
///
/// Layering: this struct knows nothing about threads. It is a
/// dependency-free seam; the morsel driver in src/runtime fills in its
/// resolved morsel size, a ThreadPool-backed parallel_for, and per-worker
/// arenas.
struct MorselExec {
  /// Rows per morsel; 0 (the default) runs each kernel call as a single
  /// morsel, whatever its input size.
  int64_t morsel_rows = 0;

  /// Number of worker slots parallel_for may use (worker indices passed
  /// to the body are in [0, num_workers)). Ignored when parallel_for is
  /// unset.
  int num_workers = 1;

  /// parallel_for(count, body) must invoke body(m, w) exactly once for
  /// every m in [0, count), possibly concurrently, with w naming the
  /// worker slot running that morsel, and return only after all morsels
  /// finished. Unset (the default) runs morsels inline, in order, on the
  /// calling thread with worker slot 0.
  std::function<void(int64_t, const std::function<void(int64_t, int)>&)>
      parallel_for;

  /// Scratch arena for each worker slot; worker_arenas[w] is only ever
  /// used by the single morsel currently running on slot w (kernels
  /// bracket per-morsel scratch with an ArenaScope). Required when
  /// parallel_for is set; when empty, kernels fall back to the context
  /// arena (safe only inline).
  std::vector<ExecArena*> worker_arenas;

  /// Rows per morsel for an input of `rows` rows: morsel_rows, or the
  /// whole input when morsel_rows is 0.
  int64_t MorselRows(int64_t rows) const;

  /// Number of morsels covering `rows` input rows.
  int64_t NumMorsels(int64_t rows) const;

  /// Runs body(m, w) for all m in [0, count): through parallel_for when
  /// set, otherwise inline, in order, on the calling thread with worker
  /// slot 0 (without wrapping `body` in a std::function).
  template <typename Body>
  void ForEachMorsel(int64_t count, const Body& body) const {
    if (!parallel_for) {
      for (int64_t m = 0; m < count; ++m) body(m, 0);
      return;
    }
    ForEachMorselParallel(count, body);
  }

 private:
  void ForEachMorselParallel(
      int64_t count, const std::function<void(int64_t, int)>& body) const;
};

/// Scan kernel: instantiates a stored relation under an atom binding.
Relation ScanAtom(const Relation& stored, const ScanSpec& spec,
                  ExecContext& ctx, const MorselExec& mx = {});

namespace batch_internal {

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
  MorselSlots(MorselSlots&& other) noexcept { *this = std::move(other); }
  MorselSlots& operator=(MorselSlots&& other) noexcept {
    size_ = other.size_;
    heap_ = std::move(other.heap_);
    std::copy(other.inline_, other.inline_ + kInline, inline_);
    data_ = size_ > kInline ? heap_.data() : inline_;
    return *this;
  }
  MorselSlots(const MorselSlots&) = delete;
  MorselSlots& operator=(const MorselSlots&) = delete;

  int64_t& operator[](int64_t i) { return data_[i]; }
  int64_t operator[](int64_t i) const { return data_[i]; }
  int64_t size() const { return size_; }

 private:
  static constexpr int64_t kInline = 2;
  int64_t size_ = 0;
  int64_t inline_[kInline] = {0, 0};
  std::vector<int64_t> heap_;
  int64_t* data_ = inline_;
};

// One trace span per morsel of a kernel call, covering that morsel's
// work in every phase (morsel 0's also covers any shared build). Only the
// worker running morsel m writes span m; once all morsels finished, the
// calling thread records the spans into the run's sink in morsel-index
// order, so workers never touch the sink and the span order does not
// depend on the schedule. Inert without a sink.
class MorselSpans {
 public:
  MorselSpans(TraceSink* sink, TraceOp op, int32_t node_id,
              int64_t num_morsels);

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

  // Adds the time of `other`'s spans, a partition of the same call's
  // work into other.size() morsels, to this call's spans: other's span k
  // to span min(k, size() - 1). Runs on the calling thread.
  void AddTimeOf(const MorselSpans& other);

  void RecordInOrder();

 private:
  TraceSink* sink_;
  std::vector<TraceSpan> spans_;
};

}  // namespace batch_internal

/// The input of a join that a projection over it keeps whole when that
/// input's rows are pairwise distinct: every one of its attributes is in
/// the projected key, so two of its rows never give the same key. Only
/// the plan knows it (exec/physical_plan.h derives it per node).
enum class KeyedSide : uint8_t { kNone, kLeft, kRight };

/// Hash join, counting half: builds the index over the smaller input on
/// the calling thread, counts each probe morsel's matches (phase A),
/// then charges and notes the exact output as HashJoin does, all in the
/// constructor. The rows
/// stay unwritten until a consumer resolves the call:
///
///  - Write() runs phase B into exact disjoint ranges, which is HashJoin;
///  - ProjectColumns(CountedJoin&&, ...) deduplicates the projected key
///    of every (probe row, build row) pair straight from the inputs;
///  - CountJoin(CountedJoin&&, ...) counts the next fold step's output
///    through those pairs when it may exhaust the budget, and writes
///    this join only when it does not.
///
/// A join whose rows nobody reads is never written: its spans say what
/// it produced (rows_out is the rows charged and kept, written or not)
/// and its footprint is its scratch. An exhausting call, or one
/// with an empty or nullary input, resolves at once; rows() is then what
/// it returns. The index and phase-A scratch live in the context arena
/// from the count until the consumer resolves the call, above the
/// checkpoint taken when counting started, and the destructor restores
/// that checkpoint (closing the call's spans first if no consumer did).
/// The object owns its inputs; the spec and the MorselExec must outlive
/// it.
class CountedJoin {
 public:
  /// Counts the join of two written inputs, which it owns from then on.
  CountedJoin(Relation left, Relation right, const JoinSpec& spec,
              ExecContext& ctx, const MorselExec& mx = {});
  CountedJoin(CountedJoin&& other) noexcept;
  /// Resolves this call as the destructor does, then takes `other`'s.
  CountedJoin& operator=(CountedJoin&& other) noexcept;
  CountedJoin(const CountedJoin&) = delete;
  CountedJoin& operator=(const CountedJoin&) = delete;
  ~CountedJoin();

  /// Rows the join produced and keeps: its exact output, or 0 when it
  /// exhausted the budget.
  int64_t rows() const { return rows_; }

  /// Phase B: writes the counted rows, in probe-row then build-row order,
  /// and closes the call.
  Relation Write() &&;

 private:
  friend class JoinRows;
  friend CountedJoin CountJoin(CountedJoin&&, Relation, const JoinSpec&,
                               ExecContext&, const MorselExec&);
  friend Relation HashJoin(const Relation&, const Relation&, const JoinSpec&,
                           ExecContext&, const MorselExec&);
  friend Relation ProjectColumns(CountedJoin&&, const ProjectSpec&,
                                 ExecContext&, const MorselExec&, KeyedSide);

  // An index built, and maybe counted through, before the probe side was
  // written (CountJoin over a counted join).
  struct Prebuilt;

  // Counts the join of `left` and `right`, which must outlive the object
  // (or be moved into owned_left_ / owned_right_). With `prebuilt`, its
  // index over `right` is reused and its time is this call's; the
  // caller hands the object a checkpoint to restore.
  CountedJoin(const Relation& left, const Relation& right,
              const JoinSpec& spec, ExecContext& ctx, const MorselExec& mx,
              const Prebuilt* prebuilt);
  // A call that resolved elsewhere, keeping nothing.
  CountedJoin(const JoinSpec& spec, ExecContext& ctx, const MorselExec& mx);

  // Whether the rows are still unwritten, so a consumer can stream them.
  bool streamable() const { return open_; }
  // Records the call's spans and footprint (scratch plus `out_bytes`).
  void Close(int64_t out_bytes);
  // Restores the arena checkpoint the call's scratch began at.
  void Release();

  ExecContext* ctx_ = nullptr;
  const MorselExec* mx_ = nullptr;
  const JoinSpec* spec_ = nullptr;
  // The arena holding the call's scratch from mark_ on; null once the
  // scratch is released or another call took the checkpoint over.
  ExecArena* arena_ = nullptr;
  ExecArena::Checkpoint mark_;
  // Inputs handed over with the call (their rows do not move with them).
  Relation owned_left_;
  Relation owned_right_;
  // Whole output of a call that resolved while counting, then the
  // written rows.
  Relation out_;
  bool build_left_ = false;
  const Value* left_base_ = nullptr;
  const Value* right_base_ = nullptr;
  int left_arity_ = 0;
  int right_arity_ = 0;
  int64_t probe_rows_ = 0;
  std::optional<JoinIndex> index_;
  int64_t rows_ = 0;
  int64_t morsel_rows_ = 0;
  int64_t num_morsels_ = 0;
  batch_internal::MorselSlots offsets_;
  batch_internal::MorselSlots scratch_;
  batch_internal::MorselSpans spans_;
  Counter shared_bytes_ = 0;
  // Counted with rows to keep, and not yet written or closed.
  bool open_ = false;
};

/// Counts a join whose left input is a counted, unwritten join P. When P
/// is this join's probe side and |P| times the largest group of this
/// join's index reaches budget_headroom(), the output is counted through
/// P's (probe row, build row) pairs, per morsel of P's probe side; if
/// that total reaches the headroom this join charges and notes
/// min(total, headroom) rows as an exhausting HashJoin does, and P is
/// never written. Otherwise P is written and this join counts over it,
/// reusing its index. Either way P is resolved, and the rows, every stat
/// but peak_bytes, the exhaustion point and each call's span rows equal
/// CountedJoin(P.Write(), right)'s.
CountedJoin CountJoin(CountedJoin&& left, Relation right,
                      const JoinSpec& spec, ExecContext& ctx,
                      const MorselExec& mx = {});

/// Hash-join kernel: a CountedJoin, then Write(). The build-side index (the
/// smaller input) is constructed once on the calling thread, the larger
/// input is probed per morsel (two-phase: counting probe, then
/// materialization into exact disjoint ranges). Emit order is probe-row
/// order, then build-row order.
Relation HashJoin(const Relation& left, const Relation& right,
                  const JoinSpec& spec, ExecContext& ctx,
                  const MorselExec& mx = {});

/// Projection kernel (DISTINCT): morsel-local dedup into per-morsel
/// FlatKeyIndexes, then a sequential merge in morsel-index order, which
/// keeps the global first-occurrence emit order. An empty column list
/// yields a nullary relation that is nonempty iff the input is (Boolean
/// queries).
Relation ProjectColumns(const Relation& input, const ProjectSpec& spec,
                        ExecContext& ctx, const MorselExec& mx = {});

/// The same projection over a counted join's unwritten rows: each of the
/// join's probe morsels probes again and assembles every match's
/// projected key, from the probe row and the build row, straight into
/// the dedup index.
///
/// When `keyed` names the join's probe side (and the projection keeps
/// some column), keys of different probe rows never collide, so the
/// projection deduplicates once per key group instead: it keeps each
/// group's first build row for every distinct value of the key's
/// build-row share (one small index over the build side), then counts
/// each probe morsel's keys (phase A) and writes the first
/// min(distinct, headroom) of them into exact disjoint ranges (phase B),
/// with no index over the output. A keyed side that is the build side
/// streams as above.
///
/// Either way the rows, their first-occurrence order, every stat but
/// peak_bytes and the stop at the headroom equal
/// ProjectColumns(input.Write(), ...); the join's spans record its
/// count, the projection has one span per probe morsel timing the work
/// on the join's rows, and its scratch sits above the join's and is
/// released first.
Relation ProjectColumns(CountedJoin&& input, const ProjectSpec& spec,
                        ExecContext& ctx, const MorselExec& mx = {},
                        KeyedSide keyed = KeyedSide::kNone);

/// Semijoin kernel: left tuples with at least one match in right, in
/// left order. A key filter is built from the right side, and one pass
/// over the left side probes and copies; a call is always one morsel
/// (nothing morsel-drives a semijoin: plan runs contain none).
Relation SemiJoinFiltered(const Relation& left, const Relation& right,
                          const SemiJoinSpec& spec, ExecContext& ctx);

}  // namespace ppr

#endif  // PPR_RELATIONAL_BATCH_OPS_H_
