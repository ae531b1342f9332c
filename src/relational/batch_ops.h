#ifndef PPR_RELATIONAL_BATCH_OPS_H_
#define PPR_RELATIONAL_BATCH_OPS_H_

#include <cstdint>
#include <optional>

#include "common/arena.h"
#include "common/types.h"
#include "obs/trace.h"
#include "relational/exec_context.h"
#include "relational/flat_hash.h"
#include "relational/ops.h"
#include "relational/relation.h"

namespace ppr {

/// The operator kernels — the engine's only kernel set. Each call is one
/// pass over its whole input on the calling thread and records one trace
/// span (none when an input is empty). A hash join writes its output
/// only when it is read: a CountedJoin counts and charges it, and a
/// consumer either writes it (CountedJoin::Write, which is HashJoin) or
/// reads it unwritten — a projection deduplicating straight from the
/// probe (once per key group when the plan says the probe side is keyed,
/// see KeyedSide), or the next join counting through it when it may
/// exhaust the budget.
///
/// Scan and join run in two steps, with every key assembled in place
/// from its row: a count pass, then a copy pass into an output sized
/// exactly. Projection deduplicates into a single hash index whose key
/// store is the output. The semijoin probes and copies in one loop. A
/// keyed projection over a counted join needs no dedup of its output and
/// counts, then copies, too.
///
/// Budget and accounting contract (the property tests rely on it):
///
///  - A call whose total output reaches budget_headroom() exhausts the
///    budget. It charges and notes min(total, headroom) rows — the row a
///    sequential tuple-at-a-time loop would stop at — and returns an
///    empty relation, writing no output: every budgeted caller discards
///    an exhausted run's output. The semijoin, which learns its size as
///    it copies, truncates what it wrote to nothing.
///    Projection learns its size only by deduplicating (a keyed one by
///    counting): it keeps its first min(distinct, headroom) keys in
///    first-occurrence order.
///  - A call's footprint is its arena scratch plus its output bytes
///    (ExecStats::NotePeakBytes), and its span's `bytes` is that
///    footprint.
///
/// Nullary schemas (Boolean queries) hold at most the empty tuple.
///
/// The spans are the kernels' only per-call record: their rows_out add
/// up to the rows the run produced, written or read unwritten, which the
/// kernel-span verifier (analysis/physical_verifier.h) checks. A counted
/// join's span records its count, and its time adds up the join's build,
/// count and write; work a consumer does on its unwritten rows is timed
/// in the consumer's span.

/// Scan kernel: instantiates a stored relation under an atom binding.
Relation ScanAtom(const Relation& stored, const ScanSpec& spec,
                  ExecContext& ctx);

/// The input of a join that a projection over it keeps whole when that
/// input's rows are pairwise distinct: every one of its attributes is in
/// the projected key, so two of its rows never give the same key. Only
/// the plan knows it (exec/physical_plan.h derives it per node).
enum class KeyedSide : uint8_t { kNone, kLeft, kRight };

/// Hash join, counting half: builds the index over the smaller input,
/// counts the probe side's matches, then charges and notes the exact
/// output as HashJoin does, all in the constructor. The rows stay
/// unwritten until a consumer resolves the call:
///
///  - Write() copies them into an output sized exactly, which is
///    HashJoin;
///  - ProjectColumns(CountedJoin&&, ...) deduplicates the projected key
///    of every (probe row, build row) pair straight from the inputs;
///  - CountJoin(CountedJoin&&, ...) counts the next fold step's output
///    through those pairs when it may exhaust the budget, and writes
///    this join only when it does not.
///
/// A join whose rows nobody reads is never written: its span says what
/// it produced (rows_out is the rows charged and kept, written or not)
/// and its footprint is its scratch. An exhausting call, or one
/// with an empty or nullary input, resolves at once; rows() is then what
/// it returns. The index and the probe-key scratch live in the context
/// arena from the count until the consumer resolves the call, above the
/// checkpoint taken when counting started, and the destructor restores
/// that checkpoint (recording the call's span first if no consumer did).
/// The object owns its inputs; the spec must outlive it.
class CountedJoin {
 public:
  /// Counts the join of two written inputs, which it owns from then on.
  CountedJoin(Relation left, Relation right, const JoinSpec& spec,
              ExecContext& ctx);
  CountedJoin(CountedJoin&& other) noexcept;
  /// Resolves this call as the destructor does, then takes `other`'s.
  CountedJoin& operator=(CountedJoin&& other) noexcept;
  CountedJoin(const CountedJoin&) = delete;
  CountedJoin& operator=(const CountedJoin&) = delete;
  ~CountedJoin();

  /// Rows the join produced and keeps: its exact output, or 0 when it
  /// exhausted the budget.
  int64_t rows() const { return rows_; }

  /// Writes the counted rows, in probe-row then build-row order, and
  /// closes the call.
  Relation Write() &&;

 private:
  friend class JoinRows;
  friend CountedJoin CountJoin(CountedJoin&&, Relation, const JoinSpec&,
                               ExecContext&);
  friend Relation HashJoin(const Relation&, const Relation&, const JoinSpec&,
                           ExecContext&);
  friend Relation ProjectColumns(CountedJoin&&, const ProjectSpec&,
                                 ExecContext&, KeyedSide);

  // An index built, and maybe counted through, before the probe side was
  // written (CountJoin over a counted join).
  struct Prebuilt;

  // Counts the join of `left` and `right`, which must outlive the object
  // (or be moved into owned_left_ / owned_right_). With `prebuilt`, its
  // index over `right` is reused and its time is this call's; the
  // caller hands the object a checkpoint to restore.
  CountedJoin(const Relation& left, const Relation& right,
              const JoinSpec& spec, ExecContext& ctx,
              const Prebuilt* prebuilt);
  // A call that resolved elsewhere, keeping nothing.
  CountedJoin(const JoinSpec& spec, ExecContext& ctx);

  // Whether the rows are still unwritten, so a consumer can stream them.
  bool streamable() const { return open_; }
  // Records the call's span and footprint (scratch plus `out_bytes`).
  void Close(int64_t out_bytes);
  // Restores the arena checkpoint the call's scratch began at.
  void Release();

  ExecContext* ctx_ = nullptr;
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
  // Scratch for one probe row's key, in the arena; a consumer reading
  // the rows unwritten probes with it too.
  Value* probe_key_ = nullptr;
  int64_t rows_ = 0;
  // The index's and the probe key's bytes.
  Counter scratch_bytes_ = 0;
  // The call's span, recorded when the call closes.
  TraceSpan span_;
  // Counted with rows to keep, and not yet written or closed.
  bool open_ = false;
};

/// Counts a join whose left input is a counted, unwritten join P. When P
/// is this join's probe side and |P| times the largest group of this
/// join's index reaches budget_headroom(), the output is counted through
/// P's (probe row, build row) pairs; if that total reaches the headroom
/// this join charges and notes min(total, headroom) rows as an
/// exhausting HashJoin does, and P is never written. Otherwise P is
/// written and this join counts over it, reusing its index. Either way P
/// is resolved, and the rows, every stat but peak_bytes, the exhaustion
/// point and each call's span rows equal CountedJoin(P.Write(), right)'s.
CountedJoin CountJoin(CountedJoin&& left, Relation right,
                      const JoinSpec& spec, ExecContext& ctx);

/// Hash-join kernel: a CountedJoin, then Write(). The build-side index
/// (the smaller input) is constructed once, the larger input is probed
/// twice (a counting probe, then materialization into an output sized
/// exactly). Emit order is probe-row order, then build-row order.
Relation HashJoin(const Relation& left, const Relation& right,
                  const JoinSpec& spec, ExecContext& ctx);

/// Projection kernel (DISTINCT): one dedup index whose key store is the
/// output, so the rows come out in first-occurrence order. An empty
/// column list yields a nullary relation that is nonempty iff the input
/// is (Boolean queries).
Relation ProjectColumns(const Relation& input, const ProjectSpec& spec,
                        ExecContext& ctx);

/// The same projection over a counted join's unwritten rows: the join's
/// probe side is probed again, and every match's projected key is
/// assembled, from the probe row and the build row, straight into the
/// dedup index.
///
/// When `keyed` names the join's probe side (and the projection keeps
/// some column), keys of different probe rows never collide, so the
/// projection deduplicates once per key group instead: it keeps each
/// group's first build row for every distinct value of the key's
/// build-row share (one small index over the build side), then counts
/// the probe rows' keys and writes the first min(distinct, headroom) of
/// them into an output sized exactly, with no index over the output. A
/// keyed side that is the build side streams as above.
///
/// Either way the rows, their first-occurrence order, every stat but
/// peak_bytes and the stop at the headroom equal
/// ProjectColumns(input.Write(), ...); the join's span records its
/// count, the projection's span times the work on the join's rows, and
/// its scratch sits above the join's and is released first.
Relation ProjectColumns(CountedJoin&& input, const ProjectSpec& spec,
                        ExecContext& ctx, KeyedSide keyed = KeyedSide::kNone);

/// Semijoin kernel: left tuples with at least one match in right, in
/// left order. A key filter is built from the right side, and one pass
/// over the left side probes and copies.
Relation SemiJoinFiltered(const Relation& left, const Relation& right,
                          const SemiJoinSpec& spec, ExecContext& ctx);

}  // namespace ppr

#endif  // PPR_RELATIONAL_BATCH_OPS_H_
