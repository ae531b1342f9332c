#ifndef PPR_RELATIONAL_BATCH_OPS_H_
#define PPR_RELATIONAL_BATCH_OPS_H_

#include <cstddef>
#include <cstdint>

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
/// see KeyedSide), or the next fold step counting through it. A fold step
/// over a counted join stays counted, so a left-deep fold is a chain of
/// unwritten joins over one written base (CountJoin).
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
/// join's span records its count and is recorded when the next call
/// reads it; its time adds up the join's build and count, and its write
/// when Write() is what reads it. Work a reader does enumerating the
/// unwritten chain below it again is timed, and its probes are counted,
/// in the reader's span.

/// Scan kernel: instantiates a stored relation under an atom binding.
Relation ScanAtom(const Relation& stored, const ScanSpec& spec,
                  ExecContext& ctx);

/// The input of a join that a projection over it keeps whole when that
/// input's rows are pairwise distinct: every one of its attributes is in
/// the projected key, so two of its rows never give the same key. Only
/// the plan knows it (exec/physical_plan.h derives it per node).
enum class KeyedSide : uint8_t { kNone, kLeft, kRight };

/// One fold step of a chain of counted joins (defined in batch_ops.cc).
struct ChainLevel;

/// Hash join, counting half: builds the index over the smaller input,
/// counts the probe side's matches, then charges and notes the exact
/// output as HashJoin does, all in the constructor. The rows stay
/// unwritten until a consumer resolves the call:
///
///  - Write() copies them into an output sized exactly, which is
///    HashJoin;
///  - ProjectColumns(CountedJoin&&, ...) deduplicates the projected key
///    of every row straight from the rows it is made of;
///  - CountJoin(CountedJoin&, ...) counts the next fold step through
///    them, and the object then stands for that step.
///
/// The object is a chain: a written base (the first join's probe side,
/// or the last level written) and levels 1..d of joins, each probing
/// the level below it (level 1 the base) and building on a written
/// input. Its rows are level d's, enumerated from the base through the
/// levels' indexes whenever they are read.
///
/// A join whose rows nobody reads is never written: its span says what
/// it produced (rows_out is the rows charged and kept, written or not)
/// and its footprint is its scratch. An exhausting call, or one
/// with an empty or nullary input, resolves at once; rows() is then what
/// it returns. The levels' indexes live in the context arena from their
/// count until the chain is resolved, above the checkpoint taken when
/// its first level was counted, and the destructor restores that
/// checkpoint (recording the top level's span first if no consumer did).
/// The object owns its inputs; the specs must outlive it.
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

  /// Writes the counted rows, in probe-row then build-row order at every
  /// level, and closes the call.
  Relation Write() &&;

 private:
  friend class ChainRows;
  friend void CountJoin(CountedJoin&, Relation, const JoinSpec&,
                        ExecContext&);
  friend Relation HashJoin(const Relation&, const Relation&, const JoinSpec&,
                           ExecContext&);
  friend Relation ProjectColumns(CountedJoin&&, const ProjectSpec&,
                                 ExecContext&, KeyedSide);

  // Counts the join of `left` and `right`, which must outlive the object
  // (or be moved into owned_base_ and the level it builds).
  CountedJoin(const Relation& left, const Relation& right,
              const JoinSpec& spec, ExecContext& ctx, std::nullptr_t);

  // Whether the rows are still unwritten, so a consumer can stream them.
  bool streamable() const { return open_; }
  // Counts the next fold step through the top level, over the written
  // `right`, and makes it the top (CountJoin).
  void Extend(Relation right, const JoinSpec& spec);
  // Counts the top level through the chain, stopping once the count
  // reaches the headroom; a cross product is counted from its inputs'
  // sizes. Adds the probes to `span`; returns the count.
  int64_t CountTop(TraceSpan& span);
  // Records the top level's span and footprint (scratch plus
  // `out_bytes`).
  void Close(int64_t out_bytes);
  // Frees the levels and restores the arena checkpoint the chain's
  // scratch began at.
  void Release();

  ExecContext* ctx_ = nullptr;
  // The arena holding the chain's scratch from mark_ on; null once it is
  // released.
  ExecArena* arena_ = nullptr;
  ExecArena::Checkpoint mark_;
  // The chain's base: its rows (owned_base_ when the chain owns them).
  Relation owned_base_;
  const Value* base_ = nullptr;
  int base_arity_ = 0;
  int64_t base_rows_ = 0;
  // Whole output of a call that resolved while counting, then the
  // written rows; empty with the top's schema while the rows are open.
  Relation out_;
  ChainLevel* top_ = nullptr;
  int depth_ = 0;
  int64_t rows_ = 0;
  // The top level's scratch bytes.
  Counter scratch_bytes_ = 0;
  // The top level's span, recorded when its call closes.
  TraceSpan span_;
  // Counted with rows to keep, and not yet written or closed.
  bool open_ = false;
};

/// Counts a join whose left input is a counted, unwritten join P, the top
/// level of `chain`, which then stands for this join. P is written, and
/// this join counts over it as the base of a new chain, when P resolved,
/// when it is this join's build side (no larger than `right`), or when
/// the exact counts say that writing it costs less than enumerating it
/// again: when |P| x |right| stays below budget_headroom(), so that this
/// count cannot exhaust the budget and some call reads P again (a copied
/// row costs less than the probes that enumerate it). Otherwise the join
/// becomes the chain's next level: its output is counted through P's
/// rows, enumerated from the chain's base, and P is never written.
/// Either way P's call ends, and the rows, every stat but peak_bytes, the
/// exhaustion point and each call's span rows equal
/// CountedJoin(P.Write(), right)'s.
void CountJoin(CountedJoin& chain, Relation right, const JoinSpec& spec,
               ExecContext& ctx);

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
/// probe side is enumerated again (through the chain below it), and
/// every match's projected key is assembled, from the rows it is made
/// of, straight into the dedup index.
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
