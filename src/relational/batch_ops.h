#ifndef PPR_RELATIONAL_BATCH_OPS_H_
#define PPR_RELATIONAL_BATCH_OPS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/arena.h"
#include "common/types.h"
#include "relational/exec_context.h"
#include "relational/ops.h"
#include "relational/relation.h"

namespace ppr {

/// The operator kernels — the engine's only kernel set. Each kernel
/// partitions its probe/input side into morsels as its MorselExec (below)
/// says, runs the per-morsel work, and materializes every morsel into a
/// precomputed disjoint slice of the output.
///
/// Serial callers pass the default MorselExec: the whole input is one
/// morsel, and only the morsel driver (runtime/morsel_driver.h) splits
/// inputs into several. Scan and join run the same two phases (below)
/// at any morsel count, with every key assembled in place from its row;
/// one morsel makes them a count pass and a copy pass. Semijoin and
/// projection have a one-morsel pass of their own: semijoin probes and
/// copies in one loop, and projection deduplicates into a single hash
/// index, whose key store is the output, instead of merging morsel-local
/// ones.
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
///    an exhausted run's output. The one-morsel semijoin, which learns
///    its size as it copies, truncates what it wrote to nothing.
///    Projection learns its size only by deduplicating: it keeps its
///    first min(distinct, headroom) keys in first-occurrence order.
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
/// up to the call's output, which is what the morsel-accounting verifier
/// (exec/verify_hook.h) checks after a morsel-driven run.

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

/// Hash-join kernel: the build-side index (the smaller input) is
/// constructed once on the calling thread, the larger input is probed
/// per morsel (two-phase: counting probe, then materialization into
/// exact disjoint ranges). Emit order is probe-row order, then
/// build-row order.
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

/// Semijoin kernel: left tuples with at least one match in right. A
/// shared key filter is built from the right side, and the left side is
/// probed per morsel.
Relation SemiJoinFiltered(const Relation& left, const Relation& right,
                          const SemiJoinSpec& spec, ExecContext& ctx,
                          const MorselExec& mx = {});

}  // namespace ppr

#endif  // PPR_RELATIONAL_BATCH_OPS_H_
