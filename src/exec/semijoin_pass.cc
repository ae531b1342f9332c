#include "exec/semijoin_pass.h"

#include <optional>
#include <string>

#include "common/check.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/batch_ops.h"
#include "relational/ops.h"

namespace ppr {

SemijoinPassResult SemijoinReduce(const ConjunctiveQuery& query,
                                  const Database& db, int max_rounds) {
  SemijoinPassResult out;
  out.status = query.Validate(db);
  if (!out.status.ok()) return out;
  const int m = query.num_atoms();
  PPR_CHECK(m > 0);

  // Traced, the pass records into a private sink and publishes it with
  // its stats at the end (PublishRun), as ExecuteCompiled does.
  std::optional<TraceSink> trace;
  if (TracingEnabled()) trace.emplace();
  ExecContext ctx;
  ctx.set_tracer(trace.has_value() ? &*trace : nullptr);

  // Materialize each atom as its own relation over the atom's attributes.
  std::vector<Relation> relations;
  relations.reserve(static_cast<size_t>(m));
  for (const Atom& atom : query.atoms()) {
    const Relation* stored = *db.Get(atom.relation);
    relations.push_back(BindAtom(*stored, atom.args, ctx));
  }

  // Atoms that share at least one attribute exchange semijoins. A
  // semijoin preserves its target's schema, so the key-column maps are
  // invariant across fixpoint rounds — compile each direction's spec
  // once here instead of re-deriving it every round.
  struct Reduction {
    int target;
    int filter;
    SemiJoinSpec spec;
  };
  std::vector<Reduction> reductions;
  for (int i = 0; i < m; ++i) {
    for (int j = i + 1; j < m; ++j) {
      const Schema& si = relations[static_cast<size_t>(i)].schema();
      const Schema& sj = relations[static_cast<size_t>(j)].schema();
      if (si.CommonAttrs(sj).empty()) continue;
      reductions.push_back({i, j, PlanSemiJoin(si, sj)});
      reductions.push_back({j, i, PlanSemiJoin(sj, si)});
    }
  }

  // Fixpoint: keep running the semijoin program until a pass removes
  // nothing (or the round bound is hit).
  for (int round = 0; round < max_rounds; ++round) {
    Counter removed_this_round = 0;
    for (const Reduction& r : reductions) {
      Relation& target = relations[static_cast<size_t>(r.target)];
      const Relation& filter = relations[static_cast<size_t>(r.filter)];
      const int64_t before = target.size();
      target = SemiJoinFiltered(target, filter, r.spec, ctx);
      removed_this_round += before - target.size();
    }
    out.tuples_removed += removed_this_round;
    if (removed_this_round == 0) break;
  }
  // The kernel counts its own invocations now (ExecStats::num_semijoins);
  // report the same number so the two views cannot drift.
  out.semijoins_performed = ctx.stats().num_semijoins;
  if (trace.has_value()) {
    MetricsRegistry run_metrics;
    ctx.stats().PublishTo(&run_metrics);
    PublishRun(run_metrics, *trace);
  }

  // Rewrite the query so atom i reads its reduced relation; attribute
  // order of the new relation is the atom's distinct-attribute order, so
  // the rewritten atom lists exactly those attributes (repeats are
  // already folded into the reduced relation).
  for (int i = 0; i < m; ++i) {
    const std::string name = "atom" + std::to_string(i);
    if (relations[static_cast<size_t>(i)].empty()) out.proven_empty = true;
    Atom atom;
    atom.relation = name;
    atom.args = relations[static_cast<size_t>(i)].schema().attrs();
    out.query.AddAtom(std::move(atom));
    out.db.Put(name, std::move(relations[static_cast<size_t>(i)]));
  }
  out.query.SetFreeVars(query.free_vars());
  return out;
}

}  // namespace ppr
