#ifndef PPR_RUNTIME_PLAN_CACHE_H_
#define PPR_RUNTIME_PLAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "benchlib/harness.h"
#include "common/status.h"
#include "common/types.h"
#include "exec/executor.h"
#include "exec/physical_plan.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"

namespace ppr {

/// A query renamed onto canonical attribute ids 0..n-1 with atoms in a
/// canonical order, plus the mapping back. Two queries with equal
/// `structure` bytes are guaranteed isomorphic (the encoding fully
/// describes the canonical query, so equal encodings mean both inputs
/// rename onto the *same* query) — that soundness is what makes
/// fingerprint-keyed plan sharing safe. The converse is heuristic:
/// attribute ranks come from Weisfeiler-Leman-style color refinement over
/// the atom incidence structure, which separates every vertex of the
/// rigid random instances the paper generates but can split isomorphic
/// copies of highly symmetric queries into distinct fingerprints (a
/// missed cache hit, never a wrong answer).
struct CanonicalQuery {
  /// The relabeled query: attributes 0..n-1 by canonical rank, atoms
  /// sorted by (relation, canonical args), free vars sorted.
  ConjunctiveQuery query;
  /// Deterministic byte encoding of `query` — the structural fingerprint.
  std::string structure;
  /// canonical id -> original attribute id (size = number of attributes).
  std::vector<AttrId> from_canonical;
};

/// Canonicalizes `query` as described above. Cost is a few refinement
/// rounds over the atom list — comparable to building one logical plan,
/// and amortized away by every cache hit it enables.
CanonicalQuery CanonicalizeQuery(const ConjunctiveQuery& query);

/// Rewrites a result relation computed over canonical attribute ids back
/// to the original query's ids, with columns in ascending
/// original-attribute order — exactly the schema a direct execution of
/// the original query produces (root projected labels are sorted). Every
/// front end runs cached canonical plans through it, which is what keeps
/// their answers byte-identical.
Relation RemapOutputFromCanonical(const Relation& output,
                                  const std::vector<AttrId>& from_canonical);

/// Hash of a CanonicalQuery::structure encoding — the 64-bit structural
/// fingerprint the query log records per job (obs/telemetry/query_log.h).
/// Deterministic across runs and platforms (fixed-constant SplitMix64
/// mixing, no seed), so exported JSONL fingerprints are comparable
/// between runs. Collisions only blur telemetry grouping; cache
/// soundness never rests on this hash (keys compare structure bytes).
uint64_t FingerprintQueryStructure(const std::string& structure);

/// Content fingerprint of a catalog: relation names, arities, and tuple
/// data. The paper's databases are tiny (the 3-COLOR `edge` relation has
/// six tuples), so hashing content per batch is noise; it catches re-Put
/// relations that would invalidate compiled plans.
uint64_t FingerprintDatabase(const Database& db);

/// Cache key: everything plan construction + compilation depends on.
/// `db` is the identity of the catalog instance (compiled leaves hold
/// pointers into it, so plans must never be shared across Database
/// objects even with equal content); `db_fingerprint` additionally pins
/// the content version.
struct PlanCacheKey {
  std::string structure;  // CanonicalQuery::structure
  StrategyKind strategy = StrategyKind::kStraightforward;
  uint64_t seed = 0;
  /// Every entry ResolvePlan builds joins by hashing.
  JoinAlgorithm join_algorithm = JoinAlgorithm::kHash;
  const Database* db = nullptr;
  uint64_t db_fingerprint = 0;

  bool operator==(const PlanCacheKey&) const = default;
};

uint64_t HashPlanCacheKey(const PlanCacheKey& key);

/// One cache entry: what a request reads to run a query of the key's
/// structure. Immutable after construction; workers run it via
/// PhysicalPlan::ExecuteShared (const) with their own arenas.
struct CachedPlan {
  /// Empty in every entry ResolvePlan builds, and read by nothing; it
  /// stays declared because perfbench's serve replay builds entries by
  /// position.
  ConjunctiveQuery query;
  PhysicalPlan physical;
  /// Static join width of the logical plan the physical plan was lowered
  /// from (the predicted width replies and query records carry).
  int plan_width = 0;
  /// AnalyzePlan's tuples_produced_bound for the plan: what the query
  /// service's admission controller charges. +infinity when the analyzer
  /// cannot bound the plan.
  double tuples_bound = std::numeric_limits<double>::infinity();
  /// FingerprintQueryStructure of the key's structure, so a cache hit
  /// reads it instead of hashing the structure a second time.
  uint64_t fingerprint = 0;
};

/// Sharded LRU cache of compiled plans keyed by structural fingerprint,
/// so isomorphic generated instances share one compilation.
///
/// Concurrency: each shard is an independent annotated Mutex + LRU list
/// (every shard field is GUARDED_BY its shard mutex — see plan_cache.cc
/// — so the sharding contract is compiler-checked under
/// PPR_THREAD_SAFETY); a lookup touches exactly one shard lock and never
/// blocks on another shard's compile. Misses are *single-flight*: the first thread to miss a key
/// compiles it with the shard lock released while every later arrival
/// waits for that one compilation — so one compile per distinct key, and
/// hit/miss counters are deterministic regardless of worker interleaving
/// (hit = "did not run the factory"). Eviction counts are deterministic
/// whenever capacity is never exceeded; under eviction pressure the LRU
/// order (and thus which keys evict) depends on scheduling.
class PlanCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
  };

  /// `capacity` bounds the number of cached plans across all shards
  /// (rounded up to at least one per shard).
  explicit PlanCache(size_t capacity = 1024, int num_shards = 8);
  ~PlanCache();

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Builds a CachedPlan on a miss. Runs without any cache lock held;
  /// must be pure given the key (same key -> same plan), which holds for
  /// ResolvePlan's factory on the canonical query.
  using Factory = std::function<Result<CachedPlan>()>;

  /// Returns the cached plan for `key`, compiling it via `factory` on the
  /// first miss. Concurrent requests for the same key wait for the single
  /// in-flight compile. Factory errors propagate to all waiters and are
  /// not cached (the next request retries). `compiled_here`, when
  /// non-null, is set to whether *this* call ran the factory — per-call
  /// raw material for telemetry (which job actually compiled depends on
  /// scheduling, so the query log reattributes deterministically at
  /// drain; see BatchExecutor). Front ends call it through ResolvePlan.
  Result<std::shared_ptr<const CachedPlan>> GetOrCompile(
      const PlanCacheKey& key, const Factory& factory,
      bool* compiled_here = nullptr);

  /// Counter totals across shards.
  Stats stats() const;

  /// Cached (completed) entries across shards.
  size_t size() const;

  /// Drops all cached entries (counters keep their values). Must not race
  /// with in-flight compiles.
  void Clear();

 private:
  struct InFlight;
  struct Shard;

  size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// What ResolvePlan hands a front end for one query.
struct ResolvedPlan {
  /// The entry the query runs; null when building it failed (`status`).
  std::shared_ptr<const CachedPlan> entry;
  Status status;
  /// canonical attribute id -> the query's own, for
  /// RemapOutputFromCanonical.
  std::vector<AttrId> from_canonical;
  /// FingerprintQueryStructure of the query's canonical structure: the
  /// entry's, or hashed afresh when no entry was built.
  uint64_t fingerprint = 0;
  /// Whether this call built the entry (ran the cache's factory).
  bool compiled_here = false;
};

/// The one step from a query to its plan-cache entry, shared by every
/// front end (QueryService, BatchExecutor): canonicalizes `query`, keys
/// it by its canonical structure, `strategy`, `seed`, hash joins and the
/// catalog (`db` and its FingerprintDatabase), and on a miss builds the
/// entry from the canonical query: the strategy's plan, AnalyzePlan's
/// tuple bound, and the physical plan CompileVerified builds over that
/// same analysis (so a miss analyzes once, verified or not). `db` must
/// outlive the cache's entries.
ResolvedPlan ResolvePlan(PlanCache* cache, const Database& db,
                         uint64_t db_fingerprint,
                         const ConjunctiveQuery& query, StrategyKind strategy,
                         uint64_t seed);

}  // namespace ppr

#endif  // PPR_RUNTIME_PLAN_CACHE_H_
