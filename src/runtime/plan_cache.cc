#include "runtime/plan_cache.h"

#include <algorithm>
#include <list>
#include <unordered_map>
#include <utility>

#include "analysis/width_analyzer.h"
#include "common/check.h"
#include "common/mutex.h"

namespace ppr {
namespace {

// SplitMix64-style mixing (same family as common/hash.h) for the
// refinement colors and fingerprint hashes. Colors are structural
// summaries, not security tokens; 64-bit accidental collisions are
// irrelevant next to the heuristic incompleteness documented on
// CanonicalQuery — and cache soundness never rests on a hash (keys
// compare the full structure bytes).
uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  return h;
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 0x94D049BB133111EBULL;
  for (char c : s) h = Mix(h, static_cast<uint8_t>(c));
  return h;
}

size_t CountDistinct(std::vector<uint64_t> values) {
  std::sort(values.begin(), values.end());
  return static_cast<size_t>(
      std::unique(values.begin(), values.end()) - values.begin());
}

}  // namespace

uint64_t FingerprintQueryStructure(const std::string& structure) {
  return HashString(structure);
}

CanonicalQuery CanonicalizeQuery(const ConjunctiveQuery& query) {
  const std::vector<AttrId> attrs = query.AllAttrs();
  const size_t n = attrs.size();
  auto dense_of = [&attrs](AttrId a) {
    return static_cast<size_t>(
        std::lower_bound(attrs.begin(), attrs.end(), a) - attrs.begin());
  };

  std::vector<char> is_free(n, 0);
  for (AttrId f : query.free_vars()) is_free[dense_of(f)] = 1;

  struct AtomInfo {
    uint64_t rel_hash = 0;
    std::vector<size_t> args;  // dense attr indices, repeats preserved
  };
  std::vector<AtomInfo> atom_infos;
  atom_infos.reserve(query.atoms().size());
  for (const Atom& atom : query.atoms()) {
    AtomInfo info;
    info.rel_hash = HashString(atom.relation);
    info.args.reserve(atom.args.size());
    for (AttrId a : atom.args) info.args.push_back(dense_of(a));
    atom_infos.push_back(std::move(info));
  }

  // Weisfeiler-Leman color refinement over the attribute <-> atom
  // incidence structure. An attribute's new color digests, for every
  // occurrence, the owning atom's signature (relation + the colors of all
  // its args in order) and the occurrence position — so after a round,
  // equal colors mean locally indistinguishable attributes.
  std::vector<uint64_t> color(n);
  for (size_t i = 0; i < n; ++i) {
    color[i] = Mix(0x5150BBA7C0FFEE01ULL, static_cast<uint64_t>(is_free[i]));
  }
  auto refine_round = [&] {
    std::vector<uint64_t> atom_sig(atom_infos.size());
    for (size_t a = 0; a < atom_infos.size(); ++a) {
      uint64_t h = atom_infos[a].rel_hash;
      for (size_t arg : atom_infos[a].args) h = Mix(h, color[arg]);
      atom_sig[a] = h;
    }
    std::vector<std::vector<uint64_t>> contrib(n);
    for (size_t a = 0; a < atom_infos.size(); ++a) {
      const auto& args = atom_infos[a].args;
      for (size_t j = 0; j < args.size(); ++j) {
        contrib[args[j]].push_back(Mix(atom_sig[a], j));
      }
    }
    for (size_t i = 0; i < n; ++i) {
      std::sort(contrib[i].begin(), contrib[i].end());  // multiset digest
      uint64_t h = color[i];
      for (uint64_t c : contrib[i]) h = Mix(h, c);
      color[i] = h;
    }
  };
  auto refine_to_fixpoint = [&] {
    size_t distinct = CountDistinct(color);
    for (size_t round = 0; round < n; ++round) {
      refine_round();
      const size_t d = CountDistinct(color);
      if (d == distinct) break;
      distinct = d;
    }
    return distinct;
  };
  size_t distinct = refine_to_fixpoint();

  // Individualization for symmetric remainders: force apart one member of
  // a tied class and re-refine, until all colors are distinct. The member
  // choice (smallest color, then input order) is deterministic but not
  // isomorphism-invariant — the documented heuristic gap.
  while (distinct < n) {
    size_t pick = n;
    uint64_t pick_color = 0;
    for (size_t i = 0; i < n; ++i) {
      const bool tied =
          std::count(color.begin(), color.end(), color[i]) > 1;
      if (tied && (pick == n || color[i] < pick_color)) {
        pick = i;
        pick_color = color[i];
      }
    }
    PPR_CHECK(pick < n);
    color[pick] = Mix(color[pick], 0x1D1D1D1D1D1D1D1DULL);
    distinct = refine_to_fixpoint();
  }

  // Canonical rank = position in color order (colors are now distinct).
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&color](size_t a, size_t b) { return color[a] < color[b]; });
  std::vector<AttrId> to_canonical(n);
  CanonicalQuery canon;
  canon.from_canonical.resize(n);
  for (size_t rank = 0; rank < n; ++rank) {
    to_canonical[order[rank]] = static_cast<AttrId>(rank);
    canon.from_canonical[rank] = attrs[order[rank]];
  }

  std::vector<Atom> catoms;
  catoms.reserve(atom_infos.size());
  for (size_t a = 0; a < atom_infos.size(); ++a) {
    Atom atom;
    atom.relation = query.atoms()[a].relation;
    atom.args.reserve(atom_infos[a].args.size());
    for (size_t arg : atom_infos[a].args) {
      atom.args.push_back(to_canonical[arg]);
    }
    catoms.push_back(std::move(atom));
  }
  std::sort(catoms.begin(), catoms.end(), [](const Atom& x, const Atom& y) {
    if (x.relation != y.relation) return x.relation < y.relation;
    return x.args < y.args;
  });
  std::vector<AttrId> cfree;
  cfree.reserve(query.free_vars().size());
  for (AttrId f : query.free_vars()) {
    cfree.push_back(to_canonical[dense_of(f)]);
  }
  std::sort(cfree.begin(), cfree.end());

  std::string structure;
  for (const Atom& atom : catoms) {
    structure += atom.relation;
    structure += '(';
    for (size_t j = 0; j < atom.args.size(); ++j) {
      if (j > 0) structure += ',';
      structure += std::to_string(atom.args[j]);
    }
    structure += ");";
  }
  structure += '|';
  for (size_t j = 0; j < cfree.size(); ++j) {
    if (j > 0) structure += ',';
    structure += std::to_string(cfree[j]);
  }

  canon.query = ConjunctiveQuery(std::move(catoms), std::move(cfree));
  canon.structure = std::move(structure);
  return canon;
}

Relation RemapOutputFromCanonical(const Relation& output,
                                  const std::vector<AttrId>& from_canonical) {
  const Schema& schema = output.schema();
  const int arity = schema.arity();
  if (arity == 0) return output;  // nullary: only the nonempty bit matters

  std::vector<std::pair<AttrId, int>> cols;  // (original attr, source col)
  cols.reserve(static_cast<size_t>(arity));
  for (int c = 0; c < arity; ++c) {
    const AttrId canonical = schema.attr(c);
    PPR_CHECK(canonical >= 0 &&
              static_cast<size_t>(canonical) < from_canonical.size());
    cols.emplace_back(from_canonical[static_cast<size_t>(canonical)], c);
  }
  std::sort(cols.begin(), cols.end());

  std::vector<AttrId> attrs;
  attrs.reserve(cols.size());
  for (const auto& [attr, col] : cols) attrs.push_back(attr);
  Relation remapped{Schema(std::move(attrs))};
  remapped.Reserve(output.size());
  std::vector<Value> row(static_cast<size_t>(arity));
  for (int64_t i = 0; i < output.size(); ++i) {
    for (int c = 0; c < arity; ++c) {
      row[static_cast<size_t>(c)] = output.at(i, cols[static_cast<size_t>(c)].second);
    }
    remapped.AppendRaw(row.data());
  }
  return remapped;
}

uint64_t FingerprintDatabase(const Database& db) {
  uint64_t h = 0xD1B54A32D192ED03ULL;
  for (const std::string& name : db.Names()) {  // sorted
    Result<const Relation*> rel = db.Get(name);
    PPR_CHECK(rel.ok());
    h = Mix(h, HashString(name));
    h = Mix(h, static_cast<uint64_t>((*rel)->arity()));
    h = Mix(h, static_cast<uint64_t>((*rel)->size()));
    const Relation& r = **rel;
    const int64_t values = r.size() * r.arity();
    for (int64_t i = 0; i < values; ++i) {
      h = Mix(h, static_cast<uint64_t>(static_cast<uint32_t>(r.data()[i])));
    }
  }
  return h;
}

uint64_t HashPlanCacheKey(const PlanCacheKey& key) {
  uint64_t h = HashString(key.structure);
  h = Mix(h, static_cast<uint64_t>(key.strategy));
  h = Mix(h, key.seed);
  h = Mix(h, static_cast<uint64_t>(key.join_algorithm));
  h = Mix(h, reinterpret_cast<uintptr_t>(key.db));
  h = Mix(h, key.db_fingerprint);
  return h;
}

namespace {

// A key held elsewhere, with its hash: the LRU slot's copy for a cached
// entry, the compiling caller's argument for a compile in flight, the
// caller's argument for a lookup. Maps hash a key once per call and
// compare the full key only when the hashes agree.
struct KeyRef {
  const PlanCacheKey* key;
  uint64_t hash;

  bool operator==(const KeyRef& other) const { return *key == *other.key; }
};

struct KeyRefHasher {
  size_t operator()(const KeyRef& ref) const {
    return static_cast<size_t>(ref.hash);
  }
};

}  // namespace

/// Single-flight slot: the first thread to miss owns the compile; every
/// later arrival blocks on `cv` until `done`.
struct PlanCache::InFlight {
  Mutex mu;
  CondVar cv;
  bool done GUARDED_BY(mu) = false;
  Status error GUARDED_BY(mu);  // OK iff `plan` is set
  std::shared_ptr<const CachedPlan> plan GUARDED_BY(mu);
};

struct PlanCache::Shard {
  /// One cached entry: the entry's only copy of its key, with its hash.
  struct Slot {
    PlanCacheKey key;
    uint64_t hash = 0;
    std::shared_ptr<const CachedPlan> plan;
  };
  using Lru = std::list<Slot>;

  mutable Mutex mu;
  /// LRU list, most recently used first; `entries` indexes it by key.
  Lru lru GUARDED_BY(mu);
  std::unordered_map<KeyRef, Lru::iterator, KeyRefHasher> entries
      GUARDED_BY(mu);
  /// Compiles in flight, keyed by the compiling caller's argument, which
  /// outlives the entry.
  std::unordered_map<KeyRef, std::shared_ptr<InFlight>, KeyRefHasher>
      inflight GUARDED_BY(mu);
  int64_t hits GUARDED_BY(mu) = 0;
  int64_t misses GUARDED_BY(mu) = 0;
  int64_t evictions GUARDED_BY(mu) = 0;
};

PlanCache::PlanCache(size_t capacity, int num_shards) {
  PPR_CHECK(num_shards >= 1);
  shard_capacity_ = std::max<size_t>(
      1, (capacity + static_cast<size_t>(num_shards) - 1) /
             static_cast<size_t>(num_shards));
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

PlanCache::~PlanCache() = default;

Result<std::shared_ptr<const CachedPlan>> PlanCache::GetOrCompile(
    const PlanCacheKey& key, const Factory& factory, bool* compiled_here) {
  if (compiled_here != nullptr) *compiled_here = false;
  const KeyRef ref{&key, HashPlanCacheKey(key)};
  Shard& shard = *shards_[static_cast<size_t>(ref.hash) % shards_.size()];
  std::shared_ptr<InFlight> flight;
  bool owner = false;
  {
    MutexLock lock(shard.mu);
    if (auto it = shard.entries.find(ref); it != shard.entries.end()) {
      ++shard.hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->plan;
    }
    if (auto it = shard.inflight.find(ref); it != shard.inflight.end()) {
      // Someone else is compiling this key right now; reusing their
      // result is a hit (this thread runs no factory), which keeps the
      // counters deterministic under any interleaving.
      ++shard.hits;
      flight = it->second;
    } else {
      ++shard.misses;
      flight = std::make_shared<InFlight>();
      shard.inflight.emplace(ref, flight);
      owner = true;
    }
  }

  if (!owner) {
    InFlight& f = *flight;
    MutexLock lock(f.mu);
    while (!f.done) f.cv.Wait(f.mu);
    if (!f.error.ok()) return f.error;
    return f.plan;
  }

  // Owner: compile with no cache lock held.
  if (compiled_here != nullptr) *compiled_here = true;
  Result<CachedPlan> built = factory();
  const Status error = built.status();
  std::shared_ptr<const CachedPlan> plan;
  if (built.ok()) {
    plan = std::make_shared<const CachedPlan>(std::move(built).value());
  }
  // An evicted plan is destroyed after the shard lock is released.
  std::shared_ptr<const CachedPlan> evicted;
  {
    MutexLock lock(shard.mu);
    shard.inflight.erase(ref);
    if (plan != nullptr) {
      shard.lru.push_front({key, ref.hash, plan});
      shard.entries.emplace(KeyRef{&shard.lru.front().key, ref.hash},
                            shard.lru.begin());
      // Each call adds one entry, so it evicts at most one.
      if (shard.entries.size() > shard_capacity_) {
        Shard::Slot& last = shard.lru.back();
        shard.entries.erase(KeyRef{&last.key, last.hash});
        evicted = std::move(last.plan);
        shard.lru.pop_back();
        ++shard.evictions;
      }
    }
  }
  {
    InFlight& f = *flight;
    MutexLock lock(f.mu);
    f.done = true;
    f.error = error;
    f.plan = plan;
  }
  flight->cv.NotifyAll();
  if (!error.ok()) return error;
  return plan;
}

PlanCache::Stats PlanCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    Shard& s = *shard;
    MutexLock lock(s.mu);
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
  }
  return total;
}

size_t PlanCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    Shard& s = *shard;
    MutexLock lock(s.mu);
    total += s.entries.size();
  }
  return total;
}

void PlanCache::Clear() {
  for (const auto& shard : shards_) {
    Shard& s = *shard;
    MutexLock lock(s.mu);
    PPR_CHECK(s.inflight.empty());
    s.entries.clear();
    s.lru.clear();
  }
}

ResolvedPlan ResolvePlan(PlanCache* cache, const Database& db,
                         uint64_t db_fingerprint,
                         const ConjunctiveQuery& query, StrategyKind strategy,
                         uint64_t seed) {
  CanonicalQuery canon = CanonicalizeQuery(query);
  PlanCacheKey key;
  key.structure = std::move(canon.structure);
  key.strategy = strategy;
  key.seed = seed;
  key.db = &db;
  key.db_fingerprint = db_fingerprint;

  ResolvedPlan resolved;
  resolved.from_canonical = std::move(canon.from_canonical);
  Result<std::shared_ptr<const CachedPlan>> entry = cache->GetOrCompile(
      key,
      [&]() -> Result<CachedPlan> {
        const Plan plan = BuildStrategyPlan(strategy, canon.query, seed);
        // The admission bound rides in the entry, so a cache hit admits
        // without analyzing again.
        const StaticAnalysis analysis = AnalyzePlan(canon.query, plan, db);
        Result<PhysicalPlan> compiled =
            PhysicalPlan::Compile(canon.query, plan, db);
        if (!compiled.ok()) return compiled.status();
        CachedPlan built{{}, std::move(*compiled), plan.Width()};
        if (analysis.status.ok()) {
          built.tuples_bound = analysis.tuples_produced_bound;
        }
        built.fingerprint = FingerprintQueryStructure(key.structure);
        return built;
      },
      &resolved.compiled_here);
  if (!entry.ok()) {
    resolved.status = entry.status();
    resolved.fingerprint = FingerprintQueryStructure(key.structure);
    return resolved;
  }
  resolved.entry = std::move(*entry);
  resolved.fingerprint = resolved.entry->fingerprint;
  return resolved;
}

}  // namespace ppr
