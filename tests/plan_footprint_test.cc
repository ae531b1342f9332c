// The heap a compiled plan and its plan-cache entry hold. A resident
// daemon spends its memory on cached plans, and every plan-cache miss
// builds one and every eviction frees one, so a compiled plan is a few
// heap blocks however many nodes it has: its pre-order node array, its
// join specs, and the one pool of ints that all of its specs view
// (exec/physical_plan.h). Its entry adds only what a request reads.
//
// This binary replaces the global operator new and delete to count the
// blocks it holds and the bytes they requested.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "benchlib/harness.h"
#include "common/rng.h"
#include "encode/kcolor.h"
#include "exec/physical_plan.h"
#include "graph/generators.h"
#include "runtime/plan_cache.h"
#include "test_util.h"

namespace {

std::atomic<int64_t> g_live_blocks{0};
std::atomic<int64_t> g_live_bytes{0};

// Each block carries its requested size in a header, so a delete knows
// what it frees whichever form of delete the caller used.
constexpr size_t kHeader = alignof(std::max_align_t);

void* CountedNew(size_t bytes) {
  void* block = std::malloc(kHeader + bytes);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<size_t*>(block) = bytes;
  g_live_blocks.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<int64_t>(bytes),
                         std::memory_order_relaxed);
  return static_cast<char*>(block) + kHeader;
}

void CountedDelete(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kHeader;
  g_live_blocks.fetch_sub(1, std::memory_order_relaxed);
  g_live_bytes.fetch_sub(static_cast<int64_t>(*static_cast<size_t*>(block)),
                         std::memory_order_relaxed);
  std::free(block);
}

}  // namespace

void* operator new(size_t bytes) { return CountedNew(bytes); }
void* operator new[](size_t bytes) { return CountedNew(bytes); }
void operator delete(void* p) noexcept { CountedDelete(p); }
void operator delete[](void* p) noexcept { CountedDelete(p); }
void operator delete(void* p, size_t /*bytes*/) noexcept { CountedDelete(p); }
void operator delete[](void* p, size_t /*bytes*/) noexcept {
  CountedDelete(p);
}

namespace ppr {
namespace {

// What a piece of the heap holds: blocks and requested bytes.
struct Heap {
  int64_t blocks = 0;
  int64_t bytes = 0;

  static Heap Now() {
    return {g_live_blocks.load(std::memory_order_relaxed),
            g_live_bytes.load(std::memory_order_relaxed)};
  }
  Heap operator-(const Heap& before) const {
    return {blocks - before.blocks, bytes - before.bytes};
  }
};

// A 3-COLOR query of a random graph with 12 vertices and density 1.3,
// the shape of the queries the benchmark's serve workloads send.
ConjunctiveQuery ServeQuery(uint64_t seed) {
  Rng rng(seed);
  return KColorQuery(RandomGraphWithDensity(12, 1.3, rng));
}

// A serve-like plan: bucket elimination over the canonical form of the
// serve query of seed 1.
struct ServeLike {
  Database db;
  ConjunctiveQuery query;
  Plan plan;

  ServeLike() {
    AddColoringRelations(3, &db);
    query = CanonicalizeQuery(ServeQuery(1)).query;
    plan = BuildStrategyPlan(StrategyKind::kBucketElimination, query, 0);
  }

  PhysicalPlan Compile() const {
    Result<PhysicalPlan> compiled = PhysicalPlan::Compile(query, plan, db);
    PPR_CHECK(compiled.ok());
    return std::move(*compiled);
  }
};

TEST(PlanFootprintTest, CompiledPlanIsAFewBlocks) {
  const ServeLike serve;
  // A first compile initializes the process-wide state compiling reads.
  (void)serve.Compile();
  const Heap before = Heap::Now();
  Heap held;
  int nodes = 0;
  {
    const PhysicalPlan compiled = serve.Compile();
    held = Heap::Now() - before;
    nodes = compiled.NumNodes();
  }
  const Heap after = Heap::Now() - before;
  std::printf("serve-like plan: %d nodes in %lld heap blocks, %lld bytes\n",
              nodes, static_cast<long long>(held.blocks),
              static_cast<long long>(held.bytes));
  EXPECT_GT(nodes, 20);
  // The node array, the join specs and the spec pool.
  EXPECT_LE(held.blocks, 4);
  EXPECT_LE(held.bytes, 6 * 1024);
  // Destroying the plan frees what it held, and compiling left nothing.
  EXPECT_EQ(after.blocks, 0);
  EXPECT_EQ(after.bytes, 0);
}

// A serve-like cache entry, built by the resolve step every front end
// shares, holds its cached plan (one block for the entry, three for the
// compiled plan) and the cache's slot for it (the key's structure string,
// its LRU node and its index node): no copy of the query, and no scratch
// arena (a run's caller brings its own). The byte bound fails if the plan
// carries an 80-byte arena again (5,911 bytes with g++ 12).
TEST(PlanFootprintTest, CacheEntryHoldsOnlyWhatARequestReads) {
  Database db;
  AddColoringRelations(3, &db);
  const uint64_t db_fingerprint = FingerprintDatabase(db);
  PlanCache cache(/*capacity=*/16, /*num_shards=*/1);
  // A first entry initializes the process-wide state resolving reads and
  // the cache's tables.
  (void)ResolvePlan(&cache, db, db_fingerprint, ServeQuery(2),
                    StrategyKind::kBucketElimination, 0);
  const ConjunctiveQuery query = ServeQuery(1);
  const Heap before = Heap::Now();
  {
    const ResolvedPlan resolved = ResolvePlan(
        &cache, db, db_fingerprint, query, StrategyKind::kBucketElimination, 0);
    ASSERT_NE(resolved.entry, nullptr);
    ASSERT_TRUE(resolved.compiled_here);
    EXPECT_TRUE(resolved.entry->query.atoms().empty());
  }
  const Heap held = Heap::Now() - before;
  std::printf("serve-like cache entry: %lld heap blocks, %lld bytes\n",
              static_cast<long long>(held.blocks),
              static_cast<long long>(held.bytes));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_LE(held.blocks, 7);
  EXPECT_LE(held.bytes, 5880);
}

TEST(PlanFootprintTest, MovedPlanExecutesToTheSameAnswer) {
  const ServeLike serve;
  PhysicalPlan original = serve.Compile();
  const ExecutionResult expect = original.ExecuteShared(nullptr);
  ASSERT_TRUE(expect.status.ok());

  // The nodes and specs view storage that moves with the plan.
  PhysicalPlan moved(std::move(original));
  const ExecutionResult got = moved.ExecuteShared(nullptr);
  ASSERT_TRUE(got.status.ok());
  EXPECT_EQ(got.output.ToString(), expect.output.ToString());
  EXPECT_EQ(got.stats.tuples_produced, expect.stats.tuples_produced);

  PhysicalPlan assigned = serve.Compile();
  assigned = std::move(moved);
  const ExecutionResult again = assigned.ExecuteShared(nullptr);
  ASSERT_TRUE(again.status.ok());
  EXPECT_EQ(again.output.ToString(), expect.output.ToString());
  EXPECT_EQ(again.stats.tuples_produced, expect.stats.tuples_produced);
}

// Node i is the logical plan's i-th node in pre-order, and its children
// are the next subtrees in order.
TEST(PlanFootprintTest, NodesAreInPreOrder) {
  const ServeLike serve;
  const PhysicalPlan compiled = serve.Compile();
  const std::vector<const PlanNode*> logical = PreOrderNodes(serve.plan);
  ASSERT_EQ(static_cast<size_t>(compiled.NumNodes()), logical.size());
  // Pre-order id after each node's subtree, filled from the last node.
  std::vector<int32_t> end(logical.size());
  for (int32_t i = compiled.NumNodes() - 1; i >= 0; --i) {
    const PhysicalNode& node = compiled.node(i);
    EXPECT_EQ(node.node_id, i);
    const PlanNode* source = logical[static_cast<size_t>(i)];
    ASSERT_EQ(node.children.size(), source->children.size());
    EXPECT_EQ(node.has_project, source->Projects());
    int32_t next = i + 1;
    for (const int32_t child : node.children) {
      ASSERT_EQ(child, next);
      next = end[static_cast<size_t>(child)];
    }
    end[static_cast<size_t>(i)] = next;
  }
  EXPECT_EQ(end[0], compiled.NumNodes());
}

}  // namespace
}  // namespace ppr
