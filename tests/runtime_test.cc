#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "analysis/verifier.h"
#include "analysis/width_analyzer.h"
#include "benchlib/batch_workload.h"
#include "benchlib/harness.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "encode/kcolor.h"
#include "exec/executor.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/obs_lock.h"
#include "obs/trace.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"
#include "runtime/batch_executor.h"
#include "runtime/bounded_queue.h"
#include "runtime/plan_cache.h"
#include "runtime/thread_pool.h"

namespace ppr {
namespace {

Database ThreeColorDb() {
  Database db;
  AddColoringRelations(3, &db);
  return db;
}

// ---------------------------------------------------------------------------
// BoundedQueue

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 5; ++i) {
    const std::optional<int> v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueueTest, CloseDrainsRemainingItemsBeforeNullopt) {
  BoundedQueue<int> q(8);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  q.Close();
  EXPECT_FALSE(q.Push(3));  // closed: push fails, value dropped
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BoundedQueueTest, PushBlocksUntilConsumerMakesRoom) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.Push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&q, &second_pushed] {
    EXPECT_TRUE(q.Push(2));  // blocks: queue full
    second_pushed.store(true);
  });
  EXPECT_EQ(q.Pop().value(), 1);  // makes room, unblocks producer
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(q.Pop().value(), 2);
}

TEST(BoundedQueueTest, CloseWakesBlockedProducer) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.Push(1));
  std::thread producer([&q] { EXPECT_FALSE(q.Push(2)); });
  q.Close();
  producer.join();
}

TEST(BoundedQueueTest, TryPushReportsFullWithoutConsumingTheValue) {
  BoundedQueue<std::unique_ptr<int>> q(1);
  auto first = std::make_unique<int>(1);
  ASSERT_EQ(q.TryPush(first), QueuePushOutcome::kOk);
  EXPECT_EQ(first, nullptr);  // moved from on success
  auto second = std::make_unique<int>(2);
  EXPECT_EQ(q.TryPush(second), QueuePushOutcome::kFull);
  ASSERT_NE(second, nullptr);  // caller still owns the value on failure
  EXPECT_EQ(*second, 2);
  EXPECT_EQ(**q.Pop(), 1);
  EXPECT_EQ(q.TryPush(second), QueuePushOutcome::kOk);
  EXPECT_EQ(**q.Pop(), 2);
}

TEST(BoundedQueueTest, TryPushReportsClosedWithoutConsumingTheValue) {
  BoundedQueue<std::unique_ptr<int>> q(4);
  q.Close();
  auto value = std::make_unique<int>(7);
  EXPECT_EQ(q.TryPush(value), QueuePushOutcome::kClosed);
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, 7);
}

// The overload-shedding race the service leans on: many producers
// hammering TryPush against a tiny queue while a consumer drains and
// Close() lands mid-storm. Every kOk must be popped exactly once, every
// failed push must keep its value, and nothing may be lost or
// duplicated. Sized to finish fast; the CI tsan job runs this suite
// under ThreadSanitizer, which is the configuration the test is for.
TEST(BoundedQueueTest, CloseWhileFullConcurrentProducerHammer) {
  constexpr int kProducers = 8;
  constexpr int kStride = 1 << 20;  // keeps per-producer values distinct
  BoundedQueue<int> q(2);
  std::atomic<int64_t> pushed_sum{0};
  std::atomic<int64_t> full_count{0};
  std::atomic<int> closed_count{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &pushed_sum, &full_count, &closed_count, p] {
      // Hammer until Close() is observed; retry kFull with the same
      // value, which must survive the failed push unconsumed.
      for (int i = 0;; ++i) {
        const int expected = p * kStride + i + 1;
        int value = expected;
        const QueuePushOutcome outcome = q.TryPush(value);
        if (outcome == QueuePushOutcome::kOk) {
          pushed_sum.fetch_add(expected);
          continue;
        }
        EXPECT_EQ(value, expected);  // not consumed on failure
        if (outcome == QueuePushOutcome::kClosed) {
          closed_count.fetch_add(1);
          return;
        }
        full_count.fetch_add(1);
        --i;  // retry this value
        std::this_thread::yield();
      }
    });
  }
  std::atomic<int64_t> popped_sum{0};
  std::thread consumer([&q, &popped_sum] {
    while (std::optional<int> v = q.Pop()) popped_sum.fetch_add(*v);
  });
  // Let the storm build against the full queue, then close mid-flight.
  while (full_count.load() < 100) std::this_thread::yield();
  q.Close();
  for (std::thread& t : producers) t.join();
  consumer.join();
  // Every producer exited by observing the close, and conservation
  // holds: exactly the successfully pushed values were consumed.
  EXPECT_EQ(closed_count.load(), kProducers);
  EXPECT_EQ(popped_sum.load(), pushed_sum.load());
}

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  std::atomic<int64_t> sum{0};
  ThreadPool pool(4);
  for (int i = 1; i <= 100; ++i) {
    pool.Submit([i, &sum](int) { sum.fetch_add(i); });
  }
  pool.Wait();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, WorkerIndicesPartitionTheTasks) {
  constexpr int kThreads = 3;
  std::atomic<int64_t> per_worker[kThreads] = {};
  std::atomic<bool> out_of_range{false};
  ThreadPool pool(kThreads);
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&per_worker, &out_of_range](int worker) {
      if (worker < 0 || worker >= kThreads) {
        out_of_range.store(true);
        return;
      }
      per_worker[worker].fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_FALSE(out_of_range.load());
  int64_t total = 0;
  for (const auto& c : per_worker) total += c.load();
  EXPECT_EQ(total, 200);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossSubmissionRounds) {
  std::atomic<int> count{0};
  ThreadPool pool(2);
  pool.Submit([&count](int) { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count](int) { count.fetch_add(1); });
  pool.Submit([&count](int) { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolTest, DestructorRunsAlreadySubmittedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.Submit([&count](int) { count.fetch_add(1); });
    }
  }  // no Wait(): destructor must still drain the queue
  EXPECT_EQ(count.load(), 16);
}

// ---------------------------------------------------------------------------
// Canonicalization / fingerprints

TEST(CanonicalizeQueryTest, IsomorphicCopiesShareOneFingerprint) {
  Rng rng(11);
  const Graph g = RandomGraphWithDensity(14, 1.5, rng);
  const ConjunctiveQuery base = KColorQuery(g);
  const CanonicalQuery canon = CanonicalizeQuery(base);
  for (const ConjunctiveQuery& copy : PermutedCopies(base, 25, 99)) {
    const CanonicalQuery c = CanonicalizeQuery(copy);
    EXPECT_EQ(c.structure, canon.structure);
    // Equal structure must mean the *same* canonical query, not just the
    // same bytes: that identity is what makes plan sharing sound.
    EXPECT_EQ(c.query.atoms().size(), canon.query.atoms().size());
    EXPECT_EQ(c.query.free_vars(), canon.query.free_vars());
  }
}

TEST(CanonicalizeQueryTest, DistinctStructuresGetDistinctFingerprints) {
  const std::string path =
      CanonicalizeQuery(KColorQuery(AugmentedPath(3))).structure;
  const std::string cycle = CanonicalizeQuery(KColorQuery(Cycle(6))).structure;
  const std::string complete =
      CanonicalizeQuery(KColorQuery(Complete(4))).structure;
  EXPECT_NE(path, cycle);
  EXPECT_NE(path, complete);
  EXPECT_NE(cycle, complete);
}

TEST(CanonicalizeQueryTest, FreeVariablesAreStructural) {
  // Same atom structure, different free-variable choice: the Boolean
  // query and the non-Boolean one must not share a plan.
  Rng rng(5);
  const ConjunctiveQuery boolean = KColorQuery(Ladder(3));
  const ConjunctiveQuery open = KColorQueryNonBoolean(Ladder(3), 0.5, rng);
  EXPECT_NE(CanonicalizeQuery(boolean).structure,
            CanonicalizeQuery(open).structure);
}

TEST(CanonicalizeQueryTest, FromCanonicalMapsBackToOriginalAttrs) {
  const ConjunctiveQuery q = KColorQuery(Cycle(5));
  const CanonicalQuery canon = CanonicalizeQuery(q);
  const std::vector<AttrId> attrs = q.AllAttrs();
  ASSERT_EQ(canon.from_canonical.size(), attrs.size());
  // from_canonical is a bijection onto the original attribute set.
  std::vector<AttrId> image = canon.from_canonical;
  std::sort(image.begin(), image.end());
  EXPECT_EQ(image, attrs);
}

TEST(PlanCacheKeyTest, DatabaseContentChangesTheFingerprint) {
  Database a = ThreeColorDb();
  const uint64_t fp_a = FingerprintDatabase(a);
  EXPECT_EQ(fp_a, FingerprintDatabase(a));  // stable

  Database b;
  AddColoringRelations(3, &b);
  EXPECT_EQ(fp_a, FingerprintDatabase(b));  // same content, same print

  Relation extra{Schema({0, 1})};
  const Value row[2] = {1, 2};
  extra.AppendRaw(row);
  b.Put("extra", std::move(extra));
  EXPECT_NE(fp_a, FingerprintDatabase(b));
}

// ---------------------------------------------------------------------------
// PlanCache

PlanCacheKey TestKey(std::string structure, const Database* db) {
  PlanCacheKey key;
  key.structure = std::move(structure);
  key.strategy = StrategyKind::kBucketElimination;
  key.seed = 1;
  key.db = db;
  key.db_fingerprint = 42;
  return key;
}

Result<CachedPlan> TrivialPlan(const Database& db) {
  const ConjunctiveQuery q = KColorQuery(AugmentedPath(1));
  Plan plan = BuildStrategyPlan(StrategyKind::kBucketElimination, q, 1);
  Result<PhysicalPlan> compiled =
      PhysicalPlan::Compile(q, plan, db, JoinAlgorithm::kHash);
  if (!compiled.ok()) return compiled.status();
  return CachedPlan{q, std::move(*compiled), plan.Width()};
}

TEST(PlanCacheTest, CountsHitsAndMisses) {
  Database db = ThreeColorDb();
  PlanCache cache(/*capacity=*/16, /*num_shards=*/2);
  int factory_calls = 0;
  const auto factory = [&db, &factory_calls]() {
    ++factory_calls;
    return TrivialPlan(db);
  };
  ASSERT_TRUE(cache.GetOrCompile(TestKey("a", &db), factory).ok());
  ASSERT_TRUE(cache.GetOrCompile(TestKey("a", &db), factory).ok());
  ASSERT_TRUE(cache.GetOrCompile(TestKey("b", &db), factory).ok());
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(factory_calls, 2);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, HitsReturnTheSameSharedPlan) {
  Database db = ThreeColorDb();
  PlanCache cache(16, 2);
  const auto factory = [&db]() { return TrivialPlan(db); };
  auto first = cache.GetOrCompile(TestKey("a", &db), factory);
  auto second = cache.GetOrCompile(TestKey("a", &db), factory);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // literally shared
}

TEST(PlanCacheTest, KeysDifferingOnlyInStrategyAreDistinct) {
  Database db = ThreeColorDb();
  PlanCache cache(16, 2);
  int factory_calls = 0;
  const auto factory = [&db, &factory_calls]() {
    ++factory_calls;
    return TrivialPlan(db);
  };
  PlanCacheKey a = TestKey("a", &db);
  PlanCacheKey b = a;
  b.strategy = StrategyKind::kEarlyProjection;
  PlanCacheKey c = a;
  c.db_fingerprint = 43;  // same structure, different catalog version
  ASSERT_TRUE(cache.GetOrCompile(a, factory).ok());
  ASSERT_TRUE(cache.GetOrCompile(b, factory).ok());
  ASSERT_TRUE(cache.GetOrCompile(c, factory).ok());
  EXPECT_EQ(factory_calls, 3);
  EXPECT_EQ(cache.stats().misses, 3);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  Database db = ThreeColorDb();
  // Single shard, two entries: deterministic LRU behavior.
  PlanCache cache(/*capacity=*/2, /*num_shards=*/1);
  const auto factory = [&db]() { return TrivialPlan(db); };
  ASSERT_TRUE(cache.GetOrCompile(TestKey("a", &db), factory).ok());
  ASSERT_TRUE(cache.GetOrCompile(TestKey("b", &db), factory).ok());
  ASSERT_TRUE(cache.GetOrCompile(TestKey("a", &db), factory).ok());  // a MRU
  ASSERT_TRUE(cache.GetOrCompile(TestKey("c", &db), factory).ok());  // evict b
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_TRUE(cache.GetOrCompile(TestKey("a", &db), factory).ok());  // hit
  ASSERT_TRUE(cache.GetOrCompile(TestKey("b", &db), factory).ok());  // miss
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 4);
}

TEST(PlanCacheTest, FactoryErrorsPropagateAndAreNotCached) {
  Database db = ThreeColorDb();
  PlanCache cache(16, 2);
  int factory_calls = 0;
  const auto failing = [&factory_calls]() -> Result<CachedPlan> {
    ++factory_calls;
    return Status::Internal("boom");
  };
  EXPECT_FALSE(cache.GetOrCompile(TestKey("a", &db), failing).ok());
  EXPECT_EQ(cache.size(), 0u);
  // The next request retries the factory (errors are not negative-cached)
  // and can succeed.
  const auto working = [&db, &factory_calls]() {
    ++factory_calls;
    return TrivialPlan(db);
  };
  EXPECT_TRUE(cache.GetOrCompile(TestKey("a", &db), working).ok());
  EXPECT_EQ(factory_calls, 2);
  EXPECT_EQ(cache.stats().misses, 2);
}

TEST(PlanCacheTest, SingleFlightCompilesEachKeyOnce) {
  Database db = ThreeColorDb();
  PlanCache cache(64, 4);
  std::atomic<int> factory_calls{0};
  constexpr int kThreads = 8;
  constexpr int kLookupsPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kLookupsPerThread; ++i) {
        const std::string structure =
            "s" + std::to_string((t + i) % 5);  // 5 distinct keys
        auto r = cache.GetOrCompile(TestKey(structure, &db), [&] {
          factory_calls.fetch_add(1);
          return TrivialPlan(db);
        });
        if (!r.ok() || *r == nullptr) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(factory_calls.load(), 5);  // one compile per distinct key
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 5);
  EXPECT_EQ(stats.hits, kThreads * kLookupsPerThread - 5);
}

// ---------------------------------------------------------------------------
// BatchExecutor

std::vector<BatchJob> JobsFrom(std::vector<ConjunctiveQuery> queries,
                               StrategyKind strategy,
                               Counter budget = kCounterMax) {
  std::vector<BatchJob> jobs;
  jobs.reserve(queries.size());
  for (ConjunctiveQuery& q : queries) {
    BatchJob job;
    job.query = std::move(q);
    job.strategy = strategy;
    job.seed = 3;
    job.tuple_budget = budget;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(BatchExecutorTest, MatchesStraightforwardOracleOnIsomorphicBatch) {
  Database db = ThreeColorDb();
  ColorBatchSpec spec;
  spec.num_bases = 4;
  spec.copies_per_base = 5;
  spec.num_vertices = 8;
  spec.seed = 21;
  std::vector<ConjunctiveQuery> queries = IsomorphicColorBatch(spec);
  std::vector<BatchJob> jobs =
      JobsFrom(queries, StrategyKind::kBucketElimination);

  BatchOptions options;
  options.num_threads = 4;
  BatchExecutor executor(db, options);
  const BatchResult batch = executor.Run(jobs);
  ASSERT_EQ(batch.num_jobs(), 20);
  for (size_t i = 0; i < queries.size(); ++i) {
    const ExecutionResult oracle = ExecuteStraightforward(queries[i], db);
    ASSERT_TRUE(oracle.status.ok());
    ASSERT_TRUE(batch.results[i].status.ok()) << "job " << i;
    EXPECT_EQ(batch.results[i].nonempty(), oracle.nonempty()) << "job " << i;
  }
  EXPECT_GT(batch.cache.hits, 0);
}

TEST(BatchExecutorTest, NonBooleanOutputsRemapToOriginalAttributes) {
  Database db = ThreeColorDb();
  Rng rng(17);
  std::vector<ConjunctiveQuery> queries;
  const ConjunctiveQuery base = KColorQueryNonBoolean(Ladder(3), 0.4, rng);
  queries.push_back(base);
  for (ConjunctiveQuery& copy : PermutedCopies(base, 6, 55)) {
    queries.push_back(std::move(copy));
  }
  std::vector<BatchJob> jobs =
      JobsFrom(queries, StrategyKind::kBucketElimination);

  BatchOptions options;
  options.num_threads = 2;
  BatchExecutor executor(db, options);
  const BatchResult batch = executor.Run(jobs);
  for (size_t i = 0; i < queries.size(); ++i) {
    const ExecutionResult oracle = ExecuteStraightforward(queries[i], db);
    ASSERT_TRUE(oracle.status.ok());
    ASSERT_TRUE(batch.results[i].status.ok()) << "job " << i;
    // Cached plans run on canonical attribute ids; the remap must hand
    // back exactly the relation a direct run of the query produces.
    EXPECT_TRUE(batch.results[i].output.SetEquals(oracle.output))
        << "job " << i;
  }
  // All 7 jobs share one structure: 1 miss, 6 hits.
  EXPECT_EQ(batch.cache.misses, 1);
  EXPECT_EQ(batch.cache.hits, 6);
}

TEST(BatchExecutorTest, BudgetExhaustionIsPerJob) {
  Database db = ThreeColorDb();
  std::vector<ConjunctiveQuery> queries;
  queries.push_back(KColorQuery(Complete(6)));  // needs many tuples
  queries.push_back(KColorQuery(AugmentedPath(1)));      // trivial
  std::vector<BatchJob> jobs =
      JobsFrom(queries, StrategyKind::kStraightforward, /*budget=*/10);
  jobs[1].tuple_budget = kCounterMax;  // only the first job is starved

  BatchOptions options;
  options.num_threads = 2;
  BatchExecutor executor(db, options);
  const BatchResult batch = executor.Run(jobs);
  EXPECT_EQ(batch.results[0].status.code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(batch.results[1].status.ok());
  EXPECT_TRUE(batch.results[1].nonempty());
}

TEST(BatchExecutorTest, SharedExternalCacheCarriesAcrossBatches) {
  Database db = ThreeColorDb();
  ColorBatchSpec spec;
  spec.num_bases = 3;
  spec.copies_per_base = 2;
  spec.num_vertices = 6;
  spec.seed = 31;
  std::vector<BatchJob> jobs = JobsFrom(IsomorphicColorBatch(spec),
                                        StrategyKind::kBucketElimination);
  PlanCache cache(64, 4);
  BatchOptions options;
  options.num_threads = 2;
  options.cache = &cache;
  BatchExecutor executor(db, options);
  const BatchResult first = executor.Run(jobs);
  EXPECT_EQ(first.cache.misses, 3);
  const BatchResult second = executor.Run(jobs);
  // Everything was compiled by the first batch.
  EXPECT_EQ(second.cache.misses, 0);
  EXPECT_EQ(second.cache.hits, static_cast<int64_t>(jobs.size()));
}

// The batch resolves its jobs through the service's step, so the
// entries it builds carry the admission bound and the fingerprint too.
TEST(BatchExecutorTest, EntriesCarryTheAnalyzerBoundAndTheFingerprint) {
  Database db = ThreeColorDb();
  Rng rng(5);
  const ConjunctiveQuery query =
      KColorQuery(RandomGraphWithDensity(8, 1.5, rng));
  PlanCache cache(16, 2);
  BatchOptions options;
  options.cache = &cache;
  BatchExecutor executor(db, options);
  const BatchResult batch =
      executor.Run(JobsFrom({query}, StrategyKind::kBucketElimination));
  ASSERT_TRUE(batch.results[0].status.ok());

  // Resolving the job's query again finds the entry the batch built.
  const ResolvedPlan resolved =
      ResolvePlan(&cache, db, FingerprintDatabase(db), query,
                  StrategyKind::kBucketElimination, /*seed=*/3);
  ASSERT_NE(resolved.entry, nullptr);
  EXPECT_FALSE(resolved.compiled_here);
  const CanonicalQuery canon = CanonicalizeQuery(query);
  const StaticAnalysis analysis = AnalyzePlan(
      canon.query,
      BuildStrategyPlan(StrategyKind::kBucketElimination, canon.query, 3),
      db);
  ASSERT_TRUE(analysis.status.ok());
  EXPECT_EQ(resolved.entry->tuples_bound, analysis.tuples_produced_bound);
  EXPECT_EQ(resolved.entry->fingerprint,
            FingerprintQueryStructure(canon.structure));
  EXPECT_EQ(resolved.fingerprint, resolved.entry->fingerprint);
}

// A miss compiles through the verified compile, so the PPR_VERIFY_* gates
// reach every front end: with the semantic gate on, a miss certifies the
// logical and the compiled plan, and a hit certifies nothing.
TEST(ResolvePlanTest, MissesCompileThroughTheVerifiedCompile) {
  Database db = ThreeColorDb();
  PlanCache cache(16, 2);
  const auto certifications = [] {
    MutexLock lock(GlobalObsMutex());
    return GlobalMetrics().Snapshot().counter(
        "analysis.semantic.certifications");
  };
  const auto resolve = [&] {
    return ResolvePlan(&cache, db, FingerprintDatabase(db), PentagonQuery(),
                       StrategyKind::kBucketElimination, /*seed=*/0);
  };
  const int64_t before = certifications();
  EnableSemanticVerification(true);
  const ResolvedPlan miss = resolve();
  const ResolvedPlan hit = resolve();
  EnableSemanticVerification(false);
  ASSERT_TRUE(miss.status.ok()) << miss.status.ToString();
  EXPECT_TRUE(miss.compiled_here);
  EXPECT_FALSE(hit.compiled_here);
  EXPECT_EQ(certifications() - before, 2);
}

// With PPR_TRACE and the semantic gate both on, misses certify on several
// workers at once, and a certification runs its canonical databases
// one-shot. Those runs once recorded into the process-wide trace sink and
// registry without the obs lock, so concurrent misses corrupted one trace
// ring (heap-corruption aborts in release builds, races under tsan). A
// one-shot run records into a private sink and publishes it under
// GlobalObsMutex(), so every certification is counted.
TEST(BatchExecutorTest, TracedCertifiedMissesPublishUnderTheLock) {
  Database db = ThreeColorDb();
  Rng rng(7);
  std::vector<ConjunctiveQuery> queries;
  for (int i = 0; i < 16; ++i) {
    queries.push_back(KColorQuery(RandomGraphWithDensity(8, 1.3, rng)));
  }
  const std::vector<BatchJob> jobs =
      JobsFrom(queries, StrategyKind::kBucketElimination, 2'000'000);
  const auto certifications = [] {
    MutexLock lock(GlobalObsMutex());
    return GlobalMetrics().counter("analysis.semantic.certifications");
  };
  const std::string path =
      ::testing::TempDir() + "ppr_runtime_traced_certified.json";
  ASSERT_FALSE(TracingEnabled());
  const bool semantics = SemanticVerificationEnabled();
  const int64_t before = certifications();
  EnableTracing(path);
  EnableSemanticVerification(true);
  BatchOptions options;
  options.num_threads = 4;
  const BatchResult batch = BatchExecutor(db, options).Run(jobs);
  EnableSemanticVerification(semantics);
  DisableTracing();
  std::remove(path.c_str());
  std::remove((path + ".metrics.jsonl").c_str());

  for (const ExecutionResult& r : batch.results) {
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  }
  EXPECT_GT(batch.cache.misses, 0);
  EXPECT_EQ(certifications() - before, 2 * batch.cache.misses);
}

TEST(BatchExecutorTest, HitRateExceedsHalfOnTwoHundredIsomorphicJobs) {
  Database db = ThreeColorDb();
  ColorBatchSpec spec;
  spec.num_bases = 20;
  spec.copies_per_base = 10;
  spec.num_vertices = 10;
  spec.seed = 77;
  std::vector<BatchJob> jobs = JobsFrom(IsomorphicColorBatch(spec),
                                        StrategyKind::kBucketElimination);
  ASSERT_EQ(jobs.size(), 200u);

  BatchOptions options;
  options.num_threads = 4;
  BatchExecutor executor(db, options);
  const BatchResult batch = executor.Run(jobs);
  // Exactly one compile per structure — the canonicalizer identifies
  // every isomorphic copy, and single-flight keeps the counters exact
  // under any interleaving.
  EXPECT_EQ(batch.cache.misses, 20);
  EXPECT_EQ(batch.cache.hits, 180);
  const double rate =
      static_cast<double>(batch.cache.hits) /
      static_cast<double>(batch.cache.hits + batch.cache.misses);
  EXPECT_GT(rate, 0.5);
}

// The satellite determinism guarantee: batch totals and the published
// metrics registry are byte-identical however many workers ran the batch
// and however the jobs interleaved.
TEST(BatchExecutorTest, AggregationIsDeterministicAcrossThreadCounts) {
  Database db = ThreeColorDb();
  ColorBatchSpec spec;
  spec.num_bases = 5;
  spec.copies_per_base = 6;
  spec.num_vertices = 9;
  spec.seed = 13;
  std::vector<BatchJob> jobs = JobsFrom(IsomorphicColorBatch(spec),
                                        StrategyKind::kBucketElimination);

  auto run = [&db, &jobs](int threads, MetricsRegistry* registry) {
    BatchOptions options;
    options.num_threads = threads;
    options.metrics = registry;
    return BatchExecutor(db, options).Run(jobs);
  };
  MetricsRegistry reg1, reg4a, reg4b;
  const BatchResult r1 = run(1, &reg1);
  const BatchResult r4a = run(4, &reg4a);
  const BatchResult r4b = run(4, &reg4b);

  auto stats_tuple = [](const ExecStats& s) {
    return std::tuple(s.tuples_produced, s.num_joins, s.num_projections,
                      s.num_semijoins, s.max_intermediate_arity,
                      s.max_intermediate_rows, s.peak_bytes);
  };
  EXPECT_EQ(stats_tuple(r1.totals), stats_tuple(r4a.totals));
  EXPECT_EQ(stats_tuple(r4a.totals), stats_tuple(r4b.totals));
  EXPECT_EQ(r1.cache.hits, r4a.cache.hits);
  EXPECT_EQ(r1.cache.misses, r4a.cache.misses);

  // Registries: identical up to the worker-count gauge, which is the one
  // metric that intentionally reflects the configuration.
  auto comparable = [](const MetricsRegistry& reg) {
    MetricsSnapshot snapshot = reg.Snapshot();
    snapshot.maxes.erase("runtime.batch.threads");
    return MetricsToJsonLines(snapshot);
  };
  EXPECT_EQ(comparable(reg4a), comparable(reg4b));
  EXPECT_EQ(comparable(reg1), comparable(reg4a));
}

TEST(BatchExecutorTest, PeakBytesFoldsAsMaxNotSum) {
  // Regression guard for the totals fold: peak_bytes is a high-water
  // gauge (the largest single-operator footprint of any one job), so the
  // batch total must be the max over jobs — folding it additively would
  // inflate with batch size and break the static-bound comparisons.
  Database db = ThreeColorDb();
  ColorBatchSpec spec;
  spec.num_bases = 3;
  spec.copies_per_base = 4;
  spec.num_vertices = 8;
  spec.seed = 29;
  std::vector<BatchJob> jobs = JobsFrom(IsomorphicColorBatch(spec),
                                        StrategyKind::kBucketElimination);
  BatchOptions options;
  options.num_threads = 2;
  const BatchResult result = BatchExecutor(db, options).Run(jobs);

  Counter max_peak = 0;
  Counter sum_peak = 0;
  for (const ExecutionResult& r : result.results) {
    ASSERT_TRUE(r.status.ok());
    ASSERT_GT(r.stats.peak_bytes, 0);
    max_peak = std::max(max_peak, r.stats.peak_bytes);
    sum_peak += r.stats.peak_bytes;
  }
  EXPECT_EQ(result.totals.peak_bytes, max_peak);
  ASSERT_GT(result.results.size(), 1u);
  EXPECT_LT(result.totals.peak_bytes, sum_peak);
}

TEST(BatchExecutorTest, PublishesRuntimeMetrics) {
  Database db = ThreeColorDb();
  std::vector<ConjunctiveQuery> queries;
  queries.push_back(KColorQuery(Cycle(5)));
  queries.push_back(KColorQuery(Cycle(5)));
  std::vector<BatchJob> jobs =
      JobsFrom(queries, StrategyKind::kBucketElimination);
  MetricsRegistry registry;
  BatchOptions options;
  options.num_threads = 2;
  options.metrics = &registry;
  BatchExecutor(db, options).Run(jobs);
  EXPECT_EQ(registry.counter("runtime.batch.jobs"), 2);
  EXPECT_EQ(registry.counter("runtime.batch.runs"), 1);
  EXPECT_EQ(registry.counter("runtime.cache.misses"), 1);
  EXPECT_EQ(registry.counter("runtime.cache.hits"), 1);
  EXPECT_EQ(registry.max_value("runtime.batch.threads"), 2);
  const Log2Histogram* tuples = registry.histogram("runtime.job.tuples");
  ASSERT_NE(tuples, nullptr);
  EXPECT_EQ(tuples->count, 2u);
  // Per-operator stats flow through the worker shards into the target
  // registry: the exec counters must cover both jobs.
  EXPECT_GT(registry.counter("exec.tuples_produced"), 0);
}

TEST(BatchExecutorTest, AutoThreadCountIsPositive) {
  Database db = ThreeColorDb();
  BatchOptions options;
  options.num_threads = 0;  // auto
  BatchExecutor executor(db, options);
  EXPECT_GE(executor.num_threads(), 1);
}

// Acceptance gate: >= 3x single-thread throughput at 8 workers on a
// 200-job batch. Meaningless without the cores to run 8 workers in
// parallel, so hardware-gated; CI machines with >= 8 threads enforce it.
TEST(BatchExecutorTest, ThroughputScalesWithWorkersOnBigMachines) {
  const int hw = ThreadPool::HardwareThreads();
  if (hw < 8) {
    GTEST_SKIP() << "needs >= 8 hardware threads, have " << hw;
  }
  Database db = ThreeColorDb();
  ColorBatchSpec spec;
  spec.num_bases = 20;
  spec.copies_per_base = 10;
  spec.num_vertices = 14;
  spec.density = 1.5;
  spec.seed = 3;
  std::vector<BatchJob> jobs = JobsFrom(IsomorphicColorBatch(spec),
                                        StrategyKind::kBucketElimination);

  auto time_at = [&db, &jobs](int threads) {
    BatchOptions options;
    options.num_threads = threads;
    BatchExecutor executor(db, options);
    // Warm the cache so the measurement is pure execution scheduling.
    executor.Run(jobs);
    return executor.Run(jobs).seconds;
  };
  const double t1 = time_at(1);
  const double t8 = time_at(8);
  EXPECT_GE(t1 / t8, 3.0) << "t1=" << t1 << " t8=" << t8;
}

// tsan workhorse: many workers, shared external cache, repeated batches.
// The assertions are light — the point is the interleaving coverage.
TEST(BatchExecutorTest, ConcurrentHammer) {
  Database db = ThreeColorDb();
  ColorBatchSpec spec;
  spec.num_bases = 4;
  spec.copies_per_base = 8;
  spec.num_vertices = 8;
  spec.seed = 101;
  std::vector<BatchJob> jobs = JobsFrom(IsomorphicColorBatch(spec),
                                        StrategyKind::kBucketElimination);
  PlanCache cache(/*capacity=*/4, /*num_shards=*/2);  // eviction pressure
  for (int round = 0; round < 3; ++round) {
    BatchOptions options;
    options.num_threads = 8;
    options.cache = &cache;
    MetricsRegistry registry;
    options.metrics = &registry;
    const BatchResult batch = BatchExecutor(db, options).Run(jobs);
    for (const ExecutionResult& r : batch.results) {
      EXPECT_TRUE(r.status.ok());
    }
    EXPECT_EQ(registry.counter("runtime.batch.jobs"),
              static_cast<int64_t>(jobs.size()));
  }
}

}  // namespace
}  // namespace ppr
