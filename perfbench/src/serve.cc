// serve_hot / serve_cold: an in-process pprd (QueryService +
// ServiceServer on 127.0.0.1, one worker) driven by two blocking
// ServiceClients in a closed loop, each sending a fixed, seeded list of
// query texts per pass. The traced run replays the same requests through
// the public calls QueryService::Submit makes, with a span per layer.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/width_analyzer.h"
#include "bench.h"
#include "benchlib/batch_workload.h"
#include "benchlib/harness.h"
#include "common/rng.h"
#include "encode/kcolor.h"
#include "graph/generators.h"
#include "query/parser.h"
#include "runtime/batch_executor.h"
#include "runtime/plan_cache.h"
#include "service/admission.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"

namespace perfbench {
namespace {

using namespace ppr;

constexpr int kClients = 2;
constexpr int kVertices = 12;
constexpr double kDensity = 1.3;
constexpr double kFreeFraction = 0.2;
constexpr size_t kCacheCapacity = 1024;
// serve_hot: Zipf(1.1) over 32 isomorphic families of 8 texts each (256
// texts, 32 cache entries), 1000 requests per client per pass.
constexpr int kHotFamilies = 32;
constexpr int kHotCopies = 8;
constexpr int kHotListLength = 1000;
constexpr double kZipf = 1.1;
// serve_cold: 1024 distinct queries per client. 2048 structures cycled
// through a 1024-entry LRU cache (8 shards of 128) put about 256 keys on
// every shard, so each key is evicted long before it comes round again:
// every timed request misses.
constexpr int kColdListLength = 1024;
// setup_s is the median of the set-ups of an untraced run: the first,
// timed from process start, and then a fresh one (the old daemon torn
// down untimed) before every kHotResetupEvery-th / kColdResetupEvery-th
// timed pass. Spread through the run like the passes, the set-ups see the
// same stretch of host speed as the other metrics: about 40 on serve_hot
// (35 ms each), 5 on serve_cold (0.6 s each).
constexpr int kHotResetupEvery = 1;
constexpr int kColdResetupEvery = 3;
// Replay passes with spans on: a few hundred thousand spans, which is
// plenty for per-layer self times and keeps the span dump small.
constexpr int kTracedPasses = 2;

ConjunctiveQuery ColorQuery(const Graph& g, bool free_vars, Rng& rng) {
  return free_vars ? KColorQueryNonBoolean(g, kFreeFraction, rng)
                   : KColorQuery(g);
}

/// The generated traffic: distinct texts, each client's per-pass list
/// (indices into texts), and each client's warm-up list.
struct Inputs {
  std::vector<std::string> texts;
  std::vector<std::vector<uint32_t>> lists;
  std::vector<std::vector<uint32_t>> warmup;
};

Inputs MakeInputs(uint64_t seed, bool cold) {
  Inputs in;
  in.lists.resize(kClients);
  if (cold) {
    // Every text is a fresh seeded graph, half Boolean, half 20% free.
    for (int c = 0; c < kClients; ++c) {
      for (int i = 0; i < kColdListLength; ++i) {
        Rng rng(Mix(seed, static_cast<uint64_t>(c) * 1'000'003 + i));
        const Graph g = RandomGraphWithDensity(kVertices, kDensity, rng);
        in.lists[c].push_back(static_cast<uint32_t>(in.texts.size()));
        in.texts.push_back(QueryToText(ColorQuery(g, i % 2 == 1, rng)));
      }
    }
    // Warm-up is one ordinary pass: it leaves the cache full, in the LRU
    // order every timed pass starts from.
    in.warmup = in.lists;
    return in;
  }
  for (int f = 0; f < kHotFamilies; ++f) {
    Rng rng(Mix(seed, static_cast<uint64_t>(f)));
    const Graph g = RandomGraphWithDensity(kVertices, kDensity, rng);
    const ConjunctiveQuery base = ColorQuery(g, f % 2 == 1, rng);
    for (const ConjunctiveQuery& copy :
         PermutedCopies(base, kHotCopies, Mix(seed, 7919 + f))) {
      in.texts.push_back(QueryToText(copy));
    }
  }
  std::vector<double> cdf(kHotFamilies);
  double total = 0.0;
  for (int k = 0; k < kHotFamilies; ++k) {
    total += std::pow(static_cast<double>(k + 1), -kZipf);
    cdf[k] = total;
  }
  in.warmup.resize(kClients);
  for (int c = 0; c < kClients; ++c) {
    Rng rng(Mix(seed, 1'000'000'007ULL + c));
    for (int i = 0; i < kHotListLength; ++i) {
      const double u = rng.NextDouble() * total;
      const int family = static_cast<int>(
          std::min<ptrdiff_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                  cdf.begin(),
                              kHotFamilies - 1));
      const uint64_t member = rng.NextBounded(kHotCopies);
      in.lists[c].push_back(
          static_cast<uint32_t>(family * kHotCopies + member));
    }
  }
  for (uint32_t t = 0; t < in.texts.size(); ++t) {
    in.warmup[t % kClients].push_back(t);
  }
  return in;
}

ServiceConfig DaemonConfig() {
  ServiceConfig config;
  config.num_workers = 1;
  config.default_strategy = StrategyKind::kBucketElimination;
  config.max_tuple_budget = kTupleBudget;
  config.cache_capacity = kCacheCapacity;
  return config;
}

/// Bytes and frames of replies.
struct Wire {
  int64_t bytes = 0;
  int64_t frames = 0;
};

/// Encodes one OK reply as ServiceServer::WriteReply does (header,
/// 1024-row batches, trailer): the replay's last step. Returns its size.
Wire EncodeReply(uint64_t request_id, bool cache_hit, int32_t width,
                 const Relation& output, const ExecStats& stats,
                 int64_t wall_ns) {
  ReplyHeader header;
  header.status = ServiceStatus::kOk;
  header.cache_hit = cache_hit;
  header.predicted_width = width;
  const bool rows = output.arity() > 0;
  for (int c = 0; rows && c < output.arity(); ++c) {
    header.attrs.push_back(output.schema().attr(c));
  }
  ReplyTrailer trailer;
  trailer.nonempty = !output.empty();
  trailer.tuples_produced = stats.tuples_produced;
  trailer.max_intermediate_rows = stats.max_intermediate_rows;
  trailer.peak_bytes = stats.peak_bytes;
  trailer.max_arity = stats.max_intermediate_arity;
  trailer.num_joins = stats.num_joins;
  trailer.num_projections = stats.num_projections;
  trailer.num_semijoins = stats.num_semijoins;
  trailer.wall_ns = wall_ns;
  Wire wire;
  wire.bytes += static_cast<int64_t>(
      EncodeReplyHeaderFrame(request_id, header).size());
  ++wire.frames;
  for (int64_t first = 0; rows && first < output.size();
       first += kRowBatchRows) {
    const int64_t count =
        std::min<int64_t>(kRowBatchRows, output.size() - first);
    wire.bytes += static_cast<int64_t>(
        EncodeRowBatchFrame(request_id, output, first, count).size());
    ++wire.frames;
  }
  wire.bytes += static_cast<int64_t>(
      EncodeTrailerFrame(request_id, trailer).size());
  ++wire.frames;
  return wire;
}

/// Reference answers: a direct one-thread BatchExecutor over the parsed
/// texts (the parser renumbers attributes, so the parsed query is what
/// the daemon evaluates).
struct Reference {
  std::vector<ExecutionResult> results;
  bool ok = true;
};

Reference ComputeReference(const Inputs& in) {
  Reference ref;
  Database db;
  AddColoringRelations(3, &db);
  std::vector<BatchJob> jobs;
  jobs.reserve(in.texts.size());
  for (const std::string& text : in.texts) {
    Result<ParsedQuery> parsed = ParseQuery(text);
    if (!parsed.ok()) {
      std::printf("FAIL generated text does not parse: %s\n",
                  parsed.status().ToString().c_str());
      ref.ok = false;
      return ref;
    }
    BatchJob job;
    job.query = std::move(parsed->query);
    job.strategy = StrategyKind::kBucketElimination;
    job.seed = 0;
    job.tuple_budget = kTupleBudget;
    jobs.push_back(std::move(job));
  }
  BatchOptions options;
  options.num_threads = 1;
  BatchExecutor executor(db, options);
  ref.results = std::move(executor.Run(jobs).results);
  for (const ExecutionResult& r : ref.results) {
    if (!r.status.ok()) {
      std::printf("FAIL reference execution: %s\n",
                  r.status.ToString().c_str());
      ref.ok = false;
    }
  }
  return ref;
}

/// A running in-process daemon with its connected clients. Members are
/// destroyed in reverse order: clients hang up, the server drains, then
/// the service joins its worker.
struct Daemon {
  Database db;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<ServiceServer> server;
  std::vector<ServiceClient> clients;
};

std::unique_ptr<Daemon> StartDaemon() {
  auto d = std::make_unique<Daemon>();
  AddColoringRelations(3, &d->db);
  d->service = std::make_unique<QueryService>(d->db, DaemonConfig());
  d->server = std::make_unique<ServiceServer>(d->service.get(), ServerConfig{});
  if (Status started = d->server->Start(); !started.ok()) {
    std::printf("FAIL daemon start: %s\n", started.ToString().c_str());
    return nullptr;
  }
  for (int c = 0; c < kClients; ++c) {
    Result<ServiceClient> client =
        ServiceClient::Connect("127.0.0.1", d->server->port());
    if (!client.ok()) {
      std::printf("FAIL connect: %s\n", client.status().ToString().c_str());
      return nullptr;
    }
    d->clients.push_back(std::move(*client));
  }
  return d;
}

/// What the clients saw: counts, plus the raw samples of one pass. Runs
/// fold passes with AddCounts and keep only per-pass statistics, so the
/// benchmark's own memory does not grow with the run and show up in the
/// program's peak RSS.
struct Traffic {
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  int64_t tuples = 0;
  int64_t timeouts = 0;
  double rtt_sum_ns = 0.0;
  Wire wire;
  Samples rtt;
  Samples queue;
  Samples overhead;  // rtt - queue_ns - wall_ns

  void AddSample(int64_t rtt_ns, int64_t queue_ns, int64_t wall_ns) {
    rtt.Add(rtt_ns);
    rtt_sum_ns += static_cast<double>(rtt_ns);
    queue.Add(queue_ns);
    overhead.Add(rtt_ns - queue_ns - wall_ns);
  }

  void AddCounts(const Traffic& o) {
    sent += o.sent;
    ok += o.ok;
    failed += o.failed;
    tuples += o.tuples;
    timeouts += o.timeouts;
    rtt_sum_ns += o.rtt_sum_ns;
    wire.bytes += o.wire.bytes;
    wire.frames += o.wire.frames;
  }
};

/// One closed-loop pass: every client sends its list once, in order,
/// waiting for each reply. `reference` null skips the answer check (the
/// warm-up runs before the reference exists; it only checks status).
Traffic DaemonPass(Daemon* d, const std::vector<std::vector<uint32_t>>& lists,
                   const std::vector<std::string>& texts,
                   const Reference* reference, uint64_t* next_id) {
  std::vector<Traffic> per_client(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    const uint64_t first_id = *next_id;
    *next_id += lists[c].size();
    threads.emplace_back([&, c, first_id] {
      Traffic& mine = per_client[c];
      ServiceClient& client = d->clients[c];
      const WireTap tap;
      uint64_t id = first_id;
      for (const uint32_t index : lists[c]) {
        ServiceRequest request;
        request.request_id = id++;
        request.client_id = static_cast<uint64_t>(c);
        request.strategy = -1;
        request.seed = 0;
        request.tuple_budget = kTupleBudget;
        request.query_text = texts[index];
        const int64_t before = NowNs();
        Result<ServiceReply> reply = client.Call(request);
        const int64_t rtt = NowNs() - before;
        ++mine.sent;
        if (!reply.ok() || !reply->ok()) {
          if (mine.failed++ == 0) {
            std::printf("FAIL request %llu: %s\n",
                        static_cast<unsigned long long>(request.request_id),
                        !reply.ok() ? reply.status().ToString().c_str()
                                    : reply->detail.ToString().c_str());
          }
          if (reply.ok() &&
              reply->status == ServiceStatus::kBudgetExhausted) {
            ++mine.timeouts;
          }
          continue;
        }
        if (reference != nullptr &&
            !SameRelation(reply->output, reference->results[index].output)) {
          if (mine.failed++ == 0) {
            std::printf("FAIL request %llu: answer differs from the "
                        "BatchExecutor reference\n",
                        static_cast<unsigned long long>(request.request_id));
          }
          continue;
        }
        ++mine.ok;
        mine.tuples += reply->stats.tuples_produced;
        mine.AddSample(rtt, reply->queue_ns, reply->wall_ns);
      }
      mine.wire = {tap.bytes(), tap.frames()};
      // Every reply is at least a header and a trailer frame.
      if (mine.wire.frames < 2 * mine.sent && mine.failed++ == 0) {
        std::printf("FAIL the wire tap saw %lld frames for %lld replies\n",
                    static_cast<long long>(mine.wire.frames),
                    static_cast<long long>(mine.sent));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Traffic out;
  for (const Traffic& t : per_client) {
    out.AddCounts(t);
    out.rtt.Append(t.rtt);
    out.queue.Append(t.queue);
    out.overhead.Append(t.overhead);
  }
  return out;
}

/// The counts of one pass that the daemon and the replay both produce.
CountRecord PassRecord(const Traffic& t, const PlanCache::Stats& before,
                       const PlanCache::Stats& after) {
  CountRecord r;
  r.Set("requests", t.sent);
  r.Set("ok", t.ok);
  r.Set("tuples", t.tuples);
  r.Set("timeouts", t.timeouts);
  r.Set("cache_hits", after.hits - before.hits);
  r.Set("cache_misses", after.misses - before.misses);
  r.Set("cache_evictions", after.evictions - before.evictions);
  return r;
}

/// Durations of the set-up phases, one sample per set-up.
struct SetupPhases {
  Samples inputs, start, warmup;
};

/// Generates the inputs, starts the daemon, connects the clients and
/// runs the warm-up pass: everything before the first timed request.
std::unique_ptr<Daemon> SetUp(const Options& options, bool cold, Inputs* in,
                              uint64_t* next_id, RunResult* result,
                              SetupPhases* phases) {
  const int64_t t0 = NowNs();
  *in = MakeInputs(options.seed, cold);
  const int64_t t1 = NowNs();
  std::unique_ptr<Daemon> d = StartDaemon();
  if (d == nullptr) return nullptr;
  const int64_t t2 = NowNs();
  const Traffic warm = DaemonPass(d.get(), in->warmup, in->texts, nullptr,
                                  next_id);
  phases->inputs.Add(t1 - t0);
  phases->start.Add(t2 - t1);
  phases->warmup.Add(NowNs() - t2);
  result->attempted += warm.sent;
  result->failed += warm.failed;
  return d;
}

/// The replay: the same requests through the public calls
/// QueryService::Submit makes, one at a time on this thread, with its own
/// plan cache, admission controller and worker arena.
class Replay {
 public:
  Replay() : cache_(kCacheCapacity), admission_(AdmissionController::Config{}) {
    AddColoringRelations(3, &db_);
    db_fingerprint_ = FingerprintDatabase(db_);
  }

  PlanCache::Stats cache_stats() const { return cache_.stats(); }

  /// Processes one request; `log` null runs it untraced.
  void Request(const std::string& text, int64_t id, uint64_t client,
               const Reference& reference, uint32_t index, SpanLog* log,
               Traffic* traffic, std::map<std::string, int64_t>* kernel,
               int64_t* peak_bytes) {
    ++traffic->sent;
    const int64_t before = NowNs();
    int32_t exec_span = -1;
    ExecutionResult result;
    Relation output;
    bool cache_hit = false;
    int32_t width = 0;
    {
      ScopedSpan request(log, "request", -1, id);
      Result<ParsedQuery> parsed = [&] {
        ScopedSpan s(log, "parse", request.id(), id);
        return ParseQuery(text);
      }();
      if (!parsed.ok()) return Fail(traffic, parsed.status());
      {
        ScopedSpan s(log, "validate", request.id(), id);
        if (Status valid = parsed->query.Validate(db_); !valid.ok()) {
          return Fail(traffic, valid);
        }
      }
      CanonicalQuery canon;
      PlanCacheKey key;
      {
        ScopedSpan s(log, "canonicalize", request.id(), id);
        canon = CanonicalizeQuery(parsed->query);
        // Submit fingerprints every request for its query log.
        (void)FingerprintQueryStructure(canon.structure);
        key.structure = canon.structure;
      }
      key.strategy = StrategyKind::kBucketElimination;
      key.seed = 0;
      key.join_algorithm = JoinAlgorithm::kHash;
      key.db = &db_;
      key.db_fingerprint = db_fingerprint_;
      bool compiled_here = false;
      Result<std::shared_ptr<const CachedPlan>> cached = [&] {
        ScopedSpan s(log, "cache", request.id(), id);
        return cache_.GetOrCompile(
            key,
            [&]() -> Result<CachedPlan> {
              Plan plan = [&] {
                ScopedSpan p(log, "plan", s.id(), id);
                return BuildStrategyPlan(key.strategy, canon.query, 0);
              }();
              const StaticAnalysis analysis = [&] {
                ScopedSpan a(log, "analyze", s.id(), id);
                return AnalyzePlan(canon.query, plan, db_);
              }();
              ScopedSpan c(log, "compile", s.id(), id);
              Result<PhysicalPlan> compiled = PhysicalPlan::Compile(
                  canon.query, plan, db_, JoinAlgorithm::kHash);
              if (!compiled.ok()) return compiled.status();
              CachedPlan out{canon.query, std::move(*compiled), plan.Width()};
              out.tuples_bound = analysis.status.ok()
                                     ? analysis.tuples_produced_bound
                                     : std::numeric_limits<double>::infinity();
              return out;
            },
            &compiled_here);
      }();
      if (!cached.ok()) return Fail(traffic, cached.status());
      cache_hit = !compiled_here;
      width = (*cached)->plan_width;
      const double bound = (*cached)->tuples_bound >= 0.0
                               ? (*cached)->tuples_bound
                               : std::numeric_limits<double>::infinity();
      {
        ScopedSpan s(log, "admit", request.id(), id);
        if (admission_.Admit(client, bound, static_cast<uint64_t>(NowNs())) !=
            AdmitDecision::kAdmit) {
          return Fail(traffic, Status::Unavailable("replay admission refused"));
        }
      }
      {
        ScopedSpan s(log, "execute", request.id(), id);
        exec_span = s.id();
        result = (*cached)->physical.ExecuteShared(
            &arena_, kTupleBudget, log != nullptr ? log->sink() : nullptr,
            nullptr);
      }
      admission_.Release(bound);
      if (!result.status.ok()) {
        if (result.status.code() == StatusCode::kResourceExhausted) {
          ++traffic->timeouts;
        }
        return Fail(traffic, result.status);
      }
      {
        ScopedSpan s(log, "remap", request.id(), id);
        output = RemapOutputFromCanonical(result.output, canon.from_canonical);
      }
      ScopedSpan s(log, "encode", request.id(), id);
      const Wire wire = EncodeReply(static_cast<uint64_t>(id), cache_hit,
                                    width, output, result.stats,
                                    static_cast<int64_t>(result.seconds * 1e9));
      traffic->wire.bytes += wire.bytes;
      traffic->wire.frames += wire.frames;
    }
    const int64_t wall_ns = NowNs() - before;
    traffic->rtt.Add(wall_ns);
    traffic->rtt_sum_ns += static_cast<double>(wall_ns);
    if (log != nullptr) log->AdoptKernelSpans(exec_span, id, kernel);
    *peak_bytes = std::max<int64_t>(*peak_bytes, result.stats.peak_bytes);
    if (!SameRelation(output, reference.results[index].output)) {
      return Fail(traffic, Status::Internal(
                               "replay answer differs from the daemon's"));
    }
    ++traffic->ok;
    traffic->tuples += result.stats.tuples_produced;
  }

  /// One pass over the clients' lists, interleaved as the two
  /// connections would interleave.
  Traffic Pass(const Inputs& in,
               const std::vector<std::vector<uint32_t>>& lists,
               const Reference& reference, SpanLog* log, int64_t* next_id,
               std::map<std::string, int64_t>* kernel, int64_t* peak_bytes) {
    Traffic t;
    size_t longest = 0;
    for (const auto& list : lists) longest = std::max(longest, list.size());
    for (size_t i = 0; i < longest; ++i) {
      for (int c = 0; c < kClients; ++c) {
        if (i >= lists[c].size()) continue;
        const uint32_t index = lists[c][i];
        Request(in.texts[index], (*next_id)++, static_cast<uint64_t>(c),
                reference, index, log, &t, kernel, peak_bytes);
      }
    }
    return t;
  }

 private:
  static void Fail(Traffic* traffic, const Status& status) {
    if (traffic->failed++ == 0) {
      std::printf("FAIL replay: %s\n", status.ToString().c_str());
    }
  }

  Database db_;
  uint64_t db_fingerprint_ = 0;
  PlanCache cache_;
  AdmissionController admission_;
  ExecArena arena_;
};

}  // namespace

RunResult RunServe(const Options& options, bool cold) {
  RunResult result;
  const char* name = cold ? "serve_cold" : "serve_hot";
  const int64_t run_start_steal = StealTicks(options.cpu);

  // The first set-up, timed from process start.
  Inputs in;
  uint64_t next_id = 1;
  SetupPhases phases;
  std::unique_ptr<Daemon> daemon =
      SetUp(options, cold, &in, &next_id, &result, &phases);
  if (daemon == nullptr) {
    result.correct = false;
    return result;
  }
  std::vector<double> setup_s = {
      static_cast<double>(NowNs() - options.start_ns) / 1e9};
  std::printf("%s: %zu texts, %d clients x %zu requests per pass\n", name,
              in.texts.size(), kClients, in.lists[0].size());

  // Reference answers, outside set-up and the timed phase.
  const Reference reference = ComputeReference(in);
  if (!reference.ok) {
    result.correct = false;
    return result;
  }

  // Timed (or, with --trace 1, the daemon half of the) closed loop.
  const double daemon_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  // Per pass: the counts the replay must reproduce, and those plus the
  // bytes and frames the clients received.
  std::vector<CountRecord> service_records;
  std::vector<CountRecord> records;
  Traffic traffic;
  const Usage u0 = Usage::Now();
  const int64_t steal0 = StealTicks(options.cpu);
  const int64_t t0 = NowNs();
  // Per pass: duration, p50 and p99 of its raw round trips (each pass
  // holds 2000+ of them), CPU per request, and the trailer splits. The
  // run reports the median over its passes, so a slow stretch of the
  // host that hits a few passes does not move the result.
  Samples pass_ns, pass_p50_ns, pass_p99_ns, pass_cpu_ns;
  Samples pass_queue_ns, pass_overhead_ns;
  int64_t beyond_p99 = 0;
  const int resetup_every =
      options.trace ? 0 : cold ? kColdResetupEvery : kHotResetupEvery;
  int passes = 0;
  do {
    if (resetup_every > 0 && passes > 0 && passes % resetup_every == 0) {
      daemon.reset();  // tearing the last one down is not set-up
      const int64_t setup_start = NowNs();
      daemon = SetUp(options, cold, &in, &next_id, &result, &phases);
      if (daemon == nullptr) {
        result.correct = false;
        return result;
      }
      setup_s.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);
    }
    const PlanCache::Stats before = daemon->service->cache_stats();
    const double cpu_start = Usage::Now().cpu_s;
    const int64_t pass_start = NowNs();
    Traffic pass =
        DaemonPass(daemon.get(), in.lists, in.texts, &reference, &next_id);
    pass_ns.Add(NowNs() - pass_start);
    pass_cpu_ns.Add(static_cast<int64_t>((Usage::Now().cpu_s - cpu_start) *
                                         1e9 /
                                         std::max<int64_t>(1, pass.sent)));
    pass_p50_ns.Add(pass.rtt.Quantile(0.50));
    const int64_t p99 = pass.rtt.Quantile(0.99);
    pass_p99_ns.Add(p99);
    beyond_p99 += pass.rtt.CountAbove(p99);
    pass_queue_ns.Add(pass.queue.Quantile(0.50));
    pass_overhead_ns.Add(pass.overhead.Quantile(0.50));
    CountRecord record =
        PassRecord(pass, before, daemon->service->cache_stats());
    service_records.push_back(record);
    record.Set("reply_bytes", pass.wire.bytes);
    record.Set("reply_frames", pass.wire.frames);
    records.push_back(record);
    traffic.AddCounts(pass);
    ++passes;
  } while (static_cast<double>(NowNs() - t0) < daemon_seconds * 1e9);
  const double elapsed = static_cast<double>(NowNs() - t0) / 1e9;
  const Usage u1 = Usage::Now();
  const double steal_ms = StealTicksToMs(StealTicks(options.cpu) - steal0);
  result.attempted += traffic.sent;
  result.failed += traffic.failed;
  const double cpu_us_per_req =
      traffic.sent > 0 ? (u1.cpu_s - u0.cpu_s) * 1e6 / traffic.sent : 0.0;
  std::sort(setup_s.begin(), setup_s.end());
  std::printf("set-ups (s):");
  for (const double s : setup_s) std::printf(" %.4f", s);
  std::printf("\nset-up phases, median (ms): inputs %.3f, daemon start and "
              "connect %.3f, warm-up pass %.3f\n",
              phases.inputs.Quantile(0.5) / 1e6,
              phases.start.Quantile(0.5) / 1e6,
              phases.warmup.Quantile(0.5) / 1e6);
  std::printf("daemon: %d passes, %lld requests in %.3f s (%.3f s of them "
              "in passes), cpu %d, steal %.0f ms\n",
              passes, static_cast<long long>(traffic.sent), elapsed,
              pass_ns.SumNs() / 1e9, options.cpu, steal_ms);
  std::printf("round trip: %lld samples, %lld per pass; %lld lie beyond "
              "their pass's p99 (%.1f per pass); mean %.4f ms\n",
              static_cast<long long>(traffic.sent),
              static_cast<long long>(records[0].Get("requests")),
              static_cast<long long>(beyond_p99),
              static_cast<double>(beyond_p99) / passes,
              traffic.rtt_sum_ns / std::max<int64_t>(1, traffic.ok) / 1e6);
  std::printf("per pass (min / median / max): seconds %.4f / %.4f / %.4f, "
              "p50 ms %.4f / %.4f / %.4f, p99 ms %.4f / %.4f / %.4f\n",
              pass_ns.Quantile(0.0) / 1e9, pass_ns.Quantile(0.5) / 1e9,
              pass_ns.Quantile(1.0) / 1e9, pass_p50_ns.Quantile(0.0) / 1e6,
              pass_p50_ns.Quantile(0.5) / 1e6, pass_p50_ns.Quantile(1.0) / 1e6,
              pass_p99_ns.Quantile(0.0) / 1e6, pass_p99_ns.Quantile(0.5) / 1e6,
              pass_p99_ns.Quantile(1.0) / 1e6);
  std::printf("pass counts: %s\n", records[0].ToString().c_str());
  bool deterministic = PassesAgree("daemon", records);

  if (!options.trace) {
    deterministic =
        CheckAgainstEarlierRuns(options, records[0]) && deterministic;
    result.correct = deterministic && result.failed == 0;
    result.Metric("setup_s", setup_s[setup_s.size() / 2], "s");
    result.Metric("throughput_qps",
                  static_cast<double>(records[0].Get("requests")) /
                      (pass_ns.Quantile(0.50) / 1e9),
                  "req/s");
    result.Metric("latency_p50_ms", pass_p50_ns.Quantile(0.50) / 1e6, "ms");
    result.Metric("latency_p99_ms", pass_p99_ns.Quantile(0.50) / 1e6, "ms");
    result.Metric("cpu_us_per_query", pass_cpu_ns.Quantile(0.50) / 1e3, "us");
    result.Metric("peak_rss_mb", PeakRssMb(), "MiB");
    return result;
  }

  // Traced run: replay every request through the public layer calls,
  // untraced and then traced, against the daemon's counts and answers.
  Replay replay;
  std::map<std::string, int64_t> kernel;
  int64_t peak_bytes = 0;
  int64_t replay_id = 1;
  {
    Traffic warm = replay.Pass(in, in.warmup, reference, nullptr, &replay_id,
                               &kernel, &peak_bytes);
    result.attempted += warm.sent;
    result.failed += warm.failed;
  }
  std::vector<CountRecord> replay_records;
  const auto replay_pass = [&](SpanLog* log, Traffic* total) {
    const PlanCache::Stats before = replay.cache_stats();
    const Traffic pass = replay.Pass(in, in.lists, reference, log, &replay_id,
                                     &kernel, &peak_bytes);
    replay_records.push_back(PassRecord(pass, before, replay.cache_stats()));
    total->AddCounts(pass);
  };
  Traffic plain;
  RunPasses(options.seconds / 4, 1, [&] { replay_pass(nullptr, &plain); });
  SpanLog log;
  Traffic traced;
  for (int i = 0; i < kTracedPasses; ++i) replay_pass(&log, &traced);
  result.attempted += plain.sent + traced.sent;
  result.failed += plain.failed + traced.failed;
  deterministic = PassesAgree("daemon+replay", [&] {
                    std::vector<CountRecord> all = service_records;
                    all.insert(all.end(), replay_records.begin(),
                               replay_records.end());
                    return all;
                  }()) &&
                  deterministic;
  deterministic =
      CheckAgainstEarlierRuns(options, records[0]) && deterministic;
  result.correct = deterministic && result.failed == 0;

  const std::string spans_path = options.state_dir + "/spans-" + name +
                                 "-seed" + std::to_string(options.seed) +
                                 ".csv";
  if (!log.Write(spans_path)) {
    std::printf("note: could not write %s\n", spans_path.c_str());
  }
  PrintSelfTimes(log, traced.sent);
  const double untraced_us = plain.rtt_sum_ns / plain.ok / 1e3;
  const double traced_us = log.Durations("request").MeanNs() / 1e3;
  const CountRecord& pass = records[0];
  LayerMetrics m;
  m.FromSpans(log, traced.sent, kTracedPasses, traced.tuples, kernel);
  m.rtt_overhead_us = pass_overhead_ns.Quantile(0.50) / 1e3;
  m.queue_wait_us = pass_queue_ns.Quantile(0.50) / 1e3;
  m.ctx_switches_per_req =
      static_cast<double>(u1.ctx_switches - u0.ctx_switches) / traffic.sent;
  m.reply_bytes_per_req =
      static_cast<double>(pass.Get("reply_bytes")) / pass.Get("requests");
  m.frames_per_req =
      static_cast<double>(pass.Get("reply_frames")) / pass.Get("requests");
  m.cache_lookups = pass.Get("cache_hits") + pass.Get("cache_misses");
  m.cache_hit_ratio = pass.Get("cache_hits") / m.cache_lookups;
  m.cache_evictions = pass.Get("cache_evictions");
  m.timeouts = pass.Get("timeouts");
  m.tuples_produced = pass.Get("tuples");
  m.peak_bytes = peak_bytes;
  m.minor_faults_per_query =
      static_cast<double>(u1.minor_faults - u0.minor_faults) / traffic.sent;
  m.steal_ms = StealTicksToMs(StealTicks(options.cpu) - run_start_steal);
  m.cpu = options.cpu;
  m.trace_overhead_pct = (traced_us / untraced_us - 1.0) * 100.0;
  m.unexplained_pct = (1.0 - traced_us / cpu_us_per_req) * 100.0;
  std::printf("reply bytes / frames per pass: %lld / %lld received by the "
              "clients, %lld / %lld encoded by the replay\n",
              static_cast<long long>(pass.Get("reply_bytes")),
              static_cast<long long>(pass.Get("reply_frames")),
              static_cast<long long>(traced.wire.bytes / kTracedPasses),
              static_cast<long long>(traced.wire.frames / kTracedPasses));
  std::printf("replay: untraced %.3f us/request, traced %.3f us/request "
              "(tracing overhead %.1f%%); daemon cpu %.3f us/request, of "
              "which the replay leaves %.1f%% unexplained\n",
              untraced_us, traced_us, m.trace_overhead_pct, cpu_us_per_req,
              m.unexplained_pct);
  m.AddTo(&result);
  return result;
}

}  // namespace perfbench
