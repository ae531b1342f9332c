// sweep_heavy: the paper's own workload, in-process and single-threaded.
// Each operation plans, compiles and executes one strategy on one seeded
// 3-COLOR instance under the 2M-tuple budget: the calls RunStrategy
// makes, made here directly so the answer relation is kept for the
// cross-strategy check.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "benchlib/harness.h"
#include "common/rng.h"
#include "encode/kcolor.h"
#include "exec/physical_plan.h"
#include "graph/generators.h"

namespace perfbench {
namespace {

using namespace ppr;

constexpr StrategyKind kStrategies[] = {
    StrategyKind::kStraightforward, StrategyKind::kEarlyProjection,
    StrategyKind::kReordering, StrategyKind::kBucketElimination};
constexpr double kFreeFraction = 0.2;
// Fig. 3 (density at a fixed order) and Fig. 4 (order at density 3.0):
// random graphs, several seeded replicas per point. Sizes stay below the
// points where a weak strategy exhausts the budget on some seeds but not
// others, so the number of timeouts per pass does not depend on the
// seed. Most operations are order-8 instances: they cost about the same
// whatever the graph (plan + compile + a small execution), so the p50
// lands inside one dense cluster of operations and measures that fixed
// per-operation cost, while the budget-bound runs below set the p99 and
// most of the run time.
constexpr int kFig3Order = 12;
constexpr double kFig3Densities[] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
constexpr int kFig3Replicas = 4;
constexpr double kFig4Density = 3.0;
struct OrderPoint {
  int order;
  int replicas;
};
constexpr OrderPoint kFig4Points[] = {{8, 87}, {10, 4}, {12, 4}};
// Figs. 7/8: fixed ladder shapes. The ladders stay at orders where no
// strategy comes near the budget (at order 10, reordering a 20%-free
// ladder exhausts it on most seeds but not all). On the augmented
// ladders of order 7, 9 and 11, straightforward and reordering exhaust
// the budget (the paper's TIMEOUT) whatever the seed: 12 of the pass's
// 1000 operations, so the p99 rank (10 operations from the top) falls
// inside that class of budget-bound runs, not on its edge.
constexpr int kFig7Orders[] = {6, 8, 9};
constexpr int kFig8Orders[] = {7, 9, 11};
// Every operation runs at least this often per untraced run; the
// reported latencies are per-operation medians over the passes.
constexpr int kMinPasses = 3;
// Set-ups per untraced run; setup_s is their median. One set-up takes
// about a millisecond, so a single one would mostly measure noise.
constexpr int kSetups = 41;

struct Instance {
  std::string label;
  ConjunctiveQuery query;
};

std::vector<Instance> MakeInstances(uint64_t seed) {
  std::vector<Instance> out;
  uint64_t salt = 0;
  const auto add = [&](const std::string& label,
                       const std::function<Graph(Rng&)>& make) {
    for (const bool free_vars : {false, true}) {
      Rng rng(Mix(seed, salt++));
      const Graph g = make(rng);
      out.push_back({label + (free_vars ? " free" : " bool"),
                     free_vars ? KColorQueryNonBoolean(g, kFreeFraction, rng)
                               : KColorQuery(g)});
    }
  };
  for (const double density : kFig3Densities) {
    for (int r = 0; r < kFig3Replicas; ++r) {
      add("fig3 density " + std::to_string(density), [density](Rng& rng) {
        return RandomGraphWithDensity(kFig3Order, density, rng);
      });
    }
  }
  for (const OrderPoint point : kFig4Points) {
    for (int r = 0; r < point.replicas; ++r) {
      add("fig4 order " + std::to_string(point.order), [point](Rng& rng) {
        return RandomGraphWithDensity(point.order, kFig4Density, rng);
      });
    }
  }
  for (const int order : kFig7Orders) {
    add("fig7 ladder " + std::to_string(order),
        [order](Rng&) { return Ladder(order); });
  }
  for (const int order : kFig8Orders) {
    add("fig8 augmented ladder " + std::to_string(order),
        [order](Rng&) { return AugmentedLadder(order); });
  }
  return out;
}

/// Folds an answer's size and row data into an FNV-1a digest. The size
/// is what tells a true Boolean answer (one empty tuple) from a false one.
uint64_t FoldAnswer(uint64_t digest, const Relation& answer) {
  const auto fold = [&digest](uint64_t v) {
    digest = (digest ^ v) * 1099511628211ULL;
  };
  fold(static_cast<uint64_t>(answer.size()));
  for (int64_t i = 0; i < answer.size() * answer.arity(); ++i) {
    fold(static_cast<uint32_t>(answer.data()[i]));
  }
  return digest;
}

/// Everything one phase (a run of whole passes) produced.
struct Phase {
  int passes = 0;
  int64_t ops = 0;
  int64_t failed = 0;
  int64_t tuples = 0;
  int64_t peak_bytes = 0;
  Samples latency;
  /// Per pass, each operation's latency and process CPU time (ns), in
  /// operation order.
  std::vector<std::vector<int64_t>> op_ns;
  std::vector<std::vector<int64_t>> op_cpu_ns;
  std::vector<CountRecord> records;
};

/// Each operation's median over the passes, so a slow stretch of the
/// host that hits one pass does not move the result.
struct Filtered {
  Samples latency;  // per-operation median latency
  double latency_sum_ns = 0.0;
  double cpu_sum_ns = 0.0;
};

Filtered MedianOverPasses(const Phase& phase) {
  Filtered out;
  const size_t ops = phase.op_ns.front().size();
  for (size_t i = 0; i < ops; ++i) {
    Samples latency;
    Samples cpu;
    for (size_t p = 0; p < phase.op_ns.size(); ++p) {
      latency.Add(phase.op_ns[p][i]);
      cpu.Add(phase.op_cpu_ns[p][i]);
    }
    const int64_t median = latency.Quantile(0.50);
    out.latency.Add(median);
    out.latency_sum_ns += static_cast<double>(median);
    out.cpu_sum_ns += static_cast<double>(cpu.Quantile(0.50));
  }
  return out;
}

class Sweep {
 public:
  explicit Sweep(uint64_t seed) : instances_(MakeInstances(seed)) {
    AddColoringRelations(3, &db_);
  }

  size_t num_ops() const { return instances_.size() * std::size(kStrategies); }

  /// One pass: every strategy on every instance. `log` null runs it
  /// untraced.
  void Pass(SpanLog* log, std::map<std::string, int64_t>* kernel,
            Phase* phase) {
    int64_t timeouts = 0;
    int64_t tuples = 0;
    uint64_t digest = 1469598103934665603ULL;
    std::vector<int64_t>& op_ns = phase->op_ns.emplace_back();
    std::vector<int64_t>& op_cpu_ns = phase->op_cpu_ns.emplace_back();
    for (size_t i = 0; i < instances_.size(); ++i) {
      const Instance& inst = instances_[i];
      // The first answer that is not a TIMEOUT; every later strategy's
      // must equal it as a set.
      Relation expected;
      bool have_expected = false;
      for (const StrategyKind kind : kStrategies) {
        const int64_t id = next_id_++;
        const double cpu_before = Usage::Now().cpu_s;
        const int64_t before = NowNs();
        int64_t elapsed = 0;
        int32_t exec_span = -1;
        ExecutionResult result;
        {
          ScopedSpan op(log, "op", -1, id);
          const Plan plan = [&] {
            ScopedSpan s(log, "plan", op.id(), id);
            return BuildStrategyPlan(kind, inst.query, i);
          }();
          Result<PhysicalPlan> compiled = [&] {
            ScopedSpan s(log, "compile", op.id(), id);
            return PhysicalPlan::Compile(inst.query, plan, db_);
          }();
          if (!compiled.ok()) {
            result.status = compiled.status();
          } else {
            ScopedSpan s(log, "execute", op.id(), id);
            exec_span = s.id();
            result = compiled->ExecuteShared(
                nullptr, kTupleBudget, log != nullptr ? log->sink() : nullptr,
                nullptr);
          }
          elapsed = NowNs() - before;
        }
        if (log != nullptr && exec_span >= 0) {
          log->AdoptKernelSpans(exec_span, id, kernel);
        }
        op_cpu_ns.push_back(
            static_cast<int64_t>((Usage::Now().cpu_s - cpu_before) * 1e9));
        op_ns.push_back(elapsed);
        ++phase->ops;
        phase->latency.Add(elapsed);
        tuples += result.stats.tuples_produced;
        phase->peak_bytes =
            std::max<int64_t>(phase->peak_bytes, result.stats.peak_bytes);
        if (result.status.code() == StatusCode::kResourceExhausted) {
          ++timeouts;  // the paper's TIMEOUT, not a failure
          continue;
        }
        if (!result.status.ok()) {
          Fail(phase, inst, kind, result.status.ToString());
          continue;
        }
        if (!have_expected) {
          // The same strategy answers first on every pass, so its rows
          // come in the same order and the digest repeats.
          digest = FoldAnswer(digest, result.output);
          expected = std::move(result.output);
          have_expected = true;
        } else if (!result.output.SetEquals(expected)) {
          Fail(phase, inst, kind, "answer differs from the other strategies");
        }
      }
    }
    phase->tuples += tuples;
    CountRecord record;
    record.Set("ops", static_cast<int64_t>(num_ops()));
    record.Set("timeouts", timeouts);
    record.Set("tuples", tuples);
    record.Set("answer_digest", static_cast<int64_t>(digest >> 1));
    phase->records.push_back(record);
  }

 private:
  static void Fail(Phase* phase, const Instance& inst, StrategyKind kind,
                   const std::string& why) {
    if (phase->failed++ == 0) {
      std::printf("FAIL %s, %s: %s\n", inst.label.c_str(), StrategyName(kind),
                  why.c_str());
    }
  }

  std::vector<Instance> instances_;
  Database db_;
  int64_t next_id_ = 1;
};

}  // namespace

RunResult RunSweep(const Options& options) {
  RunResult result;
  const int64_t run_start_steal = StealTicks(options.cpu);
  std::vector<double> setup_s;
  std::unique_ptr<Sweep> sweep;
  int64_t setup_start = options.start_ns;
  for (int i = 0; i < (options.trace ? 1 : kSetups); ++i) {
    if (i > 0) {
      sweep.reset();  // tearing the last one down is not set-up
      setup_start = NowNs();
    }
    sweep = std::make_unique<Sweep>(options.seed);
    setup_s.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);
  }
  std::sort(setup_s.begin(), setup_s.end());
  std::printf("sweep_heavy: %zu operations per pass; set-ups (s):",
              sweep->num_ops());
  for (const double s : setup_s) std::printf(" %.5f", s);
  std::printf("\n");

  std::map<std::string, int64_t> kernel;
  Phase plain;
  const double plain_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  const Usage u0 = Usage::Now();
  const int64_t steal0 = StealTicks(options.cpu);
  const int64_t t0 = NowNs();
  const int min_passes = options.trace ? 1 : kMinPasses;
  plain.passes = RunPasses(plain_seconds, min_passes,
                           [&] { sweep->Pass(nullptr, &kernel, &plain); });
  const double elapsed = static_cast<double>(NowNs() - t0) / 1e9;
  const Usage u1 = Usage::Now();
  const double cpu_us_per_op = (u1.cpu_s - u0.cpu_s) * 1e6 / plain.ops;
  result.attempted += plain.ops;
  result.failed += plain.failed;
  std::printf("%d passes, %lld operations in %.3f s, cpu %d, steal %.0f ms\n",
              plain.passes, static_cast<long long>(plain.ops), elapsed,
              options.cpu, StealTicksToMs(StealTicks(options.cpu) - steal0));
  PrintLatency("plan+compile+execute, all samples", plain.latency);
  std::printf("pass counts: %s\n", plain.records[0].ToString().c_str());
  bool deterministic = PassesAgree("sweep", plain.records);

  if (!options.trace) {
    Filtered filtered = MedianOverPasses(plain);
    PrintLatency("per-operation medians over the passes", filtered.latency);
    const double ops = static_cast<double>(sweep->num_ops());
    deterministic =
        CheckAgainstEarlierRuns(options, plain.records[0]) && deterministic;
    result.correct = deterministic && result.failed == 0;
    result.Metric("setup_s", setup_s[setup_s.size() / 2], "s");
    result.Metric("throughput_qps", ops / (filtered.latency_sum_ns / 1e9),
                  "req/s");
    result.Metric("latency_p50_ms", filtered.latency.Quantile(0.50) / 1e6,
                  "ms");
    result.Metric("latency_p99_ms", filtered.latency.Quantile(0.99) / 1e6,
                  "ms");
    result.Metric("cpu_us_per_query", filtered.cpu_sum_ns / 1e3 / ops, "us");
    result.Metric("peak_rss_mb", PeakRssMb(), "MiB");
    return result;
  }

  SpanLog log;
  Phase traced;
  traced.passes = RunPasses(options.seconds / 2, 1,
                            [&] { sweep->Pass(&log, &kernel, &traced); });
  result.attempted += traced.ops;
  result.failed += traced.failed;
  std::vector<CountRecord> all = plain.records;
  all.insert(all.end(), traced.records.begin(), traced.records.end());
  deterministic = PassesAgree("untraced+traced", all) && deterministic;
  deterministic =
      CheckAgainstEarlierRuns(options, plain.records[0]) && deterministic;
  result.correct = deterministic && result.failed == 0;

  const std::string spans_path = options.state_dir + "/spans-sweep_heavy-seed" +
                                 std::to_string(options.seed) + ".csv";
  if (!log.Write(spans_path)) {
    std::printf("note: could not write %s\n", spans_path.c_str());
  }
  PrintSelfTimes(log, traced.ops);
  const double untraced_us = plain.latency.MeanNs() / 1e3;
  const double traced_us = log.Durations("op").MeanNs() / 1e3;
  const CountRecord& pass = plain.records[0];
  LayerMetrics m;
  m.FromSpans(log, traced.ops, traced.passes, traced.tuples, kernel);
  m.timeouts = pass.Get("timeouts");
  m.tuples_produced = pass.Get("tuples");
  m.peak_bytes = traced.peak_bytes;
  m.minor_faults_per_query =
      static_cast<double>(u1.minor_faults - u0.minor_faults) / plain.ops;
  m.steal_ms = StealTicksToMs(StealTicks(options.cpu) - run_start_steal);
  m.cpu = options.cpu;
  m.trace_overhead_pct = (traced_us / untraced_us - 1.0) * 100.0;
  m.unexplained_pct = (1.0 - traced_us / cpu_us_per_op) * 100.0;
  std::printf("untraced %.3f us/op, traced %.3f us/op (tracing overhead "
              "%.1f%%); untraced cpu %.3f us/op, of which the traced spans "
              "leave %.1f%% unexplained\n",
              untraced_us, traced_us, m.trace_overhead_pct, cpu_us_per_op,
              m.unexplained_pct);
  m.AddTo(&result);
  return result;
}

}  // namespace perfbench
