// Shared pieces of the benchmark driver: options, raw-sample
// percentiles, process resource usage, host steal, the span log of the
// traced runs, the deterministic-count record, and the result printer.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "relational/relation.h"

namespace perfbench {

/// Every workload gets the same tuple budget: the paper's deterministic
/// stand-in for its wall-clock timeout.
inline constexpr int64_t kTupleBudget = 2'000'000;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the deterministic-count records and span dumps
  /// (inside the checkout's build directory).
  std::string state_dir;
  /// The CPU the process pinned itself to (-1: pinning failed).
  int cpu = -1;
  /// Steady-clock time at process start (the first set-up starts here).
  int64_t start_ns = 0;
};

/// Nanoseconds on the steady clock.
int64_t NowNs();

/// SplitMix64 of (seed, salt): independent generator seeds for every
/// input the benchmark derives from its --seed.
inline uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Runs whole passes of a workload's fixed operation list until
/// `seconds` have elapsed and at least `min_passes` have run, so every
/// count a pass produces is the same on every run.
template <typename PassFn>
int RunPasses(double seconds, int min_passes, PassFn pass) {
  const int64_t start = NowNs();
  int passes = 0;
  do {
    pass();
    ++passes;
  } while (passes < min_passes ||
           static_cast<double>(NowNs() - start) < seconds * 1e9);
  return passes;
}

/// Raw per-operation samples. Percentiles are nearest-rank over the
/// sorted samples, never bucketed.
class Samples {
 public:
  void Add(int64_t ns) { values_.push_back(ns); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  /// Nearest-rank quantile (q in (0, 1]) in nanoseconds; 0 when empty.
  int64_t Quantile(double q);
  /// Samples strictly greater than `ns`.
  int64_t CountAbove(int64_t ns) const;
  double MeanNs() const;
  double SumNs() const;

 private:
  std::vector<int64_t> values_;
  bool sorted_ = false;
};

/// getrusage(RUSAGE_SELF) snapshot.
struct Usage {
  double cpu_s = 0.0;  // user + sys
  int64_t minor_faults = 0;
  int64_t ctx_switches = 0;  // voluntary + involuntary
  static Usage Now();
};

/// Peak resident set of this process image in MiB: VmHWM from
/// /proc/self/status. getrusage's ru_maxrss is not used because execve
/// carries the launcher's peak into it (a run started from run.py read
/// Python's 14 MiB instead of serve_hot's 6.7 MiB).
double PeakRssMb();

/// Host steal ticks of `cpu` from /proc/stat (0 when unreadable).
int64_t StealTicks(int cpu);
double StealTicksToMs(int64_t ticks);

/// Pins the calling thread (and so every thread it creates later) to
/// the highest-numbered CPU of its allowed set; returns that CPU or -1.
int PinToOneCpu();

/// In-memory span log of a traced run. Spans carry a name, start, end,
/// parent and request id; the clock is the TraceSink the kernels record
/// into, so engine kernel spans and benchmark spans share one timeline.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    int64_t request = 0;
  };

  SpanLog() : sink_(1 << 16) {}

  /// Sink handed to PhysicalPlan::ExecuteShared for kernel spans.
  ppr::TraceSink* sink() { return &sink_; }
  int64_t Now() const { return sink_.NowNs(); }

  int32_t Open(const char* name, int32_t parent, int64_t request);
  void Close(int32_t id) { spans_[static_cast<size_t>(id)].end_ns = Now(); }
  /// Moves the kernel spans the sink recorded since the last call into
  /// the log as children of `parent`, and folds their counters into
  /// `counts` ("join.probe_ops", "join.build_rows", ...).
  void AdoptKernelSpans(int32_t parent, int64_t request,
                        std::map<std::string, int64_t>* counts);

  /// Sum of self time (duration minus the children's durations) per
  /// span name, and the number of spans per name.
  void SelfTimes(std::map<std::string, double>* self_ns,
                 std::map<std::string, int64_t>* calls) const;
  /// Durations of every span called `name`.
  Samples Durations(const char* name) const;
  size_t size() const { return spans_.size(); }
  /// Writes the spans as CSV (id,name,start_ns,end_ns,parent,request).
  bool Write(const std::string& path) const;

 private:
  ppr::TraceSink sink_;
  std::vector<Span> spans_;
};

/// RAII span around one layer call; a null log makes it a no-op, so the
/// traced and untraced runs share one code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int32_t parent, int64_t request)
      : log_(log),
        id_(log != nullptr ? log->Open(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  int32_t id_;
};

/// Deterministic per-pass counts, in insertion order. Every pass of a
/// run must produce the same record, and so must every run (timed or
/// traced) of the same build with the same workload and seed.
class CountRecord {
 public:
  void Set(const std::string& key, int64_t value);
  /// The value stored under `key` (0 when absent).
  int64_t Get(const std::string& key) const;
  std::string ToString() const;
  bool operator==(const CountRecord& other) const {
    return ToString() == other.ToString();
  }

 private:
  std::vector<std::pair<std::string, int64_t>> fields_;
};

/// Compares `record` with the one an earlier run of this executable, with
/// this workload and seed, stored under options.state_dir, or stores it
/// when there is none. Returns false (after printing both) on a
/// difference.
bool CheckAgainstEarlierRuns(const Options& options,
                             const CountRecord& record);

/// Checks that every pass produced `passes[0]`'s record; prints the
/// first difference.
bool PassesAgree(const char* phase, const std::vector<CountRecord>& passes);

/// Counts the bytes and frames the calling thread receives with recv(2)
/// while the tap is alive (wire_tap.cc): what a client really got from
/// the daemon, length prefixes included. Frames are counted from their
/// length prefixes, so the tap must be installed at a frame boundary.
class WireTap {
 public:
  WireTap();
  ~WireTap();
  WireTap(const WireTap&) = delete;
  WireTap& operator=(const WireTap&) = delete;

  int64_t bytes() const { return bytes_; }
  int64_t frames() const { return frames_; }
  void Feed(const unsigned char* data, size_t n);

 private:
  WireTap* previous_;
  int64_t bytes_ = 0;
  int64_t frames_ = 0;
  uint32_t length_ = 0;   // length prefix read so far
  int prefix_bytes_ = 0;  // bytes of it read
  size_t body_left_ = 0;  // bytes of the current frame body still to come
};

/// Byte identity of two relations: schema, row count and row data.
bool SameRelation(const ppr::Relation& a, const ppr::Relation& b);

/// What one run produced: the result line and the exit status.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// name -> (value, unit), printed in insertion order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Prints the JSON result line (the last line of stdout).
  void Print() const;
};

/// Every per-layer metric of BENCHMARK.json. A workload that does not
/// exercise a layer leaves its fields at 0 (sweep_heavy has no service,
/// parser or plan cache in its path).
struct LayerMetrics {
  double rtt_overhead_us = 0, queue_wait_us = 0, ctx_switches_per_req = 0;
  double reply_bytes_per_req = 0, frames_per_req = 0;
  double parse_us = 0, canonicalize_us = 0;
  double cache_hit_ratio = 0, cache_lookups = 0, cache_evictions = 0;
  double plan_us = 0, analyze_us = 0, compile_us = 0;
  double execute_us = 0, execute_ms_per_pass = 0, timeouts = 0;
  double tuples_produced = 0, tuples_per_s = 0;
  double join_self_us = 0, project_self_us = 0, scan_self_us = 0;
  double join_probe_ops = 0, join_build_rows = 0;
  double peak_bytes = 0, minor_faults_per_query = 0;
  double steal_ms = 0, cpu = -1;
  double trace_overhead_pct = 0, unexplained_pct = 0;

  /// Fills the span-derived fields from a traced phase of `ops`
  /// operations in `passes` passes that produced `tuples` tuples;
  /// `kernel` holds the kernel counters AdoptKernelSpans folded.
  void FromSpans(const SpanLog& log, int64_t ops, int passes, int64_t tuples,
                 const std::map<std::string, int64_t>& kernel);
  void AddTo(RunResult* result) const;
};

/// Prints a latency summary line: count, p50, p99 and samples past p99.
void PrintLatency(const char* label, Samples& samples);

/// Per-layer self-time table of a traced phase, per operation.
void PrintSelfTimes(const SpanLog& log, int64_t ops);

RunResult RunServe(const Options& options, bool cold);
RunResult RunSweep(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
