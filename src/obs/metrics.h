#ifndef PPR_OBS_METRICS_H_
#define PPR_OBS_METRICS_H_

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/annotations.h"
#include "obs/obs_lock.h"

namespace ppr {

/// Fixed-bucket base-2 logarithmic histogram. Bucket b counts values in
/// [2^(b-1), 2^b) — bucket 0 counts zeros — so 64 buckets cover the full
/// uint64 range with no allocation and O(1) recording. Used for the
/// per-operator distributions (rows-out, ns, bytes) where the paper-style
/// questions are order-of-magnitude ("which operator blew up"), not
/// percentile-exact.
struct Log2Histogram {
  static constexpr int kNumBuckets = 65;

  std::array<uint64_t, kNumBuckets> buckets{};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;

  static int BucketOf(uint64_t value) {
    return std::bit_width(value);  // 0 -> 0, [2^(b-1), 2^b) -> b
  }

  /// Inclusive upper bound of bucket b (the largest value it can hold).
  static uint64_t BucketUpperBound(int b) {
    if (b <= 0) return 0;
    if (b >= 64) return UINT64_MAX;
    return (uint64_t{1} << b) - 1;
  }

  void Record(uint64_t value) {
    buckets[static_cast<size_t>(BucketOf(value))]++;
    ++count;
    sum += value;
    if (value > max) max = value;
  }

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Interpolated quantile estimate for q in [0, 1]: finds the bucket
  /// holding the ceil(q*count)-th smallest recorded value and
  /// interpolates linearly inside its [lower, upper] range (the
  /// Prometheus histogram_quantile construction). The bucket holding the
  /// recorded maximum is clamped to `max`, so Quantile(1.0) == max
  /// exactly and single-bucket histograms never report past their
  /// largest observation. Returns 0 on an empty histogram. Exactness is
  /// bucket-resolution (one power of two); the telemetry consumers
  /// (p50/p99 SLO lines) ask order-of-magnitude questions, matching the
  /// histogram's design.
  double Quantile(double q) const;

  /// Folds `other` into this histogram (buckets, count, and sum add; max
  /// takes the larger). Merging is commutative and associative, so a set
  /// of shard histograms folds to the same result in any order.
  void Merge(const Log2Histogram& other) {
    for (size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
    count += other.count;
    sum += other.sum;
    if (other.max > max) max = other.max;
  }
};

/// A point-in-time copy of a registry's contents, used for delta
/// accounting: snapshot before a run, subtract after, and the difference
/// is exactly what the run contributed.
struct MetricsSnapshot {
  std::map<std::string, int64_t, std::less<>> counters;
  std::map<std::string, int64_t, std::less<>> maxes;
  std::map<std::string, Log2Histogram, std::less<>> histograms;

  int64_t counter(std::string_view name) const;
  int64_t max_value(std::string_view name) const;
  const Log2Histogram* histogram(std::string_view name) const;
};

/// Difference `after - before` (counters and histogram buckets subtract;
/// max gauges keep `after`'s value, a high-water mark has no meaningful
/// delta). Names absent from `before` are treated as zero. A histogram's
/// max is its window's: exact when the window raised `after`'s max,
/// otherwise the least of the window's highest bucket bound, its sum and
/// `after`'s max, and 0 for an empty window.
MetricsSnapshot DeltaSince(const MetricsSnapshot& before,
                           const MetricsSnapshot& after);

/// Named metrics store: monotonic counters, high-water max gauges, and
/// log2 histograms. ExecStats is a per-run view over these — each run's
/// counters publish here under the `exec.*` names (see
/// ExecStats::PublishTo in relational/exec_context.h), and
/// ExecStatsFromDelta reconstructs an ExecStats from two snapshots.
///
/// Threading contract: a registry instance is single-threaded — it takes
/// no locks and the engine's hot paths must stay lock-free. Every run
/// publishes into a registry of its own (a worker's shard in src/runtime
/// and src/service, a one-shot run's own in ExecuteCompiled), which is
/// folded into a target registry with Merge(); the process-wide
/// GlobalMetrics() registry is only ever touched under GlobalObsMutex().
/// Lookups are by string so this is for run-level accounting, never
/// per-tuple paths (operators record spans, and spans publish here once
/// per run).
class MetricsRegistry {
 public:
  /// Adds `delta` (>= 0) to counter `name`, creating it at zero.
  void AddCounter(std::string_view name, int64_t delta);

  /// Raises max gauge `name` to at least `value`.
  void RaiseMax(std::string_view name, int64_t value);

  /// Records `value` into histogram `name`, creating it empty.
  void RecordHistogram(std::string_view name, uint64_t value);

  /// Folds a shard's contents into this registry: counters add, max
  /// gauges take the larger value, histograms merge bucket-wise. The
  /// single-point merge of the sharded design — commutative and
  /// associative, so draining shards in any order yields byte-identical
  /// registries as long as the recorded values themselves are
  /// deterministic.
  void Merge(const MetricsSnapshot& shard);
  void Merge(const MetricsRegistry& shard) { Merge(shard.data_); }

  int64_t counter(std::string_view name) const;
  int64_t max_value(std::string_view name) const;
  const Log2Histogram* histogram(std::string_view name) const;

  MetricsSnapshot Snapshot() const;

  /// Removes all metrics.
  void Clear();

  /// One JSON object per line: {"metric":name,"type":"counter","value":v}
  /// for counters/maxes, and for histograms the count/sum/max/mean plus
  /// the non-empty buckets as [upper_bound, count] pairs.
  std::string ToJsonLines() const;

 private:
  MetricsSnapshot data_;
};

/// Process-wide registry the execution layer publishes run metrics into
/// while tracing is enabled; exported next to the Chrome trace as JSONL.
/// Callers hold GlobalObsMutex() (obs_lock.h) for as long as they use
/// the reference: that serializes the drain/publish paths (batch
/// drains, service requests, traced one-shot runs), which run
/// concurrently.
MetricsRegistry& GlobalMetrics() REQUIRES(GlobalObsMutex());

/// Renders a snapshot with the same JSONL schema as
/// MetricsRegistry::ToJsonLines (deltas are snapshots too).
std::string MetricsToJsonLines(const MetricsSnapshot& snapshot);

}  // namespace ppr

#endif  // PPR_OBS_METRICS_H_
