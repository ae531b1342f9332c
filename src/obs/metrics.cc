#include "obs/metrics.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace ppr {
namespace {

int64_t Lookup(const std::map<std::string, int64_t, std::less<>>& m,
               std::string_view name) {
  auto it = m.find(name);
  return it == m.end() ? 0 : it->second;
}

void AppendHistogramJson(std::ostringstream& out, const std::string& name,
                         const Log2Histogram& h) {
  out << "{\"metric\":\"" << name << "\",\"type\":\"log2_histogram\""
      << ",\"count\":" << h.count << ",\"sum\":" << h.sum
      << ",\"max\":" << h.max << ",\"mean\":" << h.Mean()
      << ",\"p50\":" << h.Quantile(0.50) << ",\"p90\":" << h.Quantile(0.90)
      << ",\"p99\":" << h.Quantile(0.99) << ",\"buckets\":[";
  bool first = true;
  for (int b = 0; b < Log2Histogram::kNumBuckets; ++b) {
    const uint64_t n = h.buckets[static_cast<size_t>(b)];
    if (n == 0) continue;
    if (!first) out << ",";
    first = false;
    out << "[" << Log2Histogram::BucketUpperBound(b) << "," << n << "]";
  }
  out << "]}\n";
}

// The largest value recorded in the window whose histogram is `delta`,
// when the whole history's max went from `before_max` to `after_max`. A
// max that rose was recorded in the window, so it is exact; otherwise the
// upper bound of the window's highest non-empty bucket, the window's sum
// and `after_max` each bound it from above.
uint64_t WindowMax(const Log2Histogram& delta, uint64_t before_max,
                   uint64_t after_max) {
  if (delta.count == 0) return 0;
  if (after_max > before_max) return after_max;
  uint64_t bound = std::min(delta.sum, after_max);
  for (int b = Log2Histogram::kNumBuckets - 1; b >= 0; --b) {
    if (delta.buckets[static_cast<size_t>(b)] != 0) {
      return std::min(bound, Log2Histogram::BucketUpperBound(b));
    }
  }
  return bound;
}

}  // namespace

double Log2Histogram::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Continuous rank in (0, count]; the value sought is the rank-th
  // smallest observation (rank 0 degenerates to the smallest).
  const double rank = q * static_cast<double>(count);
  uint64_t below = 0;  // observations in buckets before the current one
  for (int b = 0; b < kNumBuckets; ++b) {
    const uint64_t n = buckets[static_cast<size_t>(b)];
    if (n == 0) continue;
    if (static_cast<double>(below + n) >= rank) {
      const double lower =
          b == 0 ? 0.0 : static_cast<double>(BucketUpperBound(b - 1)) + 1.0;
      double upper = static_cast<double>(BucketUpperBound(b));
      // The recorded maximum pins down the reachable top of its bucket
      // (and of every later, necessarily empty, one).
      upper = std::min(upper, static_cast<double>(max));
      if (upper < lower) return static_cast<double>(max);
      const double fraction =
          n == 0 ? 0.0
                 : std::max(0.0, rank - static_cast<double>(below)) /
                       static_cast<double>(n);
      return lower + (upper - lower) * std::min(1.0, fraction);
    }
    below += n;
  }
  return static_cast<double>(max);
}

int64_t MetricsSnapshot::counter(std::string_view name) const {
  return Lookup(counters, name);
}

int64_t MetricsSnapshot::max_value(std::string_view name) const {
  return Lookup(maxes, name);
}

const Log2Histogram* MetricsSnapshot::histogram(std::string_view name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? nullptr : &it->second;
}

MetricsSnapshot DeltaSince(const MetricsSnapshot& before,
                           const MetricsSnapshot& after) {
  MetricsSnapshot delta;
  for (const auto& [name, value] : after.counters) {
    delta.counters[name] = value - before.counter(name);
  }
  delta.maxes = after.maxes;
  for (const auto& [name, hist] : after.histograms) {
    Log2Histogram d = hist;
    if (const Log2Histogram* b = before.histogram(name)) {
      for (size_t i = 0; i < d.buckets.size(); ++i) {
        d.buckets[i] -= b->buckets[i];
      }
      d.count -= b->count;
      d.sum -= b->sum;
      d.max = WindowMax(d, b->max, hist.max);
    }
    delta.histograms[name] = d;
  }
  return delta;
}

void MetricsRegistry::AddCounter(std::string_view name, int64_t delta) {
  PPR_DCHECK(delta >= 0);
  auto it = data_.counters.find(name);
  if (it == data_.counters.end()) {
    data_.counters.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::RaiseMax(std::string_view name, int64_t value) {
  auto it = data_.maxes.find(name);
  if (it == data_.maxes.end()) {
    data_.maxes.emplace(std::string(name), value);
  } else {
    it->second = std::max(it->second, value);
  }
}

void MetricsRegistry::RecordHistogram(std::string_view name, uint64_t value) {
  auto it = data_.histograms.find(name);
  if (it == data_.histograms.end()) {
    it = data_.histograms.emplace(std::string(name), Log2Histogram{}).first;
  }
  it->second.Record(value);
}

void MetricsRegistry::Merge(const MetricsSnapshot& shard) {
  for (const auto& [name, value] : shard.counters) {
    AddCounter(name, value);
  }
  for (const auto& [name, value] : shard.maxes) {
    RaiseMax(name, value);
  }
  for (const auto& [name, hist] : shard.histograms) {
    auto it = data_.histograms.find(name);
    if (it == data_.histograms.end()) {
      data_.histograms.emplace(name, hist);
    } else {
      it->second.Merge(hist);
    }
  }
}

int64_t MetricsRegistry::counter(std::string_view name) const {
  return data_.counter(name);
}

int64_t MetricsRegistry::max_value(std::string_view name) const {
  return data_.max_value(name);
}

const Log2Histogram* MetricsRegistry::histogram(std::string_view name) const {
  return data_.histogram(name);
}

MetricsSnapshot MetricsRegistry::Snapshot() const { return data_; }

void MetricsRegistry::Clear() { data_ = MetricsSnapshot{}; }

std::string MetricsRegistry::ToJsonLines() const {
  return MetricsToJsonLines(data_);
}

Mutex& GlobalObsMutex() {
  // kLockRankObs: above every app/service mutex, below the telemetry
  // internals it guards access to (canonical order in common/mutex.h).
  static Mutex mu(kLockRankObs);
  return mu;
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry registry;
  return registry;
}

std::string MetricsToJsonLines(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  for (const auto& [name, value] : snapshot.counters) {
    out << "{\"metric\":\"" << name << "\",\"type\":\"counter\",\"value\":"
        << value << "}\n";
  }
  for (const auto& [name, value] : snapshot.maxes) {
    out << "{\"metric\":\"" << name << "\",\"type\":\"max\",\"value\":"
        << value << "}\n";
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    AppendHistogramJson(out, name, hist);
  }
  return out.str();
}

}  // namespace ppr
