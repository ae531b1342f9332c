#include "obs/telemetry/query_log.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <sstream>

#include "common/env.h"
#include "common/mutex.h"
#include "obs/exporters.h"
#include "obs/metrics.h"

namespace ppr {
namespace {

// SplitMix64-style finalizer: fingerprints are already hashes, but the
// shard/bucket selectors must not reuse the same low bits, so each
// selector remixes with its own salt.
uint64_t Remix(uint64_t h, uint64_t salt) {
  h ^= salt;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

void AppendJsonString(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      case '\r':
        out << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

const char* QuerySourceName(QuerySource source) {
  switch (source) {
    case QuerySource::kBatch:
      return "batch";
    case QuerySource::kService:
      return "service";
  }
  return "?";
}

const char* QueryOutcomeName(QueryOutcome outcome) {
  switch (outcome) {
    case QueryOutcome::kOk:
      return "ok";
    case QueryOutcome::kBudgetExhausted:
      return "budget_exhausted";
    case QueryOutcome::kFailed:
      return "failed";
  }
  return "?";
}

std::string QueryRecordToJson(const QueryRecord& record) {
  std::ostringstream out;
  char fp[32];
  std::snprintf(fp, sizeof(fp), "0x%016llx",
                static_cast<unsigned long long>(record.fingerprint));
  out << "{\"seq\":" << record.seq << ",\"fingerprint\":\"" << fp << "\""
      << ",\"strategy\":" << record.strategy << ",\"source\":\""
      << QuerySourceName(record.source) << "\""
      << ",\"cache_hit\":" << (record.cache_hit ? "true" : "false")
      << ",\"outcome\":\"" << QueryOutcomeName(record.outcome) << "\""
      << ",\"status_code\":" << record.status_code
      << ",\"wall_ns\":" << record.wall_ns
      << ",\"tuples_produced\":" << record.tuples_produced
      << ",\"output_rows\":" << record.output_rows
      << ",\"peak_bytes\":" << record.peak_bytes
      << ",\"max_arity\":" << record.max_arity
      << ",\"predicted_width\":" << record.predicted_width
      << ",\"bound_headroom\":" << record.bound_headroom << ",\"error\":";
  AppendJsonString(out, record.error);
  out << "}";
  return out.str();
}

void ClassifyStatus(const Status& status, QueryRecord* record) {
  record->status_code = static_cast<int32_t>(status.code());
  if (status.ok()) {
    record->outcome = QueryOutcome::kOk;
  } else if (status.code() == StatusCode::kResourceExhausted) {
    record->outcome = QueryOutcome::kBudgetExhausted;
  } else {
    record->outcome = QueryOutcome::kFailed;
    record->error = status.message();
  }
}

struct QueryLog::Shard {
  // kLockRankTelemetry: shard mutexes are acquired under GlobalObsMutex
  // (append/flush/clear), never the other way around.
  mutable Mutex mu{kLockRankTelemetry};
  /// Ring of records, slot = per-shard append index % shard capacity.
  std::vector<QueryRecord> ring GUARDED_BY(mu);
  uint64_t appended GUARDED_BY(mu) = 0;
  std::array<Log2Histogram, kLatencyBuckets> latency GUARDED_BY(mu){};
};

QueryLog::QueryLog(size_t capacity, int num_shards) {
  if (num_shards < 1) num_shards = 1;
  shard_capacity_ =
      std::max<size_t>(1, (capacity + static_cast<size_t>(num_shards) - 1) /
                              static_cast<size_t>(num_shards));
  capacity_ = shard_capacity_ * static_cast<size_t>(num_shards);
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

QueryLog::~QueryLog() = default;

QueryLog::Shard& QueryLog::ShardFor(uint64_t fingerprint) const {
  return *shards_[Remix(fingerprint, 0xA5A5F00DULL) % shards_.size()];
}

uint64_t QueryLog::Append(const QueryRecord& record) {
  const uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  Shard& shard = ShardFor(record.fingerprint);
  MutexLock lock(shard.mu);
  QueryRecord stamped = record;
  stamped.seq = seq;
  if (shard.ring.size() < shard_capacity_) {
    shard.ring.push_back(std::move(stamped));
  } else {
    shard.ring[shard.appended % shard_capacity_] = std::move(stamped);
  }
  ++shard.appended;
  if (record.outcome == QueryOutcome::kOk) {
    const size_t bucket =
        Remix(record.fingerprint, 0x1A7E9C1E5ULL) % kLatencyBuckets;
    shard.latency[bucket].Record(static_cast<uint64_t>(
        std::max<int64_t>(0, record.wall_ns)));
  }
  return seq;
}

std::vector<QueryRecord> QueryLog::Snapshot() const {
  std::vector<QueryRecord> out;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    out.insert(out.end(), shard->ring.begin(), shard->ring.end());
  }
  std::sort(out.begin(), out.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::string QueryLog::ToJsonl() const {
  std::ostringstream out;
  for (const QueryRecord& record : Snapshot()) {
    out << QueryRecordToJson(record) << "\n";
  }
  return out.str();
}

uint64_t QueryLog::MedianWallNs(uint64_t fingerprint) const {
  const Shard& shard = ShardFor(fingerprint);
  const size_t bucket =
      Remix(fingerprint, 0x1A7E9C1E5ULL) % kLatencyBuckets;
  MutexLock lock(shard.mu);
  return static_cast<uint64_t>(shard.latency[bucket].Quantile(0.5));
}

uint64_t QueryLog::LatencySamples(uint64_t fingerprint) const {
  const Shard& shard = ShardFor(fingerprint);
  const size_t bucket =
      Remix(fingerprint, 0x1A7E9C1E5ULL) % kLatencyBuckets;
  MutexLock lock(shard.mu);
  return shard.latency[bucket].count;
}

uint64_t QueryLog::total_appended() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->appended;
  }
  return total;
}

uint64_t QueryLog::dropped() const {
  uint64_t dropped = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    dropped += shard->appended - shard->ring.size();
  }
  return dropped;
}

void QueryLog::Clear() {
  seq_.store(0, std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->ring.clear();
    shard->appended = 0;
    shard->latency.fill(Log2Histogram{});
  }
}

namespace {

struct GlobalQueryLogState {
  /// The gate the runtime drains poll — atomic for the same reason as
  /// the trace gate (a programmatic toggle racing a reader must be a
  /// stale load, never a torn one).
  std::atomic<bool> enabled{false};
  std::string path GUARDED_BY(GlobalObsMutex());
  QueryLog log;  // internally synchronized

  GlobalQueryLogState() {
    const EnvConfig& env = ProcessEnv();
    // PPR_FLIGHT_DIR implies record collection: the flight recorder
    // cannot compute running medians without the log.
    if (!env.query_log_path.empty() || !env.flight_dir.empty()) {
      enabled.store(true, std::memory_order_relaxed);
      path = env.query_log_path;
    }
  }
};

GlobalQueryLogState& QueryLogState() {
  static GlobalQueryLogState state;
  return state;
}

}  // namespace

void EnableQueryLog(const std::string& path) {
  GlobalQueryLogState& state = QueryLogState();
  MutexLock lock(GlobalObsMutex());
  state.path = path;
  state.enabled.store(true, std::memory_order_release);
}

void DisableQueryLog() {
  GlobalQueryLogState& state = QueryLogState();
  MutexLock lock(GlobalObsMutex());
  state.enabled.store(false, std::memory_order_release);
  state.path.clear();
  state.log.Clear();
}

bool QueryLogEnabled() {
  return QueryLogState().enabled.load(std::memory_order_acquire);
}

QueryLog* GlobalQueryLogIfEnabled() {
  GlobalQueryLogState& state = QueryLogState();
  return state.enabled.load(std::memory_order_acquire) ? &state.log : nullptr;
}

const std::string& QueryLogPath() { return QueryLogState().path; }

Status FlushQueryLogArtifact() {
  GlobalQueryLogState& state = QueryLogState();
  if (!state.enabled.load(std::memory_order_acquire) || state.path.empty()) {
    return Status::Ok();
  }
  return WriteFileAtomicEnough(state.path, state.log.ToJsonl());
}

}  // namespace ppr
