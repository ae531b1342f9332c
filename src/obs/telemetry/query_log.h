#ifndef PPR_OBS_TELEMETRY_QUERY_LOG_H_
#define PPR_OBS_TELEMETRY_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"
#include "obs/obs_lock.h"

namespace ppr {

/// Which drain point produced a query record.
enum class QuerySource : uint8_t {
  kBatch = 0,    // BatchExecutor::Run (inter-query parallelism)
  kService = 3,  // QueryService (the resident daemon, one record/request)
};
const char* QuerySourceName(QuerySource source);

/// Terminal outcome of one (query, strategy) job.
enum class QueryOutcome : uint8_t {
  kOk = 0,
  /// Tuple budget exhausted (the deterministic timeout,
  /// StatusCode::kResourceExhausted).
  kBudgetExhausted = 1,
  /// Any other non-OK status: compile errors, structural-verifier and
  /// semantic-certification rejections, execution errors. The record's
  /// status_code/error carry the specifics.
  kFailed = 2,
};
const char* QueryOutcomeName(QueryOutcome outcome);

/// One structured record per executed (query, strategy) job — the unit
/// the ROADMAP's adaptive-selection item keys its steering decisions on.
/// Serialized field-for-field by QueryRecordToJson (tools/pprlint's
/// telemetry-sync rule keeps the two in lockstep).
struct QueryRecord {
  /// Global append order, assigned by QueryLog::Append (0 before then).
  uint64_t seq = 0;
  /// Hash of the job's WL-canonical structure bytes
  /// (CanonicalQuery::structure, runtime/plan_cache.h) — the succinct
  /// structural key optimization decisions should be driven by. 0 when
  /// the job ran uncanonicalized (plan cache off, no query context).
  uint64_t fingerprint = 0;
  /// StrategyKind ordinal (benchlib/harness.h); -1 when unknown (a
  /// service request that asked for the server's default strategy and
  /// was refused before the default was resolved).
  int32_t strategy = -1;
  QuerySource source = QuerySource::kBatch;
  /// Whether this job reused a cached compiled plan. Attributed
  /// deterministically at drain: among a batch's jobs sharing a key that
  /// was not already cached, the first in *input order* is the miss —
  /// so the log is byte-identical across worker counts even though
  /// "who actually compiled" depends on scheduling.
  bool cache_hit = false;
  QueryOutcome outcome = QueryOutcome::kOk;
  /// StatusCode ordinal of the job's final status.
  int32_t status_code = 0;
  /// Wall-clock execution time. The only nondeterministic field; the
  /// cross-worker-count byte-identity contract is stated modulo wall_ns.
  int64_t wall_ns = 0;
  int64_t tuples_produced = 0;
  /// Rows in the answer relation; -1 when the job produced no output
  /// (compile error).
  int64_t output_rows = -1;
  /// Largest single-operator footprint (ExecStats::peak_bytes).
  int64_t peak_bytes = 0;
  /// Widest operator output actually reached (ExecStats arity).
  int32_t max_arity = 0;
  /// Static join width the planner promised (Plan::Width()); -1 unknown.
  int32_t predicted_width = -1;
  /// predicted_width - max_arity: how much headroom the static bound had
  /// over the observed width. Negative means the bound was violated —
  /// exactly the predicted-vs-actual divergence evidence the obs layer
  /// used to throw away. 0 when predicted_width is unknown.
  int32_t bound_headroom = 0;
  /// Status message for kFailed outcomes ("" otherwise).
  std::string error;
};

/// One line of JSON, no trailing newline. Field names match the struct
/// member names exactly (enforced by pprlint's telemetry-sync rule);
/// fingerprint renders as a hex string so 64-bit values survive JSON
/// readers that parse numbers as doubles.
std::string QueryRecordToJson(const QueryRecord& record);

/// Derives outcome/status_code/error from a job's final status.
void ClassifyStatus(const Status& status, QueryRecord* record);

/// Fixed-capacity, mutex-sharded log of query records — the third obs
/// pillar beside the trace ring and the metrics registry. Appends hash
/// the record's fingerprint to a shard, take that shard's lock only, and
/// never allocate once the shard ring is full (the oldest record is
/// overwritten and counted as dropped). Each shard additionally folds
/// OK records' wall_ns into per-fingerprint-bucket Log2Histograms, so
/// the flight recorder can ask for a running fingerprint-bucketed median
/// without scanning the ring.
///
/// Threading contract: fully internally synchronized — any thread may
/// Append/Snapshot concurrently (the tsan hammer test exercises
/// exactly that). Determinism of the *contents* is the caller's job:
/// the runtime drains append from a single thread in input order, which
/// is what makes the exported JSONL byte-identical across worker counts
/// (modulo wall_ns).
class QueryLog {
 public:
  static constexpr size_t kDefaultCapacity = 8192;
  static constexpr int kDefaultShards = 8;
  /// Fingerprints hash onto this many latency buckets per shard, so
  /// median bookkeeping is O(1) memory regardless of workload variety.
  static constexpr int kLatencyBuckets = 64;

  explicit QueryLog(size_t capacity = kDefaultCapacity,
                    int num_shards = kDefaultShards);
  ~QueryLog();

  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Appends a copy of `record` with the next global sequence number
  /// stamped in; returns that sequence number. OK records also record
  /// wall_ns into their fingerprint's latency bucket.
  uint64_t Append(const QueryRecord& record);

  /// Buffered records across all shards, in sequence order.
  std::vector<QueryRecord> Snapshot() const;

  /// Snapshot rendered as JSONL (one QueryRecordToJson line per record).
  std::string ToJsonl() const;

  /// Running median wall-ns of `fingerprint`'s latency bucket; 0 when
  /// the bucket is empty.
  uint64_t MedianWallNs(uint64_t fingerprint) const;

  /// OK-record observations folded into `fingerprint`'s latency bucket
  /// so far (the flight recorder arms its latency trigger only past a
  /// minimum sample count).
  uint64_t LatencySamples(uint64_t fingerprint) const;

  uint64_t total_appended() const;
  /// Records overwritten before any snapshot saw them.
  uint64_t dropped() const;
  size_t capacity() const { return capacity_; }

  /// Drops all buffered records, latency buckets, and the sequence
  /// counter (tests and tools; not used on live paths).
  void Clear();

 private:
  struct Shard;
  Shard& ShardFor(uint64_t fingerprint) const;

  size_t capacity_;        // total across shards
  size_t shard_capacity_;  // per shard
  /// Log-wide append order. Per log (not per shard) so snapshots
  /// re-serialize in true append order, and per log (not process-wide)
  /// so a cleared log restarts at 1 — which is what keeps exported seq
  /// numbers deterministic run over run.
  std::atomic<uint64_t> seq_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Process-wide query log, gated like tracing (obs/trace.h): starts
/// enabled when the environment sets PPR_QUERY_LOG (JSONL export to that
/// path) or PPR_FLIGHT_DIR (in-memory only — the flight recorder needs
/// the records and medians even when nobody asked for the JSONL file).
/// EnableQueryLog/DisableQueryLog toggle programmatically; the enabled
/// gate is an atomic, the path swaps under GlobalObsMutex().
void EnableQueryLog(const std::string& path) EXCLUDES(GlobalObsMutex());
void DisableQueryLog() EXCLUDES(GlobalObsMutex());
bool QueryLogEnabled();

/// The global log when enabled, nullptr otherwise — the null return is
/// the single branch the telemetry-disabled path costs per job.
QueryLog* GlobalQueryLogIfEnabled();

/// JSONL export target ("" = in-memory only). Guarded by
/// GlobalObsMutex() (EnableQueryLog rebinds it).
const std::string& QueryLogPath() REQUIRES(GlobalObsMutex());

/// Rewrites the JSONL artifact at QueryLogPath() from the global log.
/// No-op (OK) when the log is disabled or has no path. Called by the
/// runtime drains after appending a batch's records, so the file always
/// reflects everything logged so far (the FlushTraceArtifacts pattern).
Status FlushQueryLogArtifact() REQUIRES(GlobalObsMutex());

}  // namespace ppr

#endif  // PPR_OBS_TELEMETRY_QUERY_LOG_H_
