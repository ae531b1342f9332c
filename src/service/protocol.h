#ifndef PPR_SERVICE_PROTOCOL_H_
#define PPR_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "relational/exec_context.h"
#include "relational/relation.h"

namespace ppr {

/// Wire protocol of the resident query service (examples/pprd): binary
/// frames over a byte stream, every frame
///
///     [u32 body_len (LE)] [u8 frame_type] [u64 request_id] [payload]
///
/// where body_len counts everything after the length word. A request is
/// one kRequest frame; the response to it is one kReplyHeader frame,
/// then — for OK replies with rows — zero or more kRowBatch frames, then
/// always exactly one kTrailer frame (the end-of-response marker, carrying
/// the ExecStats the run produced). request_id echoes the client's value
/// on every response frame, so pipelined requests on one connection can
/// be matched back.
///
/// All integers are little-endian fixed-width; strings are a u32 byte
/// length followed by the bytes. Frames are size-capped (kMaxFrameBytes)
/// so a malformed length prefix cannot make either side allocate
/// unboundedly; servers answer undecodable request *payloads* with a
/// kInvalid reply (the framing is intact, the connection survives),
/// while a corrupt length prefix closes the connection — a byte stream
/// cannot be resynchronized past it.
enum class FrameType : uint8_t {
  kRequest = 1,
  kReplyHeader = 2,
  kRowBatch = 3,
  kTrailer = 4,
};

/// Terminal disposition of one request, from the client's point of view.
/// The admission controller's decisions surface here: kRejected is
/// permanent (this query can never fit the configured headroom — do not
/// retry), kOverloaded is transient shedding (quota exhausted, queue
/// full, or headroom currently consumed — retry after backoff), and
/// kShuttingDown means the daemon is draining. Every admitted-or-shed
/// request gets exactly one response; the service never drops silently.
enum class ServiceStatus : uint8_t {
  kOk = 0,
  /// Malformed request: parse error, unknown strategy, frame too large.
  kInvalid = 1,
  /// Bound-based rejection: the width analyzer's predicted row bound for
  /// this query alone exceeds the configured tuple headroom.
  kRejected = 2,
  /// Overload shed: per-client quota, tuple-headroom, or queue-full.
  kOverloaded = 3,
  /// The request's deadline expired while it waited in the queue.
  kDeadlineExceeded = 4,
  /// Execution exhausted the tuple budget (the deterministic timeout).
  kBudgetExhausted = 5,
  /// Compile/execution error (verifier rejection, internal failure).
  kError = 6,
  /// The service is draining and admits no new work.
  kShuttingDown = 7,
};
const char* ServiceStatusName(ServiceStatus status);

/// One query request. `strategy` is a StrategyKind ordinal
/// (benchlib/harness.h) — the protocol module cannot depend on benchlib,
/// so validation against the real enum happens in the service; -1 asks
/// for the server's default strategy.
struct ServiceRequest {
  uint64_t request_id = 0;
  /// Admission identity for per-client token quotas. Clients choose it;
  /// the reference daemon trusts it (loopback tool, not an auth system).
  uint64_t client_id = 0;
  int32_t strategy = -1;
  uint64_t seed = 0;
  /// Tuple budget for the execution; 0 means the server-side maximum.
  uint64_t tuple_budget = 0;
  /// Relative deadline from arrival; 0 means none. Checked at dequeue:
  /// a request that waited past its deadline is answered
  /// kDeadlineExceeded without doing any execution work.
  uint32_t deadline_ms = 0;
  /// Query text in the parser syntax: `pi{X, Y} edge(X, Z) & edge(Z, Y)`.
  std::string query_text;
};

/// First response frame: disposition plus the output schema of an OK
/// reply (attribute ids of the parsed query, in result column order).
struct ReplyHeader {
  ServiceStatus status = ServiceStatus::kError;
  /// StatusCode ordinal of the underlying ppr::Status.
  int32_t status_code = 0;
  /// Whether the compiled plan came from the plan cache.
  bool cache_hit = false;
  /// Static join width the planner promised; -1 when no plan was built.
  int32_t predicted_width = -1;
  /// Result schema (empty for Boolean queries and non-OK replies).
  std::vector<AttrId> attrs;
  /// Human-readable detail for non-OK replies.
  std::string message;
};

/// Final response frame: execution statistics and timing. `nonempty`
/// carries the Boolean answer for nullary results (which have no row
/// batches to carry it).
struct ReplyTrailer {
  bool nonempty = false;
  int64_t tuples_produced = 0;
  int64_t max_intermediate_rows = 0;
  int64_t peak_bytes = 0;
  int32_t max_arity = 0;
  int64_t num_joins = 0;
  int64_t num_projections = 0;
  int64_t num_semijoins = 0;
  /// Execution wall time (0 for replies that never executed).
  int64_t wall_ns = 0;
  /// Admission-to-dequeue wait (how long the request sat in the queue).
  int64_t queue_ns = 0;
};

/// Hard cap on a single frame's body; both sides refuse larger. Requests
/// are tiny (query text); responses chunk rows into kRowBatchRows-row
/// batches, so this bounds memory per read regardless of result size.
inline constexpr uint32_t kMaxFrameBytes = 1u << 24;  // 16 MiB
/// Rows per kRowBatch frame.
inline constexpr int64_t kRowBatchRows = 1024;

/// Frame encoders: each returns a complete frame (length prefix
/// included) ready to write to the stream.
std::string EncodeRequestFrame(const ServiceRequest& request);
std::string EncodeReplyHeaderFrame(uint64_t request_id,
                                   const ReplyHeader& header);
/// Encodes rows [first, first + count) of `rows` (column count = arity).
std::string EncodeRowBatchFrame(uint64_t request_id, const Relation& rows,
                                int64_t first, int64_t count);
std::string EncodeTrailerFrame(uint64_t request_id,
                               const ReplyTrailer& trailer);

/// A decoded frame: type, request id, and the payload bytes after them.
struct Frame {
  FrameType type = FrameType::kRequest;
  uint64_t request_id = 0;
  std::string payload;
};

/// Splits one frame body (everything after the u32 length word) into
/// type/id/payload. Fails on truncated bodies or unknown frame types.
Result<Frame> DecodeFrameBody(std::string_view body);

/// Payload decoders (the `payload` of a decoded Frame).
Result<ServiceRequest> DecodeRequestPayload(std::string_view payload,
                                            uint64_t request_id);
/// A header whose attributes repeat one is malformed: they name the
/// result's columns.
Result<ReplyHeader> DecodeReplyHeaderPayload(std::string_view payload);
Result<ReplyTrailer> DecodeTrailerPayload(std::string_view payload);
/// Appends the batch's rows to `out`, which must already carry the
/// header's schema (arity is validated against it).
Status DecodeRowBatchPayload(std::string_view payload, Relation* out);

/// Blocking socket helpers shared by the server and client: write all of
/// `frame`, or read exactly one length-prefixed frame body (size-capped).
/// RecvFrame returns NotFound on clean EOF at a frame boundary — the
/// peer hung up between frames, the normal end of a connection.
Status SendFrame(int fd, const std::string& frame);
Result<std::string> RecvFrame(int fd);

}  // namespace ppr

#endif  // PPR_SERVICE_PROTOCOL_H_
