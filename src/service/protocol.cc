#include "service/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#include "common/check.h"

namespace ppr {
namespace {

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutI32(std::string* out, int32_t v) { PutU32(out, static_cast<uint32_t>(v)); }
void PutI64(std::string* out, int64_t v) { PutU64(out, static_cast<uint64_t>(v)); }

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked little-endian reader over a payload view.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool ReadI32(int32_t* v) {
    uint32_t u = 0;
    if (!ReadU32(&u)) return false;
    *v = static_cast<int32_t>(u);
    return true;
  }

  bool ReadI64(int64_t* v) {
    uint64_t u = 0;
    if (!ReadU64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }

  bool ReadString(std::string* s) {
    uint32_t len = 0;
    if (!ReadU32(&len)) return false;
    if (pos_ + len > data_.size()) return false;
    s->assign(data_.substr(pos_, len));
    pos_ += len;
    return true;
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// Starts a frame: reserves the length word and writes type + id.
/// FinishFrame backpatches the length once the payload is appended.
std::string BeginFrame(FrameType type, uint64_t request_id) {
  std::string out;
  PutU32(&out, 0);  // length placeholder
  PutU8(&out, static_cast<uint8_t>(type));
  PutU64(&out, request_id);
  return out;
}

void FinishFrame(std::string* frame) {
  const uint32_t body = static_cast<uint32_t>(frame->size() - 4);
  PPR_CHECK(body <= kMaxFrameBytes);
  for (int i = 0; i < 4; ++i) {
    (*frame)[static_cast<size_t>(i)] = static_cast<char>((body >> (8 * i)) & 0xff);
  }
}

}  // namespace

const char* ServiceStatusName(ServiceStatus status) {
  switch (status) {
    case ServiceStatus::kOk: return "ok";
    case ServiceStatus::kInvalid: return "invalid";
    case ServiceStatus::kRejected: return "rejected";
    case ServiceStatus::kOverloaded: return "overloaded";
    case ServiceStatus::kDeadlineExceeded: return "deadline_exceeded";
    case ServiceStatus::kBudgetExhausted: return "budget_exhausted";
    case ServiceStatus::kError: return "error";
    case ServiceStatus::kShuttingDown: return "shutting_down";
  }
  return "unknown";
}

std::string EncodeRequestFrame(const ServiceRequest& request) {
  std::string out = BeginFrame(FrameType::kRequest, request.request_id);
  PutU64(&out, request.client_id);
  PutI32(&out, request.strategy);
  PutU64(&out, request.seed);
  PutU64(&out, request.tuple_budget);
  PutU32(&out, request.deadline_ms);
  PutString(&out, request.query_text);
  FinishFrame(&out);
  return out;
}

std::string EncodeReplyHeaderFrame(uint64_t request_id,
                                   const ReplyHeader& header) {
  std::string out = BeginFrame(FrameType::kReplyHeader, request_id);
  PutU8(&out, static_cast<uint8_t>(header.status));
  PutI32(&out, header.status_code);
  PutU8(&out, header.cache_hit ? 1 : 0);
  PutI32(&out, header.predicted_width);
  PutU32(&out, static_cast<uint32_t>(header.attrs.size()));
  for (const AttrId attr : header.attrs) PutI32(&out, attr);
  PutString(&out, header.message);
  FinishFrame(&out);
  return out;
}

std::string EncodeRowBatchFrame(uint64_t request_id, const Relation& rows,
                                int64_t first, int64_t count) {
  PPR_CHECK(rows.arity() > 0 && first >= 0 && count >= 0 &&
            first + count <= rows.size());
  std::string out = BeginFrame(FrameType::kRowBatch, request_id);
  PutU32(&out, static_cast<uint32_t>(count));
  const int arity = rows.arity();
  for (int64_t r = first; r < first + count; ++r) {
    for (int c = 0; c < arity; ++c) PutI32(&out, rows.at(r, c));
  }
  FinishFrame(&out);
  return out;
}

std::string EncodeTrailerFrame(uint64_t request_id,
                               const ReplyTrailer& trailer) {
  std::string out = BeginFrame(FrameType::kTrailer, request_id);
  PutU8(&out, trailer.nonempty ? 1 : 0);
  PutI64(&out, trailer.tuples_produced);
  PutI64(&out, trailer.max_intermediate_rows);
  PutI64(&out, trailer.peak_bytes);
  PutI32(&out, trailer.max_arity);
  PutI64(&out, trailer.num_joins);
  PutI64(&out, trailer.num_projections);
  PutI64(&out, trailer.num_semijoins);
  PutI64(&out, trailer.wall_ns);
  PutI64(&out, trailer.queue_ns);
  FinishFrame(&out);
  return out;
}

Result<Frame> DecodeFrameBody(std::string_view body) {
  Cursor cur(body);
  uint8_t type = 0;
  Frame frame;
  if (!cur.ReadU8(&type) || !cur.ReadU64(&frame.request_id)) {
    return Status::InvalidArgument("frame body truncated before payload");
  }
  switch (type) {
    case static_cast<uint8_t>(FrameType::kRequest):
    case static_cast<uint8_t>(FrameType::kReplyHeader):
    case static_cast<uint8_t>(FrameType::kRowBatch):
    case static_cast<uint8_t>(FrameType::kTrailer):
      frame.type = static_cast<FrameType>(type);
      break;
    default:
      return Status::InvalidArgument("unknown frame type " +
                                     std::to_string(type));
  }
  frame.payload.assign(body.substr(body.size() - cur.remaining()));
  return frame;
}

Result<ServiceRequest> DecodeRequestPayload(std::string_view payload,
                                            uint64_t request_id) {
  Cursor cur(payload);
  ServiceRequest req;
  req.request_id = request_id;
  if (!cur.ReadU64(&req.client_id) || !cur.ReadI32(&req.strategy) ||
      !cur.ReadU64(&req.seed) || !cur.ReadU64(&req.tuple_budget) ||
      !cur.ReadU32(&req.deadline_ms) || !cur.ReadString(&req.query_text) ||
      !cur.AtEnd()) {
    return Status::InvalidArgument("malformed request payload");
  }
  return req;
}

Result<ReplyHeader> DecodeReplyHeaderPayload(std::string_view payload) {
  Cursor cur(payload);
  ReplyHeader header;
  uint8_t status = 0;
  uint8_t cache_hit = 0;
  uint32_t arity = 0;
  if (!cur.ReadU8(&status) || !cur.ReadI32(&header.status_code) ||
      !cur.ReadU8(&cache_hit) || !cur.ReadI32(&header.predicted_width) ||
      !cur.ReadU32(&arity)) {
    return Status::InvalidArgument("malformed reply header");
  }
  if (status > static_cast<uint8_t>(ServiceStatus::kShuttingDown)) {
    return Status::InvalidArgument("unknown service status " +
                                   std::to_string(status));
  }
  header.status = static_cast<ServiceStatus>(status);
  header.cache_hit = cache_hit != 0;
  // Check the declared arity against the bytes left before sizing the
  // schema from it: a hostile header must not make the decoder allocate.
  if (arity > cur.remaining() / sizeof(int32_t)) {
    return Status::InvalidArgument("malformed reply header schema");
  }
  header.attrs.resize(arity);
  for (uint32_t i = 0; i < arity; ++i) {
    if (!cur.ReadI32(&header.attrs[i])) {
      return Status::InvalidArgument("malformed reply header schema");
    }
  }
  // The attributes name the result's columns, and a client builds a
  // Schema of them, which aborts on a repeated attribute.
  std::vector<AttrId> sorted = header.attrs;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return Status::InvalidArgument("reply header repeats an attribute");
  }
  if (!cur.ReadString(&header.message) || !cur.AtEnd()) {
    return Status::InvalidArgument("malformed reply header message");
  }
  return header;
}

Result<ReplyTrailer> DecodeTrailerPayload(std::string_view payload) {
  Cursor cur(payload);
  ReplyTrailer trailer;
  uint8_t nonempty = 0;
  if (!cur.ReadU8(&nonempty) || !cur.ReadI64(&trailer.tuples_produced) ||
      !cur.ReadI64(&trailer.max_intermediate_rows) ||
      !cur.ReadI64(&trailer.peak_bytes) || !cur.ReadI32(&trailer.max_arity) ||
      !cur.ReadI64(&trailer.num_joins) ||
      !cur.ReadI64(&trailer.num_projections) ||
      !cur.ReadI64(&trailer.num_semijoins) || !cur.ReadI64(&trailer.wall_ns) ||
      !cur.ReadI64(&trailer.queue_ns) || !cur.AtEnd()) {
    return Status::InvalidArgument("malformed trailer payload");
  }
  trailer.nonempty = nonempty != 0;
  return trailer;
}

Status DecodeRowBatchPayload(std::string_view payload, Relation* out) {
  Cursor cur(payload);
  uint32_t nrows = 0;
  if (!cur.ReadU32(&nrows)) {
    return Status::InvalidArgument("malformed row batch");
  }
  const int arity = out->arity();
  if (arity <= 0) {
    return Status::InvalidArgument("row batch for nullary result");
  }
  if (cur.remaining() != static_cast<size_t>(nrows) *
                             static_cast<size_t>(arity) * sizeof(Value)) {
    return Status::InvalidArgument("row batch size mismatch");
  }
  std::vector<Value> row(static_cast<size_t>(arity));
  for (uint32_t r = 0; r < nrows; ++r) {
    for (int c = 0; c < arity; ++c) {
      if (!cur.ReadI32(&row[static_cast<size_t>(c)])) {
        return Status::InvalidArgument("row batch truncated");
      }
    }
    out->AppendRaw(row.data());
  }
  return Status::Ok();
}

Status SendFrame(int fd, const std::string& frame) {
  size_t sent = 0;
  while (sent < frame.size()) {
    // MSG_NOSIGNAL: a peer that hung up mid-response must surface as an
    // error return, not a process-killing SIGPIPE.
    const ssize_t n = ::send(fd, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::Internal(std::string("send failed: ") +
                              std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

namespace {

/// Reads exactly `len` bytes; Ok(false) on clean EOF before the first
/// byte when `eof_ok`, error on truncation.
Result<bool> RecvExact(int fd, char* buf, size_t len, bool eof_ok) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, buf + got, len - got, 0);
    if (n == 0) {
      if (got == 0 && eof_ok) return false;
      return Status::InvalidArgument("connection closed mid-frame");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("recv failed: ") +
                              std::strerror(errno));
    }
    got += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Result<std::string> RecvFrame(int fd) {
  char len_buf[4];
  Result<bool> got = RecvExact(fd, len_buf, sizeof(len_buf), /*eof_ok=*/true);
  if (!got.ok()) return got.status();
  if (!*got) return Status::NotFound("connection closed");
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(len_buf[i])) << (8 * i);
  }
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument("frame length " + std::to_string(len) +
                                   " exceeds cap " +
                                   std::to_string(kMaxFrameBytes));
  }
  std::string body(len, '\0');
  got = RecvExact(fd, body.data(), body.size(), /*eof_ok=*/false);
  if (!got.ok()) return got.status();
  return body;
}

}  // namespace ppr
