// Deterministic mutation fuzzing of the input the service reads from
// outside the program: wire frames (as a peer's byte stream, through
// RecvFrame, and as bodies and payloads handed straight to the decoders)
// and query texts. Seeds are frames the encoders build and the parser
// tests' query texts; mutations are truncations, overwrites of a 4-byte
// word with a length that is 0, one short of, or one past what remains,
// or 0xFFFFFFFF, and seeded random bit flips and byte overwrites. Every
// decoder must return a status, whatever it is fed; a request that
// decodes must re-encode to the bytes it came from; and a decoded reply
// header must give the schema the client builds from it.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "query/parser.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "service/protocol.h"

namespace ppr {
namespace {

constexpr int kFlipsPerSeed = 3000;

// The peer's byte stream `bytes`, read as RecvFrame reads a socket: the
// first frame's body, or why there is none. A stream whose length word
// counts exactly the bytes after it is one whole frame, its body those
// bytes; any other goes through RecvFrame over a socketpair, which is
// slow under the thread sanitizer.
Result<std::string> RecvFromStream(const std::string& bytes) {
  if (bytes.size() >= 4) {
    uint32_t length = 0;
    for (int i = 0; i < 4; ++i) {
      length |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[i]))
                << (8 * i);
    }
    if (length == bytes.size() - 4 && length <= kMaxFrameBytes) {
      return bytes.substr(4);
    }
  }
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::Internal("socketpair failed");
  }
  const Status sent = bytes.empty() ? Status::Ok() : SendFrame(fds[0], bytes);
  close(fds[0]);
  Result<std::string> body = sent.ok() ? RecvFrame(fds[1]) : sent;
  close(fds[1]);
  return body;
}

// Feeds `payload` to every payload decoder. A row batch decodes into the
// relation a client builds from a header it decoded, and into relations
// of arity 1 to 3.
void DecodePayloadEveryWay(std::string_view payload, uint64_t request_id) {
  (void)DecodeRequestPayload(payload, request_id);
  (void)DecodeTrailerPayload(payload);
  Result<ReplyHeader> header = DecodeReplyHeaderPayload(payload);
  if (header.ok() && !header->attrs.empty()) {
    // What ServiceClient::Call does with an OK header.
    Relation rows{Schema(header->attrs)};
    (void)DecodeRowBatchPayload(payload, &rows);
  }
  for (const int arity : {1, 2, 3}) {
    std::vector<AttrId> attrs;
    for (int c = 0; c < arity; ++c) attrs.push_back(c);
    Relation rows{Schema(std::move(attrs))};
    (void)DecodeRowBatchPayload(payload, &rows);
  }
}

// One mutated stream: read as a peer's stream, its first frame decoded
// by type; and its bytes after the length word handed to the body and
// payload decoders whatever the length word says.
void CheckStream(const std::string& stream) {
  const Result<std::string> body = RecvFromStream(stream);
  if (body.ok()) {
    const Result<Frame> frame = DecodeFrameBody(*body);
    if (frame.ok()) {
      DecodePayloadEveryWay(frame->payload, frame->request_id);
      if (frame->type == FrameType::kRequest) {
        const Result<ServiceRequest> request =
            DecodeRequestPayload(frame->payload, frame->request_id);
        if (request.ok()) {
          EXPECT_EQ(EncodeRequestFrame(*request),
                    stream.substr(0, 4 + body->size()));
        }
      }
    }
  }
  if (stream.size() >= 4) {
    const std::string_view after_length = std::string_view(stream).substr(4);
    const Result<Frame> frame = DecodeFrameBody(after_length);
    if (frame.ok()) DecodePayloadEveryWay(frame->payload, frame->request_id);
  }
}

// Overwrites the 4 bytes at `at` with `v`, little-endian.
void PutWord(std::string& bytes, size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + static_cast<size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// Calls `check` on every mutation of `seed`: each truncation; each
// 4-byte word overwritten with 0, remaining - 1, remaining + 1 and
// 0xFFFFFFFF, where remaining counts the bytes after the word; and
// kFlipsPerSeed random edits of one to three bytes from `first_edit` on,
// each a bit flip or a byte overwrite.
template <typename Check>
void ForEachMutation(const std::string& seed, size_t first_edit, Rng& rng,
                     const Check& check) {
  check(seed);
  for (size_t cut = 0; cut < seed.size(); ++cut) check(seed.substr(0, cut));
  for (size_t at = 0; at + 4 <= seed.size(); ++at) {
    const uint32_t remaining = static_cast<uint32_t>(seed.size() - at - 4);
    for (const uint32_t v :
         {uint32_t{0}, remaining - 1, remaining + 1, uint32_t{0xFFFFFFFF}}) {
      std::string mutated = seed;
      PutWord(mutated, at, v);
      check(mutated);
    }
  }
  if (seed.size() <= first_edit) return;
  const uint64_t editable = seed.size() - first_edit;
  for (int i = 0; i < kFlipsPerSeed; ++i) {
    std::string mutated = seed;
    const int edits = 1 + static_cast<int>(rng.NextBounded(3));
    for (int e = 0; e < edits; ++e) {
      const size_t at =
          first_edit + static_cast<size_t>(rng.NextBounded(editable));
      if (rng.NextBounded(2) == 0) {
        mutated[at] =
            static_cast<char>(mutated[at] ^ (1 << rng.NextBounded(8)));
      } else {
        mutated[at] = static_cast<char>(rng.NextBounded(256));
      }
    }
    check(mutated);
  }
}

// Query texts of the parser tests, well-formed and not.
const std::vector<std::string>& QueryTexts() {
  static const std::vector<std::string> texts = {
      "pi{X, Y} edge(X, Z) & edge(Z, Y)",
      "r(A, B), s(B)",
      "pi{} r(A)",
      "pi{A} loop(A, A)",
      "pi(A, B)",
      "pi{X}edge(X,Y)&edge(Y,Z)",
      "  pi { X }  edge ( X , Y )\n& edge(Y,Z) ",
      "pi{A} r(A,B) & s(B,C)",
      "",
      "pi{X}",
      "pi{X edge(X,Y)",
      "edge(X,Y) edge(Y,Z)",
      "edge(X,",
      "edge()",
      "pi{Q} edge(X,Y)",
      "pi{X,X} edge(X,Y)",
      "edge(X,Y) &",
      "1edge(X)",
  };
  return texts;
}

std::vector<std::string> SeedFrames() {
  std::vector<std::string> frames;
  for (const std::string& text : QueryTexts()) {
    ServiceRequest request;
    request.request_id = 7;
    request.client_id = 3;
    request.strategy = static_cast<int32_t>(text.size() % 5) - 1;
    request.seed = 0x0123456789abcdefULL;
    request.tuple_budget = 2000000;
    request.deadline_ms = 250;
    request.query_text = text;
    frames.push_back(EncodeRequestFrame(request));
  }
  ReplyHeader ok;
  ok.status = ServiceStatus::kOk;
  ok.cache_hit = true;
  ok.predicted_width = 2;
  ok.attrs = {3, 1};
  frames.push_back(EncodeReplyHeaderFrame(7, ok));
  ok.attrs = {0, 1, 2};
  frames.push_back(EncodeReplyHeaderFrame(7, ok));
  ReplyHeader failed;
  failed.status = ServiceStatus::kBudgetExhausted;
  failed.status_code = 8;
  failed.message = "tuple budget exceeded";
  frames.push_back(EncodeReplyHeaderFrame(7, failed));
  for (const int arity : {1, 2}) {
    std::vector<AttrId> attrs;
    for (int c = 0; c < arity; ++c) attrs.push_back(c);
    Relation rows{Schema(std::move(attrs))};
    for (Value v = 0; v < 5; ++v) {
      std::vector<Value> tuple(static_cast<size_t>(arity), v);
      rows.AddTuple(tuple);
    }
    frames.push_back(EncodeRowBatchFrame(7, rows, 1, 3));
    frames.push_back(EncodeRowBatchFrame(7, rows, 0, 0));
  }
  ReplyTrailer trailer;
  trailer.nonempty = true;
  trailer.tuples_produced = 48;
  trailer.max_intermediate_rows = 12;
  trailer.peak_bytes = 496;
  trailer.max_arity = 3;
  trailer.num_joins = 2;
  trailer.num_projections = 1;
  trailer.wall_ns = 12345;
  trailer.queue_ns = 678;
  frames.push_back(EncodeTrailerFrame(7, trailer));
  return frames;
}

TEST(WireFuzzTest, MutatedFramesAlwaysDecodeToAStatus) {
  Rng rng(2201);
  for (const std::string& seed : SeedFrames()) {
    SCOPED_TRACE(::testing::Message() << "seed of " << seed.size()
                                      << " bytes");
    // Random edits leave the frame's length word to the overwrites: a
    // flipped high byte asks RecvFrame for a body of up to 16 MiB, which
    // it allocates before reading, and that dominates the run under the
    // thread sanitizer.
    ForEachMutation(seed, /*first_edit=*/4, rng, CheckStream);
    if (HasFatalFailure()) return;
  }
}

TEST(WireFuzzTest, MutatedQueryTextsAlwaysParseToAStatus) {
  Rng rng(2202);
  for (const std::string& seed : QueryTexts()) {
    ForEachMutation(seed, /*first_edit=*/0, rng, [](const std::string& text) {
      const Result<ParsedQuery> parsed = ParseQuery(text);
      if (!parsed.ok()) return;
      // What parses is a query the service can plan: atoms, and a head
      // drawn from their variables.
      EXPECT_GT(parsed->query.num_atoms(), 0) << text;
      for (const AttrId a : parsed->query.free_vars()) {
        EXPECT_GE(a, 0) << text;
        EXPECT_LT(static_cast<size_t>(a), parsed->var_names.size()) << text;
      }
    });
  }
}

// Found by the fuzz: an OK reply header naming one attribute twice
// decoded, and the client's Schema of it aborted the process.
TEST(WireFuzzTest, ReplyHeaderThatRepeatsAnAttributeIsRejected) {
  ReplyHeader ok;
  ok.status = ServiceStatus::kOk;
  ok.attrs = {3, 1, 3};
  const std::string frame = EncodeReplyHeaderFrame(7, ok);
  const Result<Frame> decoded =
      DecodeFrameBody(std::string_view(frame).substr(4));
  ASSERT_TRUE(decoded.ok());
  const Result<ReplyHeader> header = DecodeReplyHeaderPayload(decoded->payload);
  EXPECT_FALSE(header.ok());
  CheckStream(frame);
}

// A reply header may name millions of distinct attributes and still fit
// a frame; the client's Schema of it checks them in O(n log n), where a
// pairwise check took minutes at this size.
TEST(WireFuzzTest, HugeReplyHeaderBuildsItsSchemaQuickly) {
  ReplyHeader ok;
  ok.status = ServiceStatus::kOk;
  constexpr AttrId kAttrs = 1000000;
  for (AttrId a = kAttrs; a > 0; --a) ok.attrs.push_back(a);
  const std::string frame = EncodeReplyHeaderFrame(7, ok);
  const Result<Frame> decoded =
      DecodeFrameBody(std::string_view(frame).substr(4));
  ASSERT_TRUE(decoded.ok());
  Result<ReplyHeader> header = DecodeReplyHeaderPayload(decoded->payload);
  ASSERT_TRUE(header.ok());
  const auto start = std::chrono::steady_clock::now();
  const Schema schema(std::move(header->attrs));
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_EQ(schema.arity(), kAttrs);
  EXPECT_LT(took.count(), 2.0);
}

}  // namespace
}  // namespace ppr
