// Wire-protocol unit tests: exact roundtrips for every message type, the
// frame-header validation contract (magic / version / exact lengths), the
// WireStatus <-> StatusCode mirror, and a decoder fuzz pass proving that
// arbitrary bytes never crash or over-read — the same property the server
// torture suite then drives over real sockets.

#include "net/protocol.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"

namespace cce::net {
namespace {

uint64_t XorShift64(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

Request DecodeFullRequest(const std::string& frame) {
  FrameHeader header;
  EXPECT_TRUE(DecodeFrameHeader(
                  reinterpret_cast<const uint8_t*>(frame.data()),
                  frame.size(), &header)
                  .ok());
  EXPECT_EQ(frame.size(), kFrameHeaderBytes + header.body_len);
  Request request;
  EXPECT_TRUE(DecodeRequestBody(
                  header,
                  reinterpret_cast<const uint8_t*>(frame.data()) +
                      kFrameHeaderBytes,
                  &request)
                  .ok());
  return request;
}

Response DecodeFullResponse(const std::string& frame) {
  FrameHeader header;
  EXPECT_TRUE(DecodeFrameHeader(
                  reinterpret_cast<const uint8_t*>(frame.data()),
                  frame.size(), &header)
                  .ok());
  EXPECT_EQ(frame.size(), kFrameHeaderBytes + header.body_len);
  Response response;
  EXPECT_TRUE(DecodeResponseBody(
                  header,
                  reinterpret_cast<const uint8_t*>(frame.data()) +
                      kFrameHeaderBytes,
                  &response)
                  .ok());
  return response;
}

TEST(NetProtocolTest, RequestRoundtripsAllTypes) {
  for (MessageType type :
       {MessageType::kPredictRequest, MessageType::kRecordRequest,
        MessageType::kExplainRequest, MessageType::kCounterfactualsRequest}) {
    Request request;
    request.type = type;
    request.request_id = 0xDEADBEEFCAFE0000ull + static_cast<uint8_t>(type);
    request.deadline_ms = 1234;
    request.label = 7;
    request.instance = {3, 0, 42, 0xFFFFFFFF, 5};
    const Request decoded = DecodeFullRequest(EncodeRequest(request));
    EXPECT_EQ(decoded.type, request.type);
    EXPECT_EQ(decoded.request_id, request.request_id);
    EXPECT_EQ(decoded.deadline_ms, request.deadline_ms);
    EXPECT_EQ(decoded.label, request.label);
    EXPECT_EQ(decoded.instance, request.instance);
  }
}

TEST(NetProtocolTest, EmptyInstanceRoundtrips) {
  Request request;
  request.type = MessageType::kPredictRequest;
  const Request decoded = DecodeFullRequest(EncodeRequest(request));
  EXPECT_TRUE(decoded.instance.empty());
}

TEST(NetProtocolTest, OkResponsesRoundtripTypedPayloads) {
  {
    Response r;
    r.type = MessageType::kPredictResponse;
    r.request_id = 9;
    r.label = 3;
    const Response d = DecodeFullResponse(EncodeResponse(r));
    EXPECT_EQ(d.status, WireStatus::kOk);
    EXPECT_EQ(d.label, 3u);
    EXPECT_EQ(d.request_id, 9u);
  }
  {
    Response r;
    r.type = MessageType::kRecordResponse;
    const Response d = DecodeFullResponse(EncodeResponse(r));
    EXPECT_EQ(d.status, WireStatus::kOk);
  }
  {
    Response r;
    r.type = MessageType::kExplainResponse;
    r.request_id = 77;
    r.flags = kFlagDegraded | kFlagHedged;
    r.achieved_alpha = 0.9375;
    r.view_seq = 123456789ull;
    r.backend = 2;
    r.key = {1, 4, 9};
    const Response d = DecodeFullResponse(EncodeResponse(r));
    EXPECT_EQ(d.flags, r.flags);
    EXPECT_DOUBLE_EQ(d.achieved_alpha, r.achieved_alpha);
    EXPECT_EQ(d.view_seq, r.view_seq);
    EXPECT_EQ(d.backend, r.backend);
    EXPECT_EQ(d.key, r.key);
  }
  {
    Response r;
    r.type = MessageType::kCounterfactualsResponse;
    r.witnesses.push_back({41, 1, {0, 2}});
    r.witnesses.push_back({7, 0, {}});
    const Response d = DecodeFullResponse(EncodeResponse(r));
    ASSERT_EQ(d.witnesses.size(), 2u);
    EXPECT_EQ(d.witnesses[0].row, 41u);
    EXPECT_EQ(d.witnesses[0].label, 1u);
    EXPECT_EQ(d.witnesses[0].changed_features, FeatureSet({0, 2}));
    EXPECT_TRUE(d.witnesses[1].changed_features.empty());
  }
}

TEST(NetProtocolTest, ErrorResponsesCarryMessageAndRetryAfter) {
  for (MessageType type :
       {MessageType::kPredictResponse, MessageType::kExplainResponse,
        MessageType::kErrorResponse}) {
    Response r;
    r.type = type;
    r.request_id = 5;
    r.status = WireStatus::kResourceExhausted;
    r.retry_after_ms = 25;
    r.message = "shed: explain queue full";
    const Response d = DecodeFullResponse(EncodeResponse(r));
    EXPECT_EQ(d.status, WireStatus::kResourceExhausted);
    EXPECT_EQ(d.retry_after_ms, 25u);
    EXPECT_EQ(d.message, r.message);
    // Non-OK responses carry no typed payload.
    EXPECT_TRUE(d.key.empty());
    EXPECT_TRUE(d.witnesses.empty());
  }
}

TEST(NetProtocolTest, HeaderRejectsBadMagicAndVersion) {
  Request request;
  request.type = MessageType::kPredictRequest;
  std::string frame = EncodeRequest(request);
  FrameHeader header;

  std::string bad_magic = frame;
  bad_magic[0] ^= 0x01;
  Status magic_status = DecodeFrameHeader(
      reinterpret_cast<const uint8_t*>(bad_magic.data()), bad_magic.size(),
      &header);
  EXPECT_EQ(magic_status.code(), StatusCode::kInvalidArgument);

  std::string bad_version = frame;
  bad_version[2] = static_cast<char>(kProtocolVersion + 1);
  Status version_status = DecodeFrameHeader(
      reinterpret_cast<const uint8_t*>(bad_version.data()),
      bad_version.size(), &header);
  EXPECT_EQ(version_status.code(), StatusCode::kUnimplemented);

  EXPECT_EQ(DecodeFrameHeader(
                reinterpret_cast<const uint8_t*>(frame.data()),
                kFrameHeaderBytes - 1, &header)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(NetProtocolTest, BodiesMustParseExactly) {
  Request request;
  request.type = MessageType::kExplainRequest;
  request.instance = {1, 2, 3};
  std::string frame = EncodeRequest(request);
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(
                  reinterpret_cast<const uint8_t*>(frame.data()),
                  frame.size(), &header)
                  .ok());
  const uint8_t* body =
      reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderBytes;
  Request out;
  // Truncated body.
  FrameHeader short_header = header;
  short_header.body_len -= 1;
  EXPECT_FALSE(DecodeRequestBody(short_header, body, &out).ok());
  // Trailing bytes.
  FrameHeader long_header = header;
  long_header.body_len += 1;
  std::vector<uint8_t> padded(body, body + header.body_len);
  padded.push_back(0);
  EXPECT_FALSE(DecodeRequestBody(long_header, padded.data(), &out).ok());
}

TEST(NetProtocolTest, WireStatusMirrorsStatusCodeValueForValue) {
  // The wire encoding IS the StatusCode value; a new code cannot ship
  // without extending the protocol (and its doc — protocol_doc_test).
  EXPECT_EQ(kNumWireStatuses, 11);
  for (int code = 0; code < kNumWireStatuses; ++code) {
    const StatusCode status_code = static_cast<StatusCode>(code);
    const WireStatus wire = WireStatusFromCode(status_code);
    EXPECT_EQ(static_cast<int>(wire), code);
    EXPECT_EQ(CodeFromWireStatus(wire), status_code);
    EXPECT_NE(WireStatusName(wire), nullptr);
  }
  EXPECT_EQ(WireStatusName(static_cast<WireStatus>(kNumWireStatuses)),
            nullptr);
}

TEST(NetProtocolTest, MessageTypeVocabularyIsClosed) {
  int named = 0;
  for (int value = 0; value < 256; ++value) {
    const MessageType type = static_cast<MessageType>(value);
    if (MessageTypeName(type) != nullptr) ++named;
    if (IsRequestType(type)) {
      EXPECT_NE(MessageTypeName(type), nullptr);
      const MessageType response = ResponseTypeFor(type);
      EXPECT_FALSE(IsRequestType(response));
      EXPECT_NE(MessageTypeName(response), nullptr);
    }
  }
  EXPECT_EQ(named, 11);
  EXPECT_EQ(MessageTypeName(static_cast<MessageType>(0)), nullptr);
  // The reserved gap that keeps the k + 4 pairing rule alive for the
  // batch pair stays unassigned.
  for (int reserved = 11; reserved <= 13; ++reserved) {
    EXPECT_EQ(MessageTypeName(static_cast<MessageType>(reserved)), nullptr);
  }
}

TEST(NetProtocolTest, FrameHeaderFieldsTileTheHeaderExactly) {
  size_t offset = 0;
  for (const FrameField& field : FrameHeaderFields()) {
    EXPECT_EQ(field.offset, offset) << field.name;
    offset += field.bytes;
  }
  EXPECT_EQ(offset, kFrameHeaderBytes);
}

TEST(NetProtocolTest, DecoderSurvivesRandomBytes) {
  uint64_t rng = 0xC0FFEE;
  for (int iteration = 0; iteration < 20000; ++iteration) {
    const size_t len = XorShift64(&rng) % 96;
    std::vector<uint8_t> bytes(len);
    for (uint8_t& b : bytes) b = static_cast<uint8_t>(XorShift64(&rng));
    FrameHeader header;
    if (len >= kFrameHeaderBytes &&
        DecodeFrameHeader(bytes.data(), len, &header).ok()) {
      // Random bytes essentially never hit the magic; if they do, the
      // body decoders must still bound-check against the claimed length.
      const size_t body_len =
          std::min<size_t>(header.body_len, len - kFrameHeaderBytes);
      FrameHeader clamped = header;
      clamped.body_len = static_cast<uint32_t>(body_len);
      Request request;
      (void)DecodeRequestBody(clamped, bytes.data() + kFrameHeaderBytes,
                              &request);
      Response response;
      (void)DecodeResponseBody(clamped, bytes.data() + kFrameHeaderBytes,
                               &response);
    }
  }
}

/// One valid frame of every request and response type, BATCH_EXPLAIN
/// included: a 3-item request, and a response holding one OK item with a
/// key and one shed item with a retry_after_ms hint.
std::vector<std::string> EveryFrame() {
  std::vector<std::string> frames;
  for (MessageType type :
       {MessageType::kPredictRequest, MessageType::kRecordRequest,
        MessageType::kExplainRequest, MessageType::kCounterfactualsRequest}) {
    Request request;
    request.type = type;
    request.request_id = 40 + static_cast<uint8_t>(type);
    request.deadline_ms = 25;
    request.label = 1;
    request.instance = {1, 2, 3, 4};
    frames.push_back(EncodeRequest(request));
  }
  Request batch;
  batch.type = MessageType::kBatchExplainRequest;
  batch.request_id = 50;
  for (uint32_t i = 0; i < 3; ++i) {
    batch.batch.push_back({/*deadline_ms=*/10 * i, /*label=*/i % 2, {i, 2, 0}});
  }
  frames.push_back(EncodeRequest(batch));

  Response predict;
  predict.type = MessageType::kPredictResponse;
  predict.label = 1;
  frames.push_back(EncodeResponse(predict));
  Response record;
  record.type = MessageType::kRecordResponse;
  frames.push_back(EncodeResponse(record));
  Response explain;
  explain.type = MessageType::kExplainResponse;
  explain.flags = kFlagCached | kFlagUnsatisfied;
  explain.achieved_alpha = 0.75;
  explain.view_seq = 99;
  explain.backend = 1;
  explain.key = {0, 3};
  frames.push_back(EncodeResponse(explain));
  Response witnesses;
  witnesses.type = MessageType::kCounterfactualsResponse;
  witnesses.witnesses.push_back({1, 0, {2, 5}});
  witnesses.witnesses.push_back({9, 1, {0}});
  frames.push_back(EncodeResponse(witnesses));
  Response error;
  error.type = MessageType::kErrorResponse;
  error.status = WireStatus::kInvalidArgument;
  error.message = "malformed request body";
  frames.push_back(EncodeResponse(error));
  Response batch_response;
  batch_response.type = MessageType::kBatchExplainResponse;
  Response::BatchExplainItem served;
  served.flags = kFlagDegraded;
  served.achieved_alpha = 0.5;
  served.view_seq = 7;
  served.key = {1, 2, 6};
  batch_response.batch.push_back(served);
  Response::BatchExplainItem shed;
  shed.status = WireStatus::kResourceExhausted;
  shed.retry_after_ms = 12;
  shed.message = "overload: admission queue full";
  batch_response.batch.push_back(shed);
  frames.push_back(EncodeResponse(batch_response));
  return frames;
}

/// Decodes `body` (`body_len` bytes) as the type in `header`; on success
/// re-encodes it into `*reencoded`.
Status DecodeBody(const FrameHeader& header, const uint8_t* body,
                  std::string* reencoded) {
  if (IsRequestType(static_cast<MessageType>(header.type))) {
    Request request;
    Status status = DecodeRequestBody(header, body, &request);
    if (status.ok()) *reencoded = EncodeRequest(request);
    return status;
  }
  Response response;
  Status status = DecodeResponseBody(header, body, &response);
  if (status.ok()) *reencoded = EncodeResponse(response);
  return status;
}

TEST(NetProtocolTest, EveryFrameRejectsPrefixesAndRoundtrips) {
  for (const std::string& frame : EveryFrame()) {
    const auto* bytes = reinterpret_cast<const uint8_t*>(frame.data());
    FrameHeader header;
    ASSERT_TRUE(DecodeFrameHeader(bytes, frame.size(), &header).ok());
    const char* name = MessageTypeName(static_cast<MessageType>(header.type));
    ASSERT_NE(name, nullptr);
    ASSERT_EQ(frame.size(), kFrameHeaderBytes + header.body_len) << name;
    std::string reencoded;
    ASSERT_TRUE(DecodeBody(header, bytes + kFrameHeaderBytes, &reencoded).ok())
        << name;
    EXPECT_EQ(reencoded, frame) << name;
    for (uint32_t len = 0; len < header.body_len; ++len) {
      FrameHeader prefix = header;
      prefix.body_len = len;
      EXPECT_FALSE(DecodeBody(prefix, bytes + kFrameHeaderBytes, &reencoded)
                       .ok())
          << name << " accepted a " << len << "-byte prefix of its "
          << header.body_len << "-byte body";
    }
  }
}

TEST(NetProtocolTest, MutatedValidFramesNeverCrashDecoders) {
  const std::vector<std::string> frames = EveryFrame();
  uint64_t rng = 0xBADF00D;
  for (int iteration = 0; iteration < 40000; ++iteration) {
    std::string frame = frames[static_cast<size_t>(iteration) % frames.size()];
    // Flip 1-4 random bytes anywhere in the frame.
    const int flips = 1 + static_cast<int>(XorShift64(&rng) % 4);
    for (int f = 0; f < flips; ++f) {
      frame[XorShift64(&rng) % frame.size()] ^=
          static_cast<char>(XorShift64(&rng) | 1);
    }
    FrameHeader header;
    if (!DecodeFrameHeader(reinterpret_cast<const uint8_t*>(frame.data()),
                           frame.size(), &header)
             .ok()) {
      continue;
    }
    const size_t available = frame.size() - kFrameHeaderBytes;
    FrameHeader clamped = header;
    clamped.body_len =
        static_cast<uint32_t>(std::min<size_t>(header.body_len, available));
    Request request;
    (void)DecodeRequestBody(
        clamped,
        reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderBytes,
        &request);
    Response response;
    (void)DecodeResponseBody(
        clamped,
        reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderBytes,
        &response);
  }
}

}  // namespace
}  // namespace cce::net
