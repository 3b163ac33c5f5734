#ifndef CCE_NET_PROTOCOL_H_
#define CCE_NET_PROTOCOL_H_

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/types.h"

namespace cce::net {

/// The CCE wire protocol (docs/protocol.md — that spec is drift-enforced
/// against this header by protocol_doc_test): length-prefixed binary frames
/// over a byte stream. Every frame is a fixed 16-byte little-endian header
/// followed by `body_len` bytes of typed payload. Requests carry a
/// client-chosen `request_id` that the matching response echoes, so clients
/// may pipeline arbitrarily many frames on one connection — the batching
/// the server's event loop amortises its syscalls over.
///
/// Framing and struct layout are decoupled on purpose: encode/decode go
/// through explicit little-endian byte accessors, never a struct memcpy,
/// so the wire format is identical across compilers and architectures.

/// First two bytes of every frame; rejects non-protocol peers (and HTTP,
/// which the server detects separately for the /metrics path) cheaply.
inline constexpr uint16_t kMagic = 0xCCE1;

/// Protocol version carried in every frame header. Bump on any
/// incompatible change; the server rejects frames from other versions
/// with WireStatus::kUnimplemented.
inline constexpr uint8_t kProtocolVersion = 1;

/// Size of the fixed frame header on the wire.
inline constexpr size_t kFrameHeaderBytes = 16;

/// Default cap on `body_len`; frames beyond it are a protocol error (the
/// server answers then closes — an attacker cannot make it buffer more).
inline constexpr uint32_t kDefaultMaxBodyBytes = 1u << 20;

/// Frame payload kind. Values are the wire encoding (one byte); 0 is
/// deliberately invalid so all-zero garbage cannot parse as a frame.
enum class MessageType : uint8_t {
  kPredictRequest = 1,
  kRecordRequest = 2,
  kExplainRequest = 3,
  kCounterfactualsRequest = 4,
  kPredictResponse = 5,
  kRecordResponse = 6,
  kExplainResponse = 7,
  kCounterfactualsResponse = 8,
  /// Server-originated failure frame for requests that never reached a
  /// typed handler (unknown type, undecodable body). Carries the same
  /// status + retry-after prefix as every response.
  kErrorResponse = 9,
  /// N explain items in one frame, answered positionally by one
  /// kBatchExplainResponse. The server runs compatible items as a single
  /// shared-read key search (one admission charge, one shard-index read);
  /// each item still carries its own deadline and succeeds or fails
  /// individually. Codes 11–13 are reserved so the request/response
  /// pairing rule (response = request + 4) holds for this pair too.
  kBatchExplainRequest = 10,
  kBatchExplainResponse = 14,
};

/// Spec name of a message type ("PREDICT_REQUEST"); nullptr for values
/// that are not part of the protocol. Iterating 0..255 against this is how
/// protocol_doc_test enumerates the real vocabulary.
const char* MessageTypeName(MessageType type);

bool IsRequestType(MessageType type);

/// The response type a well-formed request of `type` is answered with
/// (kErrorResponse for non-requests).
MessageType ResponseTypeFor(MessageType type);

/// Wire rendering of cce::StatusCode — the two enums correspond value for
/// value, which protocol_doc_test pins, so a new StatusCode cannot ship
/// without a wire encoding and a documented row.
enum class WireStatus : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kFailedPrecondition = 4,
  kInternal = 5,
  kUnimplemented = 6,
  kIoError = 7,
  kDeadlineExceeded = 8,
  kUnavailable = 9,
  kResourceExhausted = 10,
};

inline constexpr int kNumWireStatuses = 11;

/// Spec name of a wire status ("RESOURCE_EXHAUSTED"); nullptr for values
/// outside the protocol.
const char* WireStatusName(WireStatus status);

WireStatus WireStatusFromCode(StatusCode code);
StatusCode CodeFromWireStatus(WireStatus status);

/// The fixed frame header. `body_len` counts payload bytes only (the
/// header is not included).
struct FrameHeader {
  uint16_t magic = kMagic;
  uint8_t version = kProtocolVersion;
  uint8_t type = 0;
  uint32_t body_len = 0;
  uint64_t request_id = 0;
};

/// One header field as the spec documents it: name, byte offset, width.
/// protocol_doc_test compares this table against docs/protocol.md.
struct FrameField {
  const char* name;
  size_t offset;
  size_t bytes;
};

const std::vector<FrameField>& FrameHeaderFields();

/// Serialises `header` into exactly kFrameHeaderBytes at `out`.
void EncodeFrameHeader(const FrameHeader& header, uint8_t* out);

/// Parses and validates a header from `data` (>= kFrameHeaderBytes).
/// kInvalidArgument on bad magic, kUnimplemented on a version mismatch.
/// body_len is NOT bounds-checked here — the transport owns that policy.
Status DecodeFrameHeader(const uint8_t* data, size_t len, FrameHeader* out);

/// A decoded client request. The four scalar request types share one body
/// layout (deadline, label, instance); Predict ignores `label`, Record
/// ignores `deadline_ms`. A kBatchExplainRequest instead carries `batch`
/// and leaves the scalar fields unused.
struct Request {
  MessageType type = MessageType::kPredictRequest;
  uint64_t request_id = 0;
  /// Per-request budget in milliseconds; 0 = no deadline.
  uint32_t deadline_ms = 0;
  Label label = 0;
  Instance instance;

  /// kBatchExplainRequest payload: one explain item per entry, each with
  /// its own deadline (the same (deadline, label, instance) triple a
  /// scalar EXPLAIN_REQUEST carries).
  struct BatchItem {
    uint32_t deadline_ms = 0;
    Label label = 0;
    Instance instance;
  };
  std::vector<BatchItem> batch;
};

/// Explain response flag bits.
inline constexpr uint8_t kFlagDegraded = 1u << 0;
inline constexpr uint8_t kFlagCached = 1u << 1;
inline constexpr uint8_t kFlagHedged = 1u << 2;
inline constexpr uint8_t kFlagUnsatisfied = 1u << 3;

/// A decoded server response. Every response body begins with
/// (status, retry_after_ms); a non-OK status carries `message` and no
/// typed payload — the degradation/shed cause made visible at the wire.
struct Response {
  MessageType type = MessageType::kErrorResponse;
  uint64_t request_id = 0;
  WireStatus status = WireStatus::kOk;
  /// Backoff hint for retryable failures (sheds), milliseconds; 0 = none.
  uint32_t retry_after_ms = 0;
  /// Failure / degradation cause for non-OK statuses.
  std::string message;

  /// kPredictResponse payload.
  Label label = 0;

  /// kExplainResponse payload.
  uint8_t flags = 0;  // kFlag* bits
  double achieved_alpha = 0.0;
  uint64_t view_seq = 0;
  uint32_t backend = 0;
  FeatureSet key;

  /// kCounterfactualsResponse payload.
  struct Witness {
    uint64_t row = 0;
    Label label = 0;
    FeatureSet changed_features;
  };
  std::vector<Witness> witnesses;

  /// kBatchExplainResponse payload: one entry per request item,
  /// positional (entry i answers batch item i). Each entry carries its
  /// own status — a shed or degraded item never poisons its batchmates —
  /// followed, when OK, by exactly the kExplainResponse payload fields.
  struct BatchExplainItem {
    WireStatus status = WireStatus::kOk;
    uint32_t retry_after_ms = 0;
    std::string message;  // non-OK entries only
    uint8_t flags = 0;    // kFlag* bits
    double achieved_alpha = 0.0;
    uint64_t view_seq = 0;
    uint32_t backend = 0;
    FeatureSet key;
  };
  std::vector<BatchExplainItem> batch;
};

/// Full frame (header + body) for a request / response.
std::string EncodeRequest(const Request& request);
std::string EncodeResponse(const Response& response);

/// Decodes a request body (`body`, exactly `header.body_len` bytes) whose
/// header already validated as a request type. kInvalidArgument on any
/// malformed or trailing bytes — a frame either parses exactly or not at
/// all.
Status DecodeRequestBody(const FrameHeader& header, const uint8_t* body,
                         Request* out);

/// Decodes a response body; same exactness contract.
Status DecodeResponseBody(const FrameHeader& header, const uint8_t* body,
                          Response* out);

}  // namespace cce::net

#endif  // CCE_NET_PROTOCOL_H_
