// Binary wire protocol for the remote estimation boundary (src/net).
//
// The paper frames the MDBS agent as a component a *remote* global query
// optimizer consults for cost questions; everything before this layer served
// those questions in-process. The wire format is deliberately small and
// typed — length-prefixed frames carrying one request or response each, no
// RPC framework:
//
//   frame   := header payload
//   header  := magic:u16 version:u8 type:u8 request_id:u32 payload_len:u32
//              (12 bytes, little-endian)
//   payload := message body, layout per MessageType, payload_len bytes
//
// `request_id` is chosen by the client and echoed verbatim in the response
// (including error frames), so clients may pipeline requests on one
// connection. Parsing is strictly bounds-checked: every read goes through
// WireReader, which can only fail closed (no over-read, no exception), and
// FrameAssembler enforces the header invariants (magic, version, payload
// cap) before a single payload byte is interpreted. Unframeable bytes (a
// header that breaks them) poison the stream — the server answers with one
// error frame and closes. A payload that fails to decode inside an intact
// frame is answered with its error frame and the connection stays open.
//
// Semantic validation happens at this boundary too (see the Decode*
// functions): non-finite features, empty batches, out-of-range class ids
// and site names longer than kMaxSiteNameBytes are rejected as
// kInvalidRequest *before* the request can reach the
// EstimationService, so a hostile peer can never drive the service with
// values its own boundary checks would have to absorb.

#ifndef MSCM_NET_WIRE_FORMAT_H_
#define MSCM_NET_WIRE_FORMAT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/estimate_types.h"
#include "runtime/estimation_service.h"

namespace mscm::net {

// ---- Protocol constants -----------------------------------------------------

inline constexpr uint16_t kMagic = 0x4D43;  // "CM" on the wire (little-endian)
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kHeaderSize = 12;

// Hard cap a codec user may lower but never raise: no conforming frame
// carries more payload than this, so FrameAssembler can reject a hostile
// length prefix before buffering toward it.
inline constexpr uint32_t kMaxPayloadBytes = 1u << 20;

// Per-message element caps — bounds the decoded size of any single frame.
inline constexpr size_t kMaxSiteNameBytes = 256;
inline constexpr size_t kMaxFeatures = 1024;
inline constexpr size_t kMaxBatchItems = 8192;
inline constexpr size_t kMaxErrorMessageBytes = 1024;
inline constexpr size_t kMaxStatsEntries = 256;
inline constexpr size_t kMaxStatsKeyBytes = 128;

enum class MessageType : uint8_t {
  kEstimateRequest = 1,
  kEstimateResponse = 2,
  kEstimateBatchRequest = 3,
  kEstimateBatchResponse = 4,
  kPlacementRequest = 5,
  kPlacementResponse = 6,
  kStatsRequest = 7,
  kStatsResponse = 8,
  kError = 9,
  // Feedback: the client reports the observed cost of a query the server
  // priced earlier, closing the adaptation loop (runtime/adaptation.h).
  kReportActual = 10,
  kReportActualAck = 11,
};

bool IsKnownMessageType(uint8_t type);
const char* ToString(MessageType t);

// Typed error frames (payload of MessageType::kError).
enum class WireError : uint8_t {
  kNone = 0,
  kMalformedFrame = 1,     // structurally undecodable bytes; stream poisoned
  kUnsupportedVersion = 2, // header version != kProtocolVersion
  kUnknownType = 3,        // header type not in MessageType
  kInvalidRequest = 4,     // decoded, but semantically rejected at the wire
  kOverloaded = 5,         // admission control shed the request
  kShuttingDown = 6,       // server draining; no new work admitted
  kInternal = 7,           // server-side failure computing the response
};

const char* ToString(WireError e);

struct ErrorBody {
  WireError code = WireError::kNone;
  std::string message;
};

// One decoded frame: the raw type byte (which may be unknown — the server
// answers those with kUnknownType rather than dropping the connection), the
// echoed request id, and the unparsed payload bytes.
struct Frame {
  uint8_t type = 0;
  uint32_t request_id = 0;
  std::vector<uint8_t> payload;
};

// A frame whose payload is borrowed: FrameAssembler::NextView points it into
// the assembler's buffer.
struct FrameView {
  uint8_t type = 0;
  uint32_t request_id = 0;
  std::span<const uint8_t> payload;
};

// ---- Bounds-checked primitives ---------------------------------------------
//
// Both move a whole word per field: one memcpy on little-endian hosts (whose
// byte order is the wire's), a byte loop elsewhere.

static_assert(std::numeric_limits<double>::is_iec559,
              "the wire carries IEEE-754 doubles");

namespace wire_internal {

template <typename T>
void StoreLittleEndian(uint8_t* out, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &v, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      out[i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }
}

template <typename T>
T LoadLittleEndian(const uint8_t* in) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, in, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(in[i]) << (8 * i));
    }
  }
  return v;
}

}  // namespace wire_internal

// Append-only little-endian encoder. Never fails. Every Encode* below
// reserves its exact size first, so the puts that follow do not allocate.
class WireWriter {
 public:
  // Writes into a buffer of its own; Take() hands it over.
  WireWriter() : buf_(&own_) {}
  // Appends after the bytes already in `*out`, which must outlive the
  // writer and holds exactly the bytes written once the writer is gone.
  // This is how a frame goes straight into a connection's write buffer.
  explicit WireWriter(std::vector<uint8_t>* out)
      : buf_(out), size_(out->size()) {}
  ~WireWriter() { buf_->resize(size_); }
  WireWriter(const WireWriter&) = delete;
  WireWriter& operator=(const WireWriter&) = delete;

  // Makes room for `n` more bytes without growing past them. If it throws,
  // the buffer is as it was.
  void Reserve(size_t n) {
    if (buf_->size() - size_ < n) buf_->resize(size_ + n);
  }

  void PutU8(uint8_t v) { Put(v); }
  void PutU16(uint16_t v) { Put(v); }
  void PutU32(uint32_t v) { Put(v); }
  void PutU64(uint64_t v) { Put(v); }
  void PutF64(double v) { Put(std::bit_cast<uint64_t>(v)); }  // IEEE-754 bits
  // One word per value: a feature vector is a handful of doubles, which a
  // bulk copy of bounded size would turn into a slow `rep movs`.
  void PutF64s(const double* values, size_t n) {
    uint8_t* out = Room(n * sizeof(double));
    for (size_t i = 0; i < n; ++i) {
      wire_internal::StoreLittleEndian(out + i * sizeof(double),
                                       std::bit_cast<uint64_t>(values[i]));
    }
    size_ += n * sizeof(double);
  }
  void PutBytes(const uint8_t* data, size_t n);
  // u16 length prefix + bytes; truncates at u16 range (callers bound their
  // strings well below it).
  void PutString(std::string_view s);

  // The bytes written so far (drops any reserved room not yet written).
  const std::vector<uint8_t>& bytes() {
    buf_->resize(size_);
    return *buf_;
  }
  std::vector<uint8_t> Take() {
    buf_->resize(size_);
    size_ = 0;
    return std::exchange(*buf_, {});
  }

 private:
  template <typename T>
  void Put(T v) {
    wire_internal::StoreLittleEndian(Room(sizeof(T)), v);
    size_ += sizeof(T);
  }
  uint8_t* Room(size_t n) {
    if (buf_->size() - size_ < n) Grow(n);
    return buf_->data() + size_;
  }
  void Grow(size_t n);  // geometric, for writers that did not reserve

  std::vector<uint8_t> own_;    // a default-constructed writer's buffer
  std::vector<uint8_t>* buf_;  // [0, size_) written, the rest reserved room
  size_t size_ = 0;
};

// Fail-closed little-endian decoder over a borrowed byte range. Any read
// past the end sets ok() false and returns a zero value; once !ok() every
// subsequent read is a no-op, so decoders may read unconditionally and
// check ok() once.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit WireReader(std::span<const uint8_t> bytes)
      : WireReader(bytes.data(), bytes.size()) {}

  uint8_t TakeU8() { return Take<uint8_t>(); }
  uint16_t TakeU16() { return Take<uint16_t>(); }
  uint32_t TakeU32() { return Take<uint32_t>(); }
  uint64_t TakeU64() { return Take<uint64_t>(); }
  double TakeF64() { return std::bit_cast<double>(Take<uint64_t>()); }
  // Reads `n` doubles into `out` (left untouched when the reader fails),
  // one word at a time as PutF64s writes them.
  void TakeF64s(double* out, size_t n) {
    if (!Ensure(n * sizeof(double))) return;
    for (size_t i = 0; i < n; ++i) {
      out[i] = std::bit_cast<double>(wire_internal::LoadLittleEndian<uint64_t>(
          data_ + pos_ + i * sizeof(double)));
    }
    pos_ += n * sizeof(double);
  }
  // A u16-prefixed string as a view into the payload; empty, failing the
  // reader, when the prefix runs past the payload.
  std::string_view TakeStringView();
  // As TakeStringView, copied; also fails the reader when the prefix
  // exceeds `max_bytes` (caller's semantic cap).
  std::string TakeString(size_t max_bytes);

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }
  // A fully-consumed payload; trailing garbage makes a frame malformed.
  bool AtEnd() const { return ok_ && pos_ == size_; }

 private:
  bool Ensure(size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  template <typename T>
  T Take() {
    if (!Ensure(sizeof(T))) return 0;
    const T v = wire_internal::LoadLittleEndian<T>(data_ + pos_);
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---- Frame layer ------------------------------------------------------------

// Appends one frame to `*out`: the header announcing `payload_size` bytes,
// then the payload `encode(WireWriter&)` writes, exactly that many bytes.
// Room for the whole frame is reserved first, the one step that may
// allocate; if it throws, `*out` is as it was.
template <typename Encode>
void AppendFrame(std::vector<uint8_t>* out, MessageType type,
                 uint32_t request_id, size_t payload_size,
                 const Encode& encode) {
  WireWriter w(out);
  w.Reserve(kHeaderSize + payload_size);
  w.PutU16(kMagic);
  w.PutU8(kProtocolVersion);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU32(request_id);
  w.PutU32(static_cast<uint32_t>(payload_size));
  encode(w);
}

// Encodes header + payload into one contiguous buffer ready to write.
std::vector<uint8_t> EncodeFrame(MessageType type, uint32_t request_id,
                                 const std::vector<uint8_t>& payload);

// Incremental stream → frame assembler for one connection (or one fuzz
// input). Feed bytes as they arrive; NextView()/Next() yield completed
// frames in order. The first header violation (bad magic, wrong version,
// payload over the cap) poisons the stream: Feed returns false, error()
// says why, and no further frames are produced. Payload *contents* are not
// interpreted here.
//
// Completed frames stay in the assembler's buffer and are handed out by
// offset; each Feed first drops the frames already handed out, in one move,
// so a read carrying k frames costs O(bytes), not O(k x bytes).
class FrameAssembler {
 public:
  explicit FrameAssembler(uint32_t max_payload = kMaxPayloadBytes);

  // Appends bytes and marks any completed frames ready. Returns false once
  // the stream is poisoned (the bytes are discarded).
  bool Feed(const uint8_t* data, size_t n);

  // The next completed frame, FIFO, if any. Its payload points into the
  // assembler's buffer and stays valid until the next Feed.
  std::optional<FrameView> NextView();
  // As NextView, with the payload copied into the frame.
  std::optional<Frame> Next();

  bool broken() const { return error_ != WireError::kNone; }
  WireError error() const { return error_; }
  // Bytes buffered awaiting a complete frame (read-limit accounting).
  size_t buffered_bytes() const { return buffer_.size() - complete_; }
  size_t frames_ready() const { return ready_.size() - next_; }

 private:
  // A completed frame: its header fields and where its payload sits.
  struct Ready {
    size_t offset = 0;  // of the payload in buffer_
    uint32_t size = 0;
    uint32_t request_id = 0;
    uint8_t type = 0;
  };

  uint32_t max_payload_;  // non-const so a client can reset by reassignment
  std::vector<uint8_t> buffer_;
  size_t complete_ = 0;  // end of the last complete frame in buffer_
  std::vector<Ready> ready_;  // completed frames, in order
  size_t next_ = 0;           // ready_[next_] is handed out next
  WireError error_ = WireError::kNone;
};

// ---- Message bodies ---------------------------------------------------------
//
// One encoder and one decoder per message. Encoders reserve their exact size
// in the writer before writing; the *Size functions give that size up front,
// so a caller can bound and frame a message before a byte of it is written.
// Decoders fill storage the caller owns (Decode*Into), reusing its string and
// vector capacity, and return kNone or one of two failure classes:
// kMalformedFrame for structurally broken payloads (truncation, length-prefix
// lies, trailing bytes), kInvalidRequest for well-formed payloads the
// boundary refuses to forward (non-finite feature or probing cost, empty
// batch, class id outside the enum, a site name longer than
// kMaxSiteNameBytes). After a failure the storage holds a partly decoded
// message that must not be used. The vector-returning forms wrap these (an
// error, when requested, lands in *error). Decoders never throw.

// Response payloads carry the serving model's generation as an append-only
// payload-end extension (the adaptation loop credits feedback to the
// generation that produced the estimate):
//   single:    EstimateResponse, [u64 generation]
//   batch:     u32 count, count x EstimateResponse, [count x u64 generation]
//   placement: ... existing extension ..., [count x u64 generation]
// A payload that ends at the original layout decodes with generation 0 (old
// peers keep working); one that starts the extension must complete it
// exactly — a partial extension is a malformed frame, never half-applied.

// A response item without its generation.
inline constexpr size_t kEstimateResponseSize = 1 + 8 + 8 + 4 + 1;
inline constexpr size_t kEstimateResponsePayloadSize =
    kEstimateResponseSize + 8;

void EncodeEstimateRequest(const runtime::EstimateRequest& request,
                           WireWriter& w);
// The response body alone, as a pre-extension peer sends it.
void EncodeEstimateResponse(const runtime::EstimateResponse& response,
                            WireWriter& w);
void EncodeEstimateResponsePayload(const runtime::EstimateResponse& response,
                                   WireWriter& w);
std::vector<uint8_t> EncodeEstimateResponsePayload(
    const runtime::EstimateResponse& response);

WireError DecodeEstimateRequestInto(std::span<const uint8_t> payload,
                                    runtime::EstimateRequest* request);
std::optional<runtime::EstimateRequest> DecodeEstimateRequestPayload(
    const std::vector<uint8_t>& payload, WireError* error);
std::optional<runtime::EstimateResponse> DecodeEstimateResponsePayload(
    const std::vector<uint8_t>& payload);

size_t EstimateBatchResponsePayloadSize(size_t count);
std::vector<uint8_t> EncodeEstimateBatchRequest(
    const std::vector<runtime::EstimateRequest>& requests);
void EncodeEstimateBatchResponse(
    std::span<const runtime::EstimateResponse> responses, WireWriter& w);
std::vector<uint8_t> EncodeEstimateBatchResponse(
    const std::vector<runtime::EstimateResponse>& responses);
// Decodes the batch into (*items)[0, *count). `items` grows only past its
// high-water size; items past *count keep their capacity for later frames.
WireError DecodeEstimateBatchRequestInto(
    std::span<const uint8_t> payload,
    std::vector<runtime::EstimateRequest>* items, size_t* count);
std::optional<std::vector<runtime::EstimateRequest>>
DecodeEstimateBatchRequestPayload(const std::vector<uint8_t>& payload,
                                  WireError* error);
std::optional<std::vector<runtime::EstimateResponse>>
DecodeEstimateBatchResponsePayload(const std::vector<uint8_t>& payload);

// Placement frames carry append-only extensions past the original layout:
//   request:  u32 count, count x (EstimateRequest, f64 shipping),
//             [u8 policy, f64 risk_lambda, f64 band_fraction]
//   response: u32 chosen, u32 count, count x (EstimateResponse, f64 total),
//             [u8 policy, count x (f64 mean, f64 low, f64 high, u8 dflags,
//              f64 score)]
// A frame that ends at the original layout decodes to defaults (point-
// estimate policy, zero-width distributions) — old peers keep working. A
// frame that starts the extension must complete it, and every extended
// value is validated fail-closed (policy in range, lambda finite and
// non-negative, band in [0, 1], low <= high) — a truncated or corrupt
// extension is rejected, never half-applied.
std::vector<uint8_t> EncodePlacementRequest(
    const std::vector<runtime::PlacementCandidate>& candidates,
    const runtime::PlacementOptions& options = {});
size_t PlacementResponsePayloadSize(const runtime::PlacementResult& result);
void EncodePlacementResponse(const runtime::PlacementResult& result,
                             WireWriter& w);
std::vector<uint8_t> EncodePlacementResponse(
    const runtime::PlacementResult& result);
// Fills `candidates` (resized to the frame's count) and `options`.
WireError DecodePlacementRequestInto(
    std::span<const uint8_t> payload,
    std::vector<runtime::PlacementCandidate>* candidates,
    runtime::PlacementOptions* options);
std::optional<std::vector<runtime::PlacementCandidate>>
DecodePlacementRequestPayload(const std::vector<uint8_t>& payload,
                              WireError* error,
                              runtime::PlacementOptions* options = nullptr);
std::optional<runtime::PlacementResult> DecodePlacementResponsePayload(
    const std::vector<uint8_t>& payload);

// Feedback frames (kReportActual / kReportActualAck):
//   report: site string, u8 class, f64 actual_cost, f64 probing_cost,
//           u64 model_generation, u16 n_features, n x f64
//   ack:    u8 accepted (0 = buffered nowhere: no handler, ring full, or
//           controller rejected it; the report is advisory either way)
// Decoding is fail-closed like every other body: a non-positive or
// non-finite actual cost, a NaN probing cost, a non-finite feature, an
// empty or oversized site name or an out-of-range class id rejects the
// frame at the boundary.
std::vector<uint8_t> EncodeReportActual(const runtime::FeedbackReport& report);
WireError DecodeReportActualInto(std::span<const uint8_t> payload,
                                 runtime::FeedbackReport* report);
std::optional<runtime::FeedbackReport> DecodeReportActualPayload(
    const std::vector<uint8_t>& payload, WireError* error);
inline constexpr size_t kReportActualAckPayloadSize = 1;
void EncodeReportActualAck(bool accepted, WireWriter& w);
std::vector<uint8_t> EncodeReportActualAck(bool accepted);
std::optional<bool> DecodeReportActualAckPayload(
    const std::vector<uint8_t>& payload);

// Error bodies: u8 code, then the message as a string truncated at
// kMaxErrorMessageBytes.
size_t ErrorBodySize(std::string_view message);
void EncodeErrorBody(WireError code, std::string_view message, WireWriter& w);
std::vector<uint8_t> EncodeErrorBody(const ErrorBody& body);
std::optional<ErrorBody> DecodeErrorBodyPayload(
    const std::vector<uint8_t>& payload);

// A ready-to-send error frame echoing `request_id`.
std::vector<uint8_t> EncodeErrorFrame(uint32_t request_id, WireError code,
                                      const std::string& message);

}  // namespace mscm::net

#endif  // MSCM_NET_WIRE_FORMAT_H_
