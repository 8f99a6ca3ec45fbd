#include "net/wire_format.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace mscm::net {

namespace {

// The EstimateStatus / contention-state values that may legally appear in a
// response frame. Kept local: the wire is stricter than the in-memory types.
constexpr uint8_t kMaxStatusByte =
    static_cast<uint8_t>(runtime::EstimateStatus::kInvalidRequest);
constexpr uint8_t kMaxClassByte =
    static_cast<uint8_t>(core::QueryClassId::kJoinIndex);

constexpr uint8_t kFlagStaleProbe = 1u << 0;
constexpr uint8_t kFlagStaleModel = 1u << 1;
constexpr uint8_t kFlagDegraded = 1u << 2;

// Placement extension (append-only fields; see the header's layout note).
constexpr uint8_t kMaxPolicyByte =
    static_cast<uint8_t>(core::PlacementPolicy::kRiskAdjusted);
constexpr uint8_t kFlagDistStale = 1u << 0;
constexpr uint8_t kFlagDistDegraded = 1u << 1;
constexpr uint8_t kFlagDistHasInterval = 1u << 2;

void Fail(WireError* error, WireError code) {
  if (error != nullptr) *error = code;
}

}  // namespace

bool IsKnownMessageType(uint8_t type) {
  return type >= static_cast<uint8_t>(MessageType::kEstimateRequest) &&
         type <= static_cast<uint8_t>(MessageType::kReportActualAck);
}

const char* ToString(MessageType t) {
  switch (t) {
    case MessageType::kEstimateRequest: return "EstimateRequest";
    case MessageType::kEstimateResponse: return "EstimateResponse";
    case MessageType::kEstimateBatchRequest: return "EstimateBatchRequest";
    case MessageType::kEstimateBatchResponse: return "EstimateBatchResponse";
    case MessageType::kPlacementRequest: return "PlacementRequest";
    case MessageType::kPlacementResponse: return "PlacementResponse";
    case MessageType::kStatsRequest: return "StatsRequest";
    case MessageType::kStatsResponse: return "StatsResponse";
    case MessageType::kError: return "Error";
    case MessageType::kReportActual: return "ReportActual";
    case MessageType::kReportActualAck: return "ReportActualAck";
  }
  return "?";
}

const char* ToString(WireError e) {
  switch (e) {
    case WireError::kNone: return "none";
    case WireError::kMalformedFrame: return "malformed_frame";
    case WireError::kUnsupportedVersion: return "unsupported_version";
    case WireError::kUnknownType: return "unknown_type";
    case WireError::kInvalidRequest: return "invalid_request";
    case WireError::kOverloaded: return "overloaded";
    case WireError::kShuttingDown: return "shutting_down";
    case WireError::kInternal: return "internal";
  }
  return "?";
}

// ---- WireWriter / WireReader -----------------------------------------------

void WireWriter::Grow(size_t n) {
  buf_->resize(std::max(size_ + n, 2 * buf_->size()));
}

void WireWriter::PutBytes(const uint8_t* data, size_t n) {
  if (n == 0) return;
  std::memcpy(Room(n), data, n);
  size_ += n;
}

void WireWriter::PutString(std::string_view s) {
  const size_t n = std::min<size_t>(s.size(), 0xFFFF);
  PutU16(static_cast<uint16_t>(n));
  PutBytes(reinterpret_cast<const uint8_t*>(s.data()), n);
}

std::string_view WireReader::TakeStringView() {
  const uint16_t n = TakeU16();
  if (!Ensure(n)) return {};
  const std::string_view s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

std::string WireReader::TakeString(size_t max_bytes) {
  const std::string_view s = TakeStringView();
  if (!ok_ || s.size() > max_bytes) {
    ok_ = false;
    return {};
  }
  return std::string(s);
}

// ---- Frame layer ------------------------------------------------------------

std::vector<uint8_t> EncodeFrame(MessageType type, uint32_t request_id,
                                 const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame;
  AppendFrame(&frame, type, request_id, payload.size(), [&](WireWriter& w) {
    w.PutBytes(payload.data(), payload.size());
  });
  return frame;
}

FrameAssembler::FrameAssembler(uint32_t max_payload)
    : max_payload_(std::min(max_payload, kMaxPayloadBytes)) {}

bool FrameAssembler::Feed(const uint8_t* data, size_t n) {
  if (broken()) return false;
  // Drop the frames already handed out in one move; their views die here.
  if (next_ > 0) {
    const size_t consumed = ready_[next_ - 1].offset + ready_[next_ - 1].size;
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed));
    complete_ -= consumed;
    ready_.erase(ready_.begin(),
                 ready_.begin() + static_cast<std::ptrdiff_t>(next_));
    for (Ready& frame : ready_) frame.offset -= consumed;
    next_ = 0;
  }
  // Append in cache-sized steps and scan each step's headers while its bytes
  // are still in cache: a 64 KiB read costs per frame what a 4 KiB one does.
  constexpr size_t kStep = 16384;
  for (size_t done = 0; done < n;) {
    const size_t take = std::min(kStep, n - done);
    buffer_.insert(buffer_.end(), data + done, data + done + take);
    done += take;
    while (buffer_.size() - complete_ >= kHeaderSize) {
      WireReader r(buffer_.data() + complete_, kHeaderSize);
      const uint16_t magic = r.TakeU16();
      const uint8_t version = r.TakeU8();
      const uint8_t type = r.TakeU8();
      const uint32_t request_id = r.TakeU32();
      const uint32_t payload_len = r.TakeU32();
      if (magic != kMagic) {
        error_ = WireError::kMalformedFrame;
      } else if (version != kProtocolVersion) {
        error_ = WireError::kUnsupportedVersion;
      } else if (payload_len > max_payload_) {
        error_ = WireError::kMalformedFrame;
      }
      if (broken()) {
        buffer_.resize(complete_);  // frames completed before stay readable
        return false;
      }
      if (buffer_.size() - complete_ - kHeaderSize < payload_len) break;
      ready_.push_back(
          Ready{complete_ + kHeaderSize, payload_len, request_id, type});
      complete_ += kHeaderSize + payload_len;
    }
  }
  return true;
}

std::optional<FrameView> FrameAssembler::NextView() {
  if (next_ == ready_.size()) return std::nullopt;
  const Ready& frame = ready_[next_++];
  return FrameView{frame.type, frame.request_id,
                   {buffer_.data() + frame.offset, frame.size}};
}

std::optional<Frame> FrameAssembler::Next() {
  const std::optional<FrameView> view = NextView();
  if (!view.has_value()) return std::nullopt;
  return Frame{view->type, view->request_id,
               std::vector<uint8_t>(view->payload.begin(),
                                    view->payload.end())};
}

// ---- Estimate request/response ----------------------------------------------

namespace {

size_t EncodedFeatures(size_t n) { return std::min(n, kMaxFeatures); }

size_t EstimateRequestSize(const runtime::EstimateRequest& request) {
  return 2 + std::min<size_t>(request.site.size(), 0xFFFF) + 1 + 8 + 2 +
         8 * EncodedFeatures(request.features.size());
}

// A request item: site, class, probing cost, then its features.
void PutEstimateRequest(const runtime::EstimateRequest& request,
                        WireWriter& w) {
  w.PutString(request.site);
  w.PutU8(static_cast<uint8_t>(request.class_id));
  w.PutF64(request.probing_cost);
  const size_t n = EncodedFeatures(request.features.size());
  w.PutU16(static_cast<uint16_t>(n));
  w.PutF64s(request.features.data(), n);
}

// Read a site name and a feature vector into caller storage, in place. A
// name longer than kMaxSiteNameBytes is kInvalidRequest once its bytes are
// known to be present; a feature count over kMaxFeatures is as soon as it
// is read.
WireError TakeSite(WireReader& r, std::string* site) {
  const std::string_view name = r.TakeStringView();
  if (!r.ok()) return WireError::kMalformedFrame;
  if (name.size() > kMaxSiteNameBytes) return WireError::kInvalidRequest;
  // Reused storage usually holds this very name already.
  if (*site != name) site->assign(name);
  return WireError::kNone;
}

WireError TakeFeatures(WireReader& r, std::vector<double>* features) {
  const uint16_t n = r.TakeU16();
  if (!r.ok()) return WireError::kMalformedFrame;
  if (n > kMaxFeatures) return WireError::kInvalidRequest;
  features->resize(n);
  r.TakeF64s(features->data(), n);
  return r.ok() ? WireError::kNone : WireError::kMalformedFrame;
}

bool AllFinite(const std::vector<double>& values) {
  bool finite = true;  // no early exit: the loop vectorizes
  for (const double v : values) finite &= std::isfinite(v);
  return finite;
}

// A NaN probing cost is rejected; any negative finite value is the "use the
// cached probe" sentinel.
bool ProbingCostIsValid(double probing_cost) {
  return !std::isnan(probing_cost) &&
         probing_cost != std::numeric_limits<double>::infinity();
}

// One request item, decoded in place. The semantic checks run after the
// item's bytes: nothing non-finite or out of the enum range may pass this
// point toward the service.
WireError DecodeEstimateRequest(WireReader& r,
                                runtime::EstimateRequest* request) {
  WireError error = TakeSite(r, &request->site);
  if (error != WireError::kNone) return error;
  const uint8_t class_byte = r.TakeU8();
  request->probing_cost = r.TakeF64();
  error = TakeFeatures(r, &request->features);
  if (error != WireError::kNone) return error;
  if (class_byte > kMaxClassByte ||
      !ProbingCostIsValid(request->probing_cost) ||
      !AllFinite(request->features)) {
    return WireError::kInvalidRequest;
  }
  request->class_id = static_cast<core::QueryClassId>(class_byte);
  return WireError::kNone;
}

std::optional<runtime::EstimateResponse> DecodeEstimateResponse(WireReader& r) {
  runtime::EstimateResponse response;
  const uint8_t status_byte = r.TakeU8();
  response.estimate_seconds = r.TakeF64();
  response.probing_cost = r.TakeF64();
  response.state = static_cast<int>(r.TakeU32());
  const uint8_t flags = r.TakeU8();
  if (!r.ok() || status_byte > kMaxStatusByte) return std::nullopt;
  response.status = static_cast<runtime::EstimateStatus>(status_byte);
  response.stale_probe = (flags & kFlagStaleProbe) != 0;
  response.stale_model = (flags & kFlagStaleModel) != 0;
  response.degraded = (flags & kFlagDegraded) != 0;
  return response;
}

// Runs an in-place decoder over a fresh value for the optional-returning
// forms.
template <typename T, typename Decode>
std::optional<T> DecodeFresh(const std::vector<uint8_t>& payload,
                             WireError* error, Decode decode) {
  T value{};
  const WireError code = decode(std::span<const uint8_t>(payload), &value);
  if (code != WireError::kNone) {
    Fail(error, code);
    return std::nullopt;
  }
  return value;
}

}  // namespace

void EncodeEstimateRequest(const runtime::EstimateRequest& request,
                           WireWriter& w) {
  w.Reserve(EstimateRequestSize(request));
  PutEstimateRequest(request, w);
}

void EncodeEstimateResponse(const runtime::EstimateResponse& response,
                            WireWriter& w) {
  w.Reserve(kEstimateResponseSize);
  w.PutU8(static_cast<uint8_t>(response.status));
  w.PutF64(response.estimate_seconds);
  w.PutF64(response.probing_cost);
  w.PutU32(static_cast<uint32_t>(response.state));
  uint8_t flags = 0;
  if (response.stale_probe) flags |= kFlagStaleProbe;
  if (response.stale_model) flags |= kFlagStaleModel;
  if (response.degraded) flags |= kFlagDegraded;
  w.PutU8(flags);
}

void EncodeEstimateResponsePayload(const runtime::EstimateResponse& response,
                                   WireWriter& w) {
  w.Reserve(kEstimateResponsePayloadSize);
  EncodeEstimateResponse(response, w);
  // Append-only extension: the serving model's generation.
  w.PutU64(response.model_generation);
}

std::vector<uint8_t> EncodeEstimateResponsePayload(
    const runtime::EstimateResponse& response) {
  WireWriter w;
  EncodeEstimateResponsePayload(response, w);
  return w.Take();
}

WireError DecodeEstimateRequestInto(std::span<const uint8_t> payload,
                                    runtime::EstimateRequest* request) {
  WireReader r(payload);
  const WireError error = DecodeEstimateRequest(r, request);
  if (error != WireError::kNone) return error;
  return r.AtEnd() ? WireError::kNone : WireError::kMalformedFrame;
}

std::optional<runtime::EstimateRequest> DecodeEstimateRequestPayload(
    const std::vector<uint8_t>& payload, WireError* error) {
  return DecodeFresh<runtime::EstimateRequest>(payload, error,
                                               DecodeEstimateRequestInto);
}

std::optional<runtime::EstimateResponse> DecodeEstimateResponsePayload(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  auto response = DecodeEstimateResponse(r);
  if (!response.has_value()) return std::nullopt;
  // Pre-extension payloads end here (generation 0); an extension present
  // must be exactly one u64.
  if (r.remaining() > 0) {
    response->model_generation = r.TakeU64();
  }
  if (!r.AtEnd()) return std::nullopt;
  return response;
}

// ---- Batch ------------------------------------------------------------------

size_t EstimateBatchResponsePayloadSize(size_t count) {
  return 4 + count * kEstimateResponsePayloadSize;
}

std::vector<uint8_t> EncodeEstimateBatchRequest(
    const std::vector<runtime::EstimateRequest>& requests) {
  size_t size = 4;
  for (const auto& request : requests) size += EstimateRequestSize(request);
  WireWriter w;
  w.Reserve(size);
  w.PutU32(static_cast<uint32_t>(requests.size()));
  for (const auto& request : requests) PutEstimateRequest(request, w);
  return w.Take();
}

void EncodeEstimateBatchResponse(
    std::span<const runtime::EstimateResponse> responses, WireWriter& w) {
  w.Reserve(EstimateBatchResponsePayloadSize(responses.size()));
  w.PutU32(static_cast<uint32_t>(responses.size()));
  for (const auto& response : responses) EncodeEstimateResponse(response, w);
  // Append-only extension: one generation per item, after the item list so
  // pre-extension decoders never see it.
  for (const auto& response : responses) w.PutU64(response.model_generation);
}

std::vector<uint8_t> EncodeEstimateBatchResponse(
    const std::vector<runtime::EstimateResponse>& responses) {
  WireWriter w;
  EncodeEstimateBatchResponse(responses, w);
  return w.Take();
}

WireError DecodeEstimateBatchRequestInto(
    std::span<const uint8_t> payload,
    std::vector<runtime::EstimateRequest>* items, size_t* count) {
  *count = 0;
  WireReader r(payload);
  const uint32_t n = r.TakeU32();
  if (!r.ok()) return WireError::kMalformedFrame;
  if (n == 0 || n > kMaxBatchItems) return WireError::kInvalidRequest;
  if (items->size() < n) items->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    const WireError error = DecodeEstimateRequest(r, &(*items)[i]);
    if (error != WireError::kNone) return error;
  }
  if (!r.AtEnd()) return WireError::kMalformedFrame;
  *count = n;
  return WireError::kNone;
}

std::optional<std::vector<runtime::EstimateRequest>>
DecodeEstimateBatchRequestPayload(const std::vector<uint8_t>& payload,
                                  WireError* error) {
  std::vector<runtime::EstimateRequest> requests;
  size_t count = 0;
  const WireError code =
      DecodeEstimateBatchRequestInto(payload, &requests, &count);
  if (code != WireError::kNone) {
    Fail(error, code);
    return std::nullopt;
  }
  return requests;
}

std::optional<std::vector<runtime::EstimateResponse>>
DecodeEstimateBatchResponsePayload(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  const uint32_t count = r.TakeU32();
  if (!r.ok() || count > kMaxBatchItems) return std::nullopt;
  std::vector<runtime::EstimateResponse> responses;
  responses.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    auto response = DecodeEstimateResponse(r);
    if (!response.has_value()) return std::nullopt;
    responses.push_back(*response);
  }
  // Pre-extension payloads end here (generation 0). A started extension
  // must carry exactly `count` generations.
  if (r.remaining() > 0) {
    for (uint32_t i = 0; i < count; ++i) {
      responses[i].model_generation = r.TakeU64();
    }
    if (!r.ok()) return std::nullopt;
  }
  if (!r.AtEnd()) return std::nullopt;
  return responses;
}

// ---- Placement --------------------------------------------------------------

std::vector<uint8_t> EncodePlacementRequest(
    const std::vector<runtime::PlacementCandidate>& candidates,
    const runtime::PlacementOptions& options) {
  size_t size = 4 + 1 + 8 + 8;
  for (const auto& candidate : candidates) {
    size += EstimateRequestSize(candidate.request) + 8;
  }
  WireWriter w;
  w.Reserve(size);
  w.PutU32(static_cast<uint32_t>(candidates.size()));
  for (const auto& candidate : candidates) {
    PutEstimateRequest(candidate.request, w);
    w.PutF64(candidate.shipping_seconds);
  }
  // Append-only extension: ranking policy + knobs. Decoders that stop at
  // the original layout (old peers) never see it; decoders that know it
  // read it after the candidate list.
  w.PutU8(static_cast<uint8_t>(options.ranking.policy));
  w.PutF64(options.ranking.risk_lambda);
  w.PutF64(options.ranking.boundary_band_fraction);
  return w.Take();
}

size_t PlacementResponsePayloadSize(const runtime::PlacementResult& result) {
  const size_t n = result.responses.size();
  // chosen, count, items (response + total), policy, per-candidate
  // distribution + flags + score, generations.
  return 4 + 4 + n * (kEstimateResponseSize + 8) + 1 + n * (3 * 8 + 1 + 8) +
         n * 8;
}

void EncodePlacementResponse(const runtime::PlacementResult& result,
                             WireWriter& w) {
  w.Reserve(PlacementResponsePayloadSize(result));
  w.PutU32(static_cast<uint32_t>(result.chosen));
  w.PutU32(static_cast<uint32_t>(result.responses.size()));
  for (size_t i = 0; i < result.responses.size(); ++i) {
    EncodeEstimateResponse(result.responses[i], w);
    w.PutF64(i < result.total_seconds.size() ? result.total_seconds[i] : 0.0);
  }
  // Append-only extension: the policy that ranked, then each candidate's
  // served distribution and score.
  w.PutU8(static_cast<uint8_t>(result.policy));
  for (size_t i = 0; i < result.responses.size(); ++i) {
    const core::CostDistribution distribution =
        i < result.distributions.size() ? result.distributions[i]
                                        : core::CostDistribution{};
    w.PutF64(distribution.mean);
    w.PutF64(distribution.low);
    w.PutF64(distribution.high);
    uint8_t dflags = 0;
    if (distribution.stale) dflags |= kFlagDistStale;
    if (distribution.degraded) dflags |= kFlagDistDegraded;
    if (distribution.has_interval) dflags |= kFlagDistHasInterval;
    w.PutU8(dflags);
    w.PutF64(i < result.scores.size()
                 ? result.scores[i]
                 : std::numeric_limits<double>::infinity());
  }
  // Second append-only extension: each candidate's serving generation.
  for (const auto& response : result.responses) {
    w.PutU64(response.model_generation);
  }
}

std::vector<uint8_t> EncodePlacementResponse(
    const runtime::PlacementResult& result) {
  WireWriter w;
  EncodePlacementResponse(result, w);
  return w.Take();
}

WireError DecodePlacementRequestInto(
    std::span<const uint8_t> payload,
    std::vector<runtime::PlacementCandidate>* candidates,
    runtime::PlacementOptions* options) {
  WireReader r(payload);
  const uint32_t count = r.TakeU32();
  if (!r.ok()) return WireError::kMalformedFrame;
  if (count == 0 || count > kMaxBatchItems) return WireError::kInvalidRequest;
  candidates->resize(count);
  for (runtime::PlacementCandidate& candidate : *candidates) {
    const WireError error = DecodeEstimateRequest(r, &candidate.request);
    if (error != WireError::kNone) return error;
    candidate.shipping_seconds = r.TakeF64();
    if (!r.ok()) return WireError::kMalformedFrame;
    if (!std::isfinite(candidate.shipping_seconds) ||
        candidate.shipping_seconds < 0.0) {
      return WireError::kInvalidRequest;
    }
  }
  // Frames from pre-extension peers end here: default ranking (point
  // estimate). A frame carrying any extension bytes must carry the whole,
  // valid extension — fail closed on anything else.
  *options = runtime::PlacementOptions{};
  if (r.remaining() > 0) {
    const uint8_t policy_byte = r.TakeU8();
    const double risk_lambda = r.TakeF64();
    const double band_fraction = r.TakeF64();
    if (!r.ok()) return WireError::kMalformedFrame;
    if (policy_byte > kMaxPolicyByte || !std::isfinite(risk_lambda) ||
        risk_lambda < 0.0 || !std::isfinite(band_fraction) ||
        band_fraction < 0.0 || band_fraction > 1.0) {
      return WireError::kInvalidRequest;
    }
    options->ranking.policy = static_cast<core::PlacementPolicy>(policy_byte);
    options->ranking.risk_lambda = risk_lambda;
    options->ranking.boundary_band_fraction = band_fraction;
  }
  return r.AtEnd() ? WireError::kNone : WireError::kMalformedFrame;
}

std::optional<std::vector<runtime::PlacementCandidate>>
DecodePlacementRequestPayload(const std::vector<uint8_t>& payload,
                              WireError* error,
                              runtime::PlacementOptions* options) {
  std::vector<runtime::PlacementCandidate> candidates;
  runtime::PlacementOptions decoded;
  const WireError code =
      DecodePlacementRequestInto(payload, &candidates, &decoded);
  if (code != WireError::kNone) {
    Fail(error, code);
    return std::nullopt;
  }
  if (options != nullptr) *options = decoded;
  return candidates;
}

std::optional<runtime::PlacementResult> DecodePlacementResponsePayload(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  runtime::PlacementResult result;
  result.chosen = static_cast<int>(r.TakeU32());
  const uint32_t count = r.TakeU32();
  if (!r.ok() || count > kMaxBatchItems) return std::nullopt;
  for (uint32_t i = 0; i < count; ++i) {
    auto response = DecodeEstimateResponse(r);
    if (!response.has_value()) return std::nullopt;
    result.responses.push_back(*response);
    result.total_seconds.push_back(r.TakeF64());
  }
  if (!r.ok()) return std::nullopt;
  // Responses from pre-extension peers end here (point-estimate policy,
  // zero-width distributions). Any extension bytes must decode completely
  // and validly or the whole frame is rejected.
  if (r.remaining() > 0) {
    const uint8_t policy_byte = r.TakeU8();
    if (!r.ok() || policy_byte > kMaxPolicyByte) return std::nullopt;
    result.policy = static_cast<core::PlacementPolicy>(policy_byte);
    for (uint32_t i = 0; i < count; ++i) {
      core::CostDistribution distribution;
      distribution.mean = r.TakeF64();
      distribution.low = r.TakeF64();
      distribution.high = r.TakeF64();
      const uint8_t dflags = r.TakeU8();
      const double score = r.TakeF64();
      if (!r.ok()) return std::nullopt;
      if (!std::isfinite(distribution.mean) ||
          !std::isfinite(distribution.low) ||
          !std::isfinite(distribution.high) ||
          distribution.low > distribution.high || std::isnan(score)) {
        return std::nullopt;  // +inf score = "not estimable" is legal
      }
      distribution.stale = (dflags & kFlagDistStale) != 0;
      distribution.degraded = (dflags & kFlagDistDegraded) != 0;
      distribution.has_interval = (dflags & kFlagDistHasInterval) != 0;
      result.distributions.push_back(distribution);
      result.scores.push_back(score);
    }
    // Second extension: per-candidate serving generations. Optional after
    // the distribution block; a started run must carry exactly `count`.
    if (r.remaining() > 0) {
      for (uint32_t i = 0; i < count; ++i) {
        result.responses[i].model_generation = r.TakeU64();
      }
      if (!r.ok()) return std::nullopt;
    }
  }
  if (!r.AtEnd()) return std::nullopt;
  // chosen must index the candidate list or be the -1 "none estimable"
  // sentinel; anything else is a corrupt frame even though every element
  // decoded.
  if (result.chosen < -1 ||
      result.chosen >= static_cast<int>(result.responses.size())) {
    return std::nullopt;
  }
  return result;
}

// ---- Feedback ---------------------------------------------------------------

std::vector<uint8_t> EncodeReportActual(const runtime::FeedbackReport& report) {
  const size_t n = EncodedFeatures(report.features.size());
  WireWriter w;
  w.Reserve(2 + std::min<size_t>(report.site.size(), 0xFFFF) + 1 + 8 + 8 + 8 +
            2 + 8 * n);
  w.PutString(report.site);
  w.PutU8(static_cast<uint8_t>(report.class_id));
  w.PutF64(report.actual_cost);
  w.PutF64(report.probing_cost);
  w.PutU64(report.model_generation);
  w.PutU16(static_cast<uint16_t>(n));
  w.PutF64s(report.features.data(), n);
  return w.Take();
}

WireError DecodeReportActualInto(std::span<const uint8_t> payload,
                                 runtime::FeedbackReport* report) {
  WireReader r(payload);
  WireError error = TakeSite(r, &report->site);
  if (error != WireError::kNone) return error;
  const uint8_t class_byte = r.TakeU8();
  report->actual_cost = r.TakeF64();
  report->probing_cost = r.TakeF64();
  report->model_generation = r.TakeU64();
  error = TakeFeatures(r, &report->features);
  if (error != WireError::kNone) return error;
  if (!r.AtEnd()) return WireError::kMalformedFrame;
  // Semantic boundary: feedback must be a priceable observation. A
  // non-positive cost, anything non-finite, or a class outside the enum is
  // refused before it can reach the adaptation path.
  if (class_byte > kMaxClassByte || report->site.empty() ||
      !std::isfinite(report->actual_cost) || report->actual_cost <= 0.0 ||
      !ProbingCostIsValid(report->probing_cost) ||
      !AllFinite(report->features)) {
    return WireError::kInvalidRequest;
  }
  report->class_id = static_cast<core::QueryClassId>(class_byte);
  return WireError::kNone;
}

std::optional<runtime::FeedbackReport> DecodeReportActualPayload(
    const std::vector<uint8_t>& payload, WireError* error) {
  return DecodeFresh<runtime::FeedbackReport>(payload, error,
                                              DecodeReportActualInto);
}

void EncodeReportActualAck(bool accepted, WireWriter& w) {
  w.Reserve(kReportActualAckPayloadSize);
  w.PutU8(accepted ? 1 : 0);
}

std::vector<uint8_t> EncodeReportActualAck(bool accepted) {
  WireWriter w;
  EncodeReportActualAck(accepted, w);
  return w.Take();
}

std::optional<bool> DecodeReportActualAckPayload(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  const uint8_t accepted = r.TakeU8();
  if (!r.AtEnd() || accepted > 1) return std::nullopt;
  return accepted == 1;
}

// ---- Errors -----------------------------------------------------------------

size_t ErrorBodySize(std::string_view message) {
  return 1 + 2 + std::min(message.size(), kMaxErrorMessageBytes);
}

void EncodeErrorBody(WireError code, std::string_view message, WireWriter& w) {
  w.Reserve(ErrorBodySize(message));
  w.PutU8(static_cast<uint8_t>(code));
  w.PutString(message.substr(0, kMaxErrorMessageBytes));
}

std::vector<uint8_t> EncodeErrorBody(const ErrorBody& body) {
  WireWriter w;
  EncodeErrorBody(body.code, body.message, w);
  return w.Take();
}

std::optional<ErrorBody> DecodeErrorBodyPayload(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  ErrorBody body;
  const uint8_t code = r.TakeU8();
  body.message = r.TakeString(kMaxErrorMessageBytes);
  if (!r.AtEnd() || code > static_cast<uint8_t>(WireError::kInternal)) {
    return std::nullopt;
  }
  body.code = static_cast<WireError>(code);
  return body;
}

std::vector<uint8_t> EncodeErrorFrame(uint32_t request_id, WireError code,
                                      const std::string& message) {
  return EncodeFrame(MessageType::kError, request_id,
                     EncodeErrorBody({code, message}));
}

}  // namespace mscm::net
