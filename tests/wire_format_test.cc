// Frame codec tests: round-trips for every message type, the exact bytes of
// every served message, header-invariant violations, truncated/byte-split
// and many-frames-per-read delivery, semantic boundary rejection,
// stats wire round-trip, and seeded random/mutation fuzzing of the
// assembler + payload decoders (run under ASan/TSan via run_sanitized.sh).

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/stats_codec.h"
#include "net/wire_format.h"
#include "runtime/runtime_stats.h"

namespace mscm::net {
namespace {

using runtime::EstimateRequest;
using runtime::EstimateResponse;
using runtime::EstimateStatus;
using runtime::PlacementCandidate;
using runtime::PlacementResult;

EstimateRequest MakeRequest() {
  EstimateRequest req;
  req.site = "site3";
  req.class_id = core::QueryClassId::kJoinNoIndex;
  req.features = {1.0, 2.5, -3.25, 1e6};
  req.probing_cost = 1.75;
  return req;
}

EstimateResponse MakeResponse() {
  EstimateResponse resp;
  resp.status = EstimateStatus::kOk;
  resp.estimate_seconds = 0.125;
  resp.probing_cost = 2.5;
  resp.state = 3;
  resp.stale_probe = true;
  resp.stale_model = false;
  resp.degraded = true;
  return resp;
}

// ---- Primitive layer --------------------------------------------------------

TEST(WireReaderTest, FailsClosedOnOverread) {
  const std::vector<uint8_t> bytes = {0x01, 0x02};
  WireReader r(bytes);
  EXPECT_EQ(r.TakeU8(), 0x01);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.TakeU32(), 0u);  // only 1 byte left
  EXPECT_FALSE(r.ok());
  // Sticky: subsequent reads stay zero even though a byte remains.
  EXPECT_EQ(r.TakeU8(), 0u);
  EXPECT_FALSE(r.AtEnd());
}

TEST(WireReaderTest, RoundTripsPrimitives) {
  WireWriter w;
  w.PutU8(0xAB);
  w.PutU16(0x1234);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFULL);
  w.PutF64(-1234.5678);
  w.PutString("hello");
  const std::vector<uint8_t> bytes = w.bytes();

  WireReader r(bytes);
  EXPECT_EQ(r.TakeU8(), 0xAB);
  EXPECT_EQ(r.TakeU16(), 0x1234);
  EXPECT_EQ(r.TakeU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.TakeU64(), 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(r.TakeF64(), -1234.5678);
  EXPECT_EQ(r.TakeString(16), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireReaderTest, NonFiniteDoublesSurviveTheWire) {
  WireWriter w;
  w.PutF64(std::numeric_limits<double>::quiet_NaN());
  w.PutF64(std::numeric_limits<double>::infinity());
  WireReader r(w.bytes());
  EXPECT_TRUE(std::isnan(r.TakeF64()));
  EXPECT_TRUE(std::isinf(r.TakeF64()));
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireReaderTest, StringCapIsEnforced) {
  WireWriter w;
  w.PutString(std::string(64, 'x'));
  WireReader r(w.bytes());
  EXPECT_EQ(r.TakeString(/*max_bytes=*/8), "");
  EXPECT_FALSE(r.ok());
}

TEST(WireReaderTest, StringPrefixBeyondPayloadFails) {
  WireWriter w;
  w.PutU16(100);  // length prefix promising 100 bytes...
  w.PutU8('x');   // ...but only 1 present
  WireReader r(w.bytes());
  EXPECT_EQ(r.TakeString(256), "");
  EXPECT_FALSE(r.ok());
}

// ---- Frame assembler --------------------------------------------------------

TEST(FrameAssemblerTest, ReassemblesOneFrame) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4};
  const std::vector<uint8_t> bytes =
      EncodeFrame(MessageType::kEstimateRequest, 42, payload);
  ASSERT_EQ(bytes.size(), kHeaderSize + payload.size());

  FrameAssembler a;
  EXPECT_TRUE(a.Feed(bytes.data(), bytes.size()));
  auto frame = a.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, static_cast<uint8_t>(MessageType::kEstimateRequest));
  EXPECT_EQ(frame->request_id, 42u);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_FALSE(a.Next().has_value());
  EXPECT_EQ(a.buffered_bytes(), 0u);
}

TEST(FrameAssemblerTest, ByteAtATimeDelivery) {
  const std::vector<uint8_t> bytes =
      EncodeFrame(MessageType::kStatsRequest, 7, {});
  FrameAssembler a;
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    ASSERT_TRUE(a.Feed(&bytes[i], 1));
    EXPECT_FALSE(a.Next().has_value()) << "frame completed early at byte " << i;
  }
  ASSERT_TRUE(a.Feed(&bytes.back(), 1));
  auto frame = a.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->request_id, 7u);
}

TEST(FrameAssemblerTest, PipelinedFramesComeOutInOrder) {
  std::vector<uint8_t> stream;
  for (uint32_t id = 1; id <= 5; ++id) {
    const auto f = EncodeFrame(MessageType::kEstimateRequest, id,
                               {static_cast<uint8_t>(id)});
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameAssembler a;
  ASSERT_TRUE(a.Feed(stream.data(), stream.size()));
  EXPECT_EQ(a.frames_ready(), 5u);
  for (uint32_t id = 1; id <= 5; ++id) {
    auto frame = a.Next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->request_id, id);
  }
}

TEST(FrameAssemblerTest, BadMagicPoisonsTheStream) {
  std::vector<uint8_t> bytes = EncodeFrame(MessageType::kStatsRequest, 1, {});
  bytes[0] ^= 0xFF;
  FrameAssembler a;
  EXPECT_FALSE(a.Feed(bytes.data(), bytes.size()));
  EXPECT_TRUE(a.broken());
  EXPECT_EQ(a.error(), WireError::kMalformedFrame);
  // Poisoned: even valid bytes are refused now.
  const auto good = EncodeFrame(MessageType::kStatsRequest, 2, {});
  EXPECT_FALSE(a.Feed(good.data(), good.size()));
  EXPECT_FALSE(a.Next().has_value());
}

TEST(FrameAssemblerTest, WrongVersionIsItsOwnError) {
  std::vector<uint8_t> bytes = EncodeFrame(MessageType::kStatsRequest, 1, {});
  bytes[2] = kProtocolVersion + 1;  // version byte
  FrameAssembler a;
  EXPECT_FALSE(a.Feed(bytes.data(), bytes.size()));
  EXPECT_EQ(a.error(), WireError::kUnsupportedVersion);
}

TEST(FrameAssemblerTest, OversizedPayloadLengthIsRejectedUpFront) {
  std::vector<uint8_t> bytes = EncodeFrame(MessageType::kStatsRequest, 1, {});
  const uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(&bytes[8], &huge, sizeof(huge));  // payload_len field
  FrameAssembler a;
  EXPECT_FALSE(a.Feed(bytes.data(), bytes.size()));
  EXPECT_EQ(a.error(), WireError::kMalformedFrame);
  // The lying length must not be buffered toward.
  EXPECT_EQ(a.buffered_bytes(), 0u);
}

TEST(FrameAssemblerTest, LowerCapApplies) {
  const std::vector<uint8_t> payload(128, 0);
  const auto bytes = EncodeFrame(MessageType::kEstimateRequest, 1, payload);
  FrameAssembler a(/*max_payload=*/64);
  EXPECT_FALSE(a.Feed(bytes.data(), bytes.size()));
  EXPECT_EQ(a.error(), WireError::kMalformedFrame);
}

TEST(FrameAssemblerTest, TruncatedFrameStaysPendingNotBroken) {
  const auto bytes =
      EncodeFrame(MessageType::kEstimateRequest, 9, {1, 2, 3, 4, 5});
  FrameAssembler a;
  ASSERT_TRUE(a.Feed(bytes.data(), bytes.size() - 2));
  EXPECT_FALSE(a.broken());
  EXPECT_FALSE(a.Next().has_value());
  EXPECT_GT(a.buffered_bytes(), 0u);
}

TEST(FrameAssemblerTest, ManyFramesInOneFeedComeOutInOrder) {
  // A pipelining peer can land thousands of frames in one read.
  constexpr uint32_t kFrames = 12000;
  std::vector<uint8_t> stream;
  for (uint32_t id = 1; id <= kFrames; ++id) {
    const auto f = EncodeFrame(
        MessageType::kEstimateRequest, id,
        {static_cast<uint8_t>(id), static_cast<uint8_t>(id >> 8)});
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameAssembler a;
  ASSERT_TRUE(a.Feed(stream.data(), stream.size()));
  EXPECT_EQ(a.frames_ready(), kFrames);
  for (uint32_t id = 1; id <= kFrames; ++id) {
    auto frame = a.Next();
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->request_id, id);
    ASSERT_EQ(frame->payload,
              (std::vector<uint8_t>{static_cast<uint8_t>(id),
                                    static_cast<uint8_t>(id >> 8)}));
  }
  EXPECT_FALSE(a.Next().has_value());

  // Then one frame split across the next two feeds comes out whole.
  const std::vector<uint8_t> payload(40, 0xAB);
  const auto split = EncodeFrame(MessageType::kStatsRequest, kFrames + 1,
                                 payload);
  ASSERT_TRUE(a.Feed(split.data(), 20));
  EXPECT_FALSE(a.NextView().has_value());
  ASSERT_TRUE(a.Feed(split.data() + 20, split.size() - 20));
  const auto whole = a.NextView();
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->request_id, kFrames + 1);
  EXPECT_EQ(std::vector<uint8_t>(whole->payload.begin(), whole->payload.end()),
            payload);
  EXPECT_EQ(a.buffered_bytes(), 0u);
}

// ---- Message round-trips ----------------------------------------------------

TEST(WireMessagesTest, EstimateRequestRoundTrips) {
  const EstimateRequest req = MakeRequest();
  WireWriter w;
  EncodeEstimateRequest(req, w);
  WireError error = WireError::kNone;
  auto got = DecodeEstimateRequestPayload(w.bytes(), &error);
  ASSERT_TRUE(got.has_value()) << ToString(error);
  EXPECT_EQ(got->site, req.site);
  EXPECT_EQ(got->class_id, req.class_id);
  EXPECT_EQ(got->features, req.features);
  EXPECT_DOUBLE_EQ(got->probing_cost, req.probing_cost);
}

TEST(WireMessagesTest, NegativeProbingCostSentinelSurvives) {
  EstimateRequest req = MakeRequest();
  req.probing_cost = -1.0;  // "use the site's cached probe"
  WireWriter w;
  EncodeEstimateRequest(req, w);
  WireError error = WireError::kNone;
  auto got = DecodeEstimateRequestPayload(w.bytes(), &error);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->probing_cost, -1.0);
}

TEST(WireMessagesTest, EstimateResponseRoundTrips) {
  const EstimateResponse resp = MakeResponse();
  WireWriter w;
  EncodeEstimateResponse(resp, w);
  auto got = DecodeEstimateResponsePayload(w.bytes());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, resp.status);
  EXPECT_DOUBLE_EQ(got->estimate_seconds, resp.estimate_seconds);
  EXPECT_DOUBLE_EQ(got->probing_cost, resp.probing_cost);
  EXPECT_EQ(got->state, resp.state);
  EXPECT_EQ(got->stale_probe, resp.stale_probe);
  EXPECT_EQ(got->stale_model, resp.stale_model);
  EXPECT_EQ(got->degraded, resp.degraded);
}

TEST(WireMessagesTest, AllStatusesRoundTrip) {
  for (const EstimateStatus status :
       {EstimateStatus::kOk, EstimateStatus::kNoModel, EstimateStatus::kNoProbe,
        EstimateStatus::kInvalidRequest}) {
    EstimateResponse resp = MakeResponse();
    resp.status = status;
    WireWriter w;
    EncodeEstimateResponse(resp, w);
    auto got = DecodeEstimateResponsePayload(w.bytes());
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->status, status);
  }
}

TEST(WireMessagesTest, BatchRoundTrips) {
  std::vector<EstimateRequest> requests;
  for (int i = 0; i < 7; ++i) {
    EstimateRequest req = MakeRequest();
    req.site = "site" + std::to_string(i);
    req.features[0] = i;
    requests.push_back(std::move(req));
  }
  WireError error = WireError::kNone;
  auto got =
      DecodeEstimateBatchRequestPayload(EncodeEstimateBatchRequest(requests),
                                        &error);
  ASSERT_TRUE(got.has_value()) << ToString(error);
  ASSERT_EQ(got->size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ((*got)[i].site, requests[i].site);
    EXPECT_EQ((*got)[i].features, requests[i].features);
  }

  std::vector<EstimateResponse> responses(3, MakeResponse());
  responses[1].status = EstimateStatus::kNoModel;
  auto got_resp = DecodeEstimateBatchResponsePayload(
      EncodeEstimateBatchResponse(responses));
  ASSERT_TRUE(got_resp.has_value());
  ASSERT_EQ(got_resp->size(), 3u);
  EXPECT_EQ((*got_resp)[1].status, EstimateStatus::kNoModel);
}

TEST(WireMessagesTest, PlacementRoundTrips) {
  std::vector<PlacementCandidate> candidates(3);
  for (int i = 0; i < 3; ++i) {
    candidates[i].request = MakeRequest();
    candidates[i].request.site = "site" + std::to_string(i);
    candidates[i].shipping_seconds = 0.25 * i;
  }
  WireError error = WireError::kNone;
  auto got =
      DecodePlacementRequestPayload(EncodePlacementRequest(candidates), &error);
  ASSERT_TRUE(got.has_value()) << ToString(error);
  ASSERT_EQ(got->size(), 3u);
  EXPECT_DOUBLE_EQ((*got)[2].shipping_seconds, 0.5);

  PlacementResult result;
  result.chosen = 1;
  result.responses = {MakeResponse(), MakeResponse()};
  result.total_seconds = {1.5, 0.75};
  auto got_result =
      DecodePlacementResponsePayload(EncodePlacementResponse(result));
  ASSERT_TRUE(got_result.has_value());
  EXPECT_EQ(got_result->chosen, 1);
  ASSERT_EQ(got_result->responses.size(), 2u);
  ASSERT_EQ(got_result->total_seconds.size(), 2u);
  EXPECT_DOUBLE_EQ(got_result->total_seconds[1], 0.75);
}

TEST(WireMessagesTest, PlacementOptionsRoundTrip) {
  std::vector<PlacementCandidate> candidates(2);
  for (int i = 0; i < 2; ++i) candidates[i].request = MakeRequest();
  runtime::PlacementOptions sent;
  sent.ranking.policy = core::PlacementPolicy::kRiskAdjusted;
  sent.ranking.risk_lambda = 1.25;
  sent.ranking.boundary_band_fraction = 0.05;

  WireError error = WireError::kNone;
  runtime::PlacementOptions got_options;
  auto got = DecodePlacementRequestPayload(
      EncodePlacementRequest(candidates, sent), &error, &got_options);
  ASSERT_TRUE(got.has_value()) << ToString(error);
  EXPECT_EQ(got_options.ranking.policy, core::PlacementPolicy::kRiskAdjusted);
  EXPECT_DOUBLE_EQ(got_options.ranking.risk_lambda, 1.25);
  EXPECT_DOUBLE_EQ(got_options.ranking.boundary_band_fraction, 0.05);
}

TEST(WireMessagesTest, PlacementDistributionsRoundTrip) {
  PlacementResult result;
  result.policy = core::PlacementPolicy::kExpectedCost;
  result.chosen = 0;
  result.responses = {MakeResponse(), MakeResponse()};
  result.total_seconds = {1.5, 0.75};
  core::CostDistribution d0;
  d0.mean = 2.0;
  d0.low = 1.0;
  d0.high = 3.5;
  d0.has_interval = true;
  d0.stale = true;
  core::CostDistribution d1;
  d1.mean = 4.0;
  d1.low = 4.0;
  d1.high = 4.0;
  d1.degraded = true;
  result.distributions = {d0, d1};
  result.scores = {2.75, std::numeric_limits<double>::infinity()};

  auto got = DecodePlacementResponsePayload(EncodePlacementResponse(result));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->policy, core::PlacementPolicy::kExpectedCost);
  ASSERT_EQ(got->distributions.size(), 2u);
  EXPECT_DOUBLE_EQ(got->distributions[0].mean, 2.0);
  EXPECT_DOUBLE_EQ(got->distributions[0].low, 1.0);
  EXPECT_DOUBLE_EQ(got->distributions[0].high, 3.5);
  EXPECT_TRUE(got->distributions[0].has_interval);
  EXPECT_TRUE(got->distributions[0].stale);
  EXPECT_FALSE(got->distributions[0].degraded);
  EXPECT_TRUE(got->distributions[1].degraded);
  ASSERT_EQ(got->scores.size(), 2u);
  EXPECT_DOUBLE_EQ(got->scores[0], 2.75);
  EXPECT_TRUE(std::isinf(got->scores[1]));  // unservable: +inf is legal
}

TEST(WireMessagesTest, UnplacedResultRoundTripsChosenMinusOne) {
  PlacementResult result;
  result.chosen = -1;
  result.responses = {MakeResponse()};
  result.responses[0].status = EstimateStatus::kNoModel;
  result.total_seconds = {std::numeric_limits<double>::infinity()};
  result.distributions = {core::CostDistribution{}};
  result.scores = {std::numeric_limits<double>::infinity()};
  auto got = DecodePlacementResponsePayload(EncodePlacementResponse(result));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->chosen, -1);
  EXPECT_EQ(got->responses[0].status, EstimateStatus::kNoModel);
}

TEST(WireMessagesTest, ErrorBodyRoundTrips) {
  auto got = DecodeErrorBodyPayload(
      EncodeErrorBody({WireError::kOverloaded, "shed: 256 in flight"}));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->code, WireError::kOverloaded);
  EXPECT_EQ(got->message, "shed: 256 in flight");
}

TEST(WireMessagesTest, ErrorFrameEchoesRequestId) {
  const auto bytes = EncodeErrorFrame(77, WireError::kShuttingDown, "bye");
  FrameAssembler a;
  ASSERT_TRUE(a.Feed(bytes.data(), bytes.size()));
  auto frame = a.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, static_cast<uint8_t>(MessageType::kError));
  EXPECT_EQ(frame->request_id, 77u);
  auto body = DecodeErrorBodyPayload(frame->payload);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->code, WireError::kShuttingDown);
}

TEST(WireMessagesTest, AppendFrameWritesAfterQueuedBytes) {
  // As the server queues a pipelined response behind one not yet sent.
  std::vector<uint8_t> out = EncodeFrame(MessageType::kStatsRequest, 1, {});
  std::vector<uint8_t> expected = out;
  const std::vector<uint8_t> payload = {7, 8, 9};
  AppendFrame(&out, MessageType::kEstimateRequest, 2, payload.size(),
              [&](WireWriter& w) {
                w.PutBytes(payload.data(), payload.size());
              });
  const std::vector<uint8_t> second =
      EncodeFrame(MessageType::kEstimateRequest, 2, payload);
  expected.insert(expected.end(), second.begin(), second.end());
  EXPECT_EQ(out, expected);  // both frames whole, no reserved room left over
}

// ---- Generation extension + feedback reports --------------------------------

runtime::FeedbackReport MakeReport() {
  runtime::FeedbackReport report;
  report.site = "site2";
  report.class_id = core::QueryClassId::kJoinNoIndex;
  report.features = {4.0, 2.0, 1.5};
  report.actual_cost = 0.375;
  report.probing_cost = 1.25;
  report.model_generation = 9;
  return report;
}

TEST(WireGenerationTest, SingleResponseCarriesGeneration) {
  EstimateResponse resp = MakeResponse();
  resp.model_generation = 42;
  auto got = DecodeEstimateResponsePayload(EncodeEstimateResponsePayload(resp));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->model_generation, 42u);
}

TEST(WireGenerationTest, LegacyResponseWithoutExtensionDecodesToGenerationZero) {
  // A pre-extension peer encodes only the base response body.
  EstimateResponse resp = MakeResponse();
  resp.model_generation = 42;  // must NOT survive the legacy encoding
  WireWriter w;
  EncodeEstimateResponse(resp, w);
  auto got = DecodeEstimateResponsePayload(w.bytes());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->model_generation, 0u);
}

TEST(WireGenerationTest, BatchResponsesCarryPerItemGenerations) {
  std::vector<EstimateResponse> responses(3, MakeResponse());
  responses[0].model_generation = 1;
  responses[1].model_generation = 0;
  responses[2].model_generation = 7;
  auto got = DecodeEstimateBatchResponsePayload(
      EncodeEstimateBatchResponse(responses));
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->size(), 3u);
  EXPECT_EQ((*got)[0].model_generation, 1u);
  EXPECT_EQ((*got)[1].model_generation, 0u);
  EXPECT_EQ((*got)[2].model_generation, 7u);
}

TEST(WireGenerationTest, PartialBatchGenerationExtensionFailsClosed) {
  std::vector<EstimateResponse> responses(3, MakeResponse());
  auto bytes = EncodeEstimateBatchResponse(responses);
  // Drop one u64 from the generation extension: neither a legacy frame
  // (extension absent) nor a complete one.
  bytes.resize(bytes.size() - 8);
  EXPECT_FALSE(DecodeEstimateBatchResponsePayload(bytes).has_value());
}

TEST(WireGenerationTest, PlacementResponsesCarryGenerations) {
  PlacementResult result;
  result.chosen = 0;
  result.responses = {MakeResponse(), MakeResponse()};
  result.responses[0].model_generation = 3;
  result.responses[1].model_generation = 11;
  result.total_seconds = {1.0, 2.0};
  auto got = DecodePlacementResponsePayload(EncodePlacementResponse(result));
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->responses.size(), 2u);
  EXPECT_EQ(got->responses[0].model_generation, 3u);
  EXPECT_EQ(got->responses[1].model_generation, 11u);
}

TEST(WireMessagesTest, ReportActualRoundTrips) {
  const runtime::FeedbackReport report = MakeReport();
  WireError error = WireError::kNone;
  auto got = DecodeReportActualPayload(EncodeReportActual(report), &error);
  ASSERT_TRUE(got.has_value()) << ToString(error);
  EXPECT_EQ(got->site, report.site);
  EXPECT_EQ(got->class_id, report.class_id);
  EXPECT_EQ(got->features, report.features);
  EXPECT_DOUBLE_EQ(got->actual_cost, report.actual_cost);
  EXPECT_DOUBLE_EQ(got->probing_cost, report.probing_cost);
  EXPECT_EQ(got->model_generation, report.model_generation);
}

TEST(WireMessagesTest, ReportActualNegativeProbingSentinelSurvives) {
  runtime::FeedbackReport report = MakeReport();
  report.probing_cost = -1.0;  // resolve from the site's cached probe
  auto got = DecodeReportActualPayload(EncodeReportActual(report), nullptr);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->probing_cost, -1.0);
}

TEST(WireMessagesTest, ReportActualAckRoundTrips) {
  EXPECT_EQ(DecodeReportActualAckPayload(EncodeReportActualAck(true)), true);
  EXPECT_EQ(DecodeReportActualAckPayload(EncodeReportActualAck(false)), false);
  EXPECT_FALSE(DecodeReportActualAckPayload({0x02}).has_value());
  EXPECT_FALSE(DecodeReportActualAckPayload({}).has_value());
  EXPECT_FALSE(DecodeReportActualAckPayload({0x01, 0x00}).has_value());
}

TEST(WireValidationTest, ReportActualSemanticViolationsAreInvalidRequest) {
  const auto expect_invalid = [](runtime::FeedbackReport report) {
    WireError error = WireError::kNone;
    EXPECT_FALSE(
        DecodeReportActualPayload(EncodeReportActual(report), &error)
            .has_value());
    EXPECT_EQ(error, WireError::kInvalidRequest);
  };
  {
    runtime::FeedbackReport r = MakeReport();
    r.actual_cost = 0.0;  // feedback must be a priceable observation
    expect_invalid(r);
  }
  {
    runtime::FeedbackReport r = MakeReport();
    r.actual_cost = std::numeric_limits<double>::quiet_NaN();
    expect_invalid(r);
  }
  {
    runtime::FeedbackReport r = MakeReport();
    r.probing_cost = std::numeric_limits<double>::infinity();
    expect_invalid(r);
  }
  {
    runtime::FeedbackReport r = MakeReport();
    r.features[1] = std::numeric_limits<double>::infinity();
    expect_invalid(r);
  }
  {
    runtime::FeedbackReport r = MakeReport();
    r.site.clear();
    expect_invalid(r);
  }
}

TEST(WireValidationTest, ReportActualTruncationAndTrailingAreMalformed) {
  auto bytes = EncodeReportActual(MakeReport());
  WireError error = WireError::kNone;
  auto truncated = bytes;
  truncated.resize(truncated.size() - 3);
  EXPECT_FALSE(DecodeReportActualPayload(truncated, &error).has_value());
  EXPECT_EQ(error, WireError::kMalformedFrame);

  error = WireError::kNone;
  auto trailing = bytes;
  trailing.push_back(0x00);
  EXPECT_FALSE(DecodeReportActualPayload(trailing, &error).has_value());
  EXPECT_EQ(error, WireError::kMalformedFrame);
}

// ---- Golden bytes -----------------------------------------------------------
//
// Round trips cannot see a layout change that the encoder and the decoder
// make together. These literals pin the exact bytes of every served message
// type (the stats payload is pinned by StatsCodecTest.PayloadLayoutIsPinned);
// a change to any of them is a wire-protocol change.

std::string Hex(const std::vector<uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

// A second request unlike MakeRequest(): another class, one feature, and the
// "use the cached probe" sentinel.
EstimateRequest MakeOtherRequest() {
  EstimateRequest req;
  req.site = "s";
  req.class_id = core::QueryClassId::kUnarySeqScan;
  req.features = {0.5};
  req.probing_cost = -1.0;
  return req;
}

EstimateResponse MakeOtherResponse() {
  EstimateResponse resp;
  resp.status = EstimateStatus::kNoProbe;
  resp.state = -1;
  resp.stale_model = true;
  resp.model_generation = 0x0102030405060708ull;
  return resp;
}

TEST(WireGoldenBytesTest, SingleRequestFrame) {
  WireWriter w;
  EncodeEstimateRequest(MakeRequest(), w);
  EXPECT_EQ(Hex(EncodeFrame(MessageType::kEstimateRequest, 0x01020304,
                            w.Take())),
            "434d" "01" "01"            // magic, version, type
            "04030201" "32000000"       // request id, payload length 50
            "0500" "7369746533"         // site "site3"
            "03"                        // class kJoinNoIndex
            "000000000000fc3f"          // probing cost 1.75
            "0400"                      // 4 features: 1, 2.5, -3.25, 1e6
            "000000000000f03f" "0000000000000440"
            "0000000000000ac0" "0000000080842e41");
}

TEST(WireGoldenBytesTest, SingleResponseWithGeneration) {
  EstimateResponse resp = MakeResponse();
  resp.model_generation = 7;
  EXPECT_EQ(Hex(EncodeFrame(MessageType::kEstimateResponse, 0x01020304,
                            EncodeEstimateResponsePayload(resp))),
            "434d" "01" "02" "04030201" "1e000000"
            "00"                        // status kOk
            "000000000000c03f"          // estimate 0.125
            "0000000000000440"          // probing cost 2.5
            "03000000"                  // state 3
            "05"                        // stale_probe | degraded
            "0700000000000000");        // generation 7
}

TEST(WireGoldenBytesTest, BatchRequestAndResponse) {
  EXPECT_EQ(
      Hex(EncodeEstimateBatchRequest({MakeRequest(), MakeOtherRequest()})),
      "02000000"                        // 2 items
      "0500" "7369746533" "03" "000000000000fc3f"
      "0400" "000000000000f03f" "0000000000000440"
      "0000000000000ac0" "0000000080842e41"
      "0100" "73"                       // site "s"
      "00"                              // class kUnarySeqScan
      "000000000000f0bf"                // probing cost -1: cached probe
      "0100" "000000000000e03f");       // 1 feature: 0.5

  EstimateResponse first = MakeResponse();
  first.model_generation = 7;
  EXPECT_EQ(Hex(EncodeEstimateBatchResponse({first, MakeOtherResponse()})),
            "02000000"
            "00" "000000000000c03f" "0000000000000440" "03000000" "05"
            "02"                        // status kNoProbe
            "0000000000000000" "0000000000000000"
            "ffffffff"                  // state -1
            "02"                        // stale_model
            "0700000000000000"          // generations, after the items
            "0807060504030201");
}

TEST(WireGoldenBytesTest, PlacementRequestAndResponseWithExtensions) {
  PlacementCandidate a;
  a.request = MakeRequest();
  a.shipping_seconds = 1.5;
  PlacementCandidate b;
  b.request = MakeOtherRequest();
  b.shipping_seconds = 0.25;
  runtime::PlacementOptions options;
  options.ranking.policy = core::PlacementPolicy::kRiskAdjusted;
  options.ranking.risk_lambda = 2.0;
  options.ranking.boundary_band_fraction = 0.125;
  EXPECT_EQ(Hex(EncodePlacementRequest({a, b}, options)),
            "02000000"
            "0500" "7369746533" "03" "000000000000fc3f"
            "0400" "000000000000f03f" "0000000000000440"
            "0000000000000ac0" "0000000080842e41"
            "000000000000f83f"          // shipping 1.5
            "0100" "73" "00" "000000000000f0bf" "0100" "000000000000e03f"
            "000000000000d03f"          // shipping 0.25
            "02"                        // extension: kRiskAdjusted
            "0000000000000040"          // risk lambda 2
            "000000000000c03f");        // band fraction 0.125

  PlacementResult result;
  result.chosen = 1;
  result.policy = core::PlacementPolicy::kExpectedCost;
  result.responses = {MakeResponse(), MakeOtherResponse()};
  result.responses[0].model_generation = 7;
  result.total_seconds = {3.0, std::numeric_limits<double>::infinity()};
  core::CostDistribution d;
  d.mean = 2.0;
  d.low = 1.0;
  d.high = 3.0;
  d.has_interval = true;
  d.stale = true;
  core::CostDistribution e;
  e.degraded = true;
  result.distributions = {d, e};
  result.scores = {2.5, std::numeric_limits<double>::infinity()};
  EXPECT_EQ(Hex(EncodePlacementResponse(result)),
            "01000000" "02000000"       // chosen 1, 2 candidates
            "00" "000000000000c03f" "0000000000000440" "03000000" "05"
            "0000000000000840"          // total 3
            "02" "0000000000000000" "0000000000000000" "ffffffff" "02"
            "000000000000f07f"          // total +inf
            "01"                        // extension: kExpectedCost
            "0000000000000040"          // mean 2
            "000000000000f03f"          // low 1
            "0000000000000840"          // high 3
            "05"                        // stale | has_interval
            "0000000000000440"          // score 2.5
            "0000000000000000" "0000000000000000" "0000000000000000"
            "02"                        // degraded
            "000000000000f07f"          // score +inf
            "0700000000000000"          // second extension: generations
            "0807060504030201");
}

TEST(WireGoldenBytesTest, ReportActualFrameAndAck) {
  EXPECT_EQ(Hex(EncodeFrame(MessageType::kReportActual, 0x0A0B0C0D,
                            EncodeReportActual(MakeReport()))),
            "434d" "01" "0a" "0d0c0b0a" "3a000000"
            "0500" "7369746532"         // site "site2"
            "03"                        // class kJoinNoIndex
            "000000000000d83f"          // actual cost 0.375
            "000000000000f43f"          // probing cost 1.25
            "0900000000000000"          // generation 9
            "0300"                      // 3 features: 4, 2, 1.5
            "0000000000001040" "0000000000000040" "000000000000f83f");
  EXPECT_EQ(Hex(EncodeFrame(MessageType::kReportActualAck, 0x0A0B0C0D,
                            EncodeReportActualAck(true))),
            "434d" "01" "0b" "0d0c0b0a" "01000000" "01");
}

TEST(WireGoldenBytesTest, ErrorFrame) {
  EXPECT_EQ(Hex(EncodeErrorFrame(0xFFFFFFFEu, WireError::kOverloaded,
                                 "server overloaded")),
            "434d" "01" "09" "feffffff" "14000000"
            "05"                        // kOverloaded
            "1100" "736572766572206f7665726c6f61646564");
}

// ---- Semantic boundary rejection -------------------------------------------

TEST(WireValidationTest, NonFiniteFeatureIsInvalidRequest) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EstimateRequest req = MakeRequest();
    req.features[1] = bad;
    WireWriter w;
    EncodeEstimateRequest(req, w);
    WireError error = WireError::kNone;
    EXPECT_FALSE(DecodeEstimateRequestPayload(w.bytes(), &error).has_value());
    EXPECT_EQ(error, WireError::kInvalidRequest);
  }
}

TEST(WireValidationTest, NonFiniteProbingCostIsInvalidRequest) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    EstimateRequest req = MakeRequest();
    req.probing_cost = bad;
    WireWriter w;
    EncodeEstimateRequest(req, w);
    WireError error = WireError::kNone;
    EXPECT_FALSE(DecodeEstimateRequestPayload(w.bytes(), &error).has_value());
    EXPECT_EQ(error, WireError::kInvalidRequest);
  }
}

TEST(WireValidationTest, ClassIdPastEnumIsInvalidRequest) {
  EstimateRequest req = MakeRequest();
  WireWriter w;
  EncodeEstimateRequest(req, w);
  std::vector<uint8_t> payload = w.bytes();
  // The class byte follows the u16-prefixed site string.
  const size_t class_off = 2 + req.site.size();
  ASSERT_LT(class_off, payload.size());
  payload[class_off] = 250;
  WireError error = WireError::kNone;
  EXPECT_FALSE(DecodeEstimateRequestPayload(payload, &error).has_value());
  EXPECT_EQ(error, WireError::kInvalidRequest);
}

TEST(WireValidationTest, EmptyBatchIsInvalidRequest) {
  WireError error = WireError::kNone;
  EXPECT_FALSE(
      DecodeEstimateBatchRequestPayload(EncodeEstimateBatchRequest({}), &error)
          .has_value());
  EXPECT_EQ(error, WireError::kInvalidRequest);
}

TEST(WireValidationTest, EmptyPlacementIsInvalidRequest) {
  WireError error = WireError::kNone;
  EXPECT_FALSE(
      DecodePlacementRequestPayload(EncodePlacementRequest({}), &error)
          .has_value());
  EXPECT_EQ(error, WireError::kInvalidRequest);
}

// The placement-options extension is append-only: a frame ending at the
// legacy layout decodes with default options.
TEST(WireValidationTest, LegacyPlacementFramesDecodeToDefaultOptions) {
  std::vector<PlacementCandidate> candidates(2);
  for (int i = 0; i < 2; ++i) candidates[i].request = MakeRequest();
  std::vector<uint8_t> legacy = EncodePlacementRequest(candidates);
  legacy.resize(legacy.size() - 17);  // strip u8 policy + two f64 knobs

  WireError error = WireError::kNone;
  runtime::PlacementOptions options;
  options.ranking.policy = core::PlacementPolicy::kRiskAdjusted;  // sentinel
  auto got = DecodePlacementRequestPayload(legacy, &error, &options);
  ASSERT_TRUE(got.has_value()) << ToString(error);
  ASSERT_EQ(got->size(), 2u);
  EXPECT_EQ(options.ranking.policy, core::PlacementPolicy::kPointEstimate);
  EXPECT_DOUBLE_EQ(options.ranking.risk_lambda,
                   core::PlacementRanking{}.risk_lambda);
}

TEST(WireValidationTest, BadPlacementExtensionFailsClosed) {
  std::vector<PlacementCandidate> candidates(1);
  candidates[0].request = MakeRequest();
  std::vector<uint8_t> legacy = EncodePlacementRequest(candidates);
  legacy.resize(legacy.size() - 17);

  const auto with_extension = [&legacy](uint8_t policy, double lambda,
                                        double band) {
    WireWriter w;
    w.PutU8(policy);
    w.PutF64(lambda);
    w.PutF64(band);
    std::vector<uint8_t> payload = legacy;
    payload.insert(payload.end(), w.bytes().begin(), w.bytes().end());
    return payload;
  };

  const struct {
    std::vector<uint8_t> payload;
    WireError want;
    const char* what;
  } cases[] = {
      {with_extension(7, 0.5, 0.1), WireError::kInvalidRequest,
       "unknown policy byte"},
      {with_extension(1, std::nan(""), 0.1), WireError::kInvalidRequest,
       "NaN risk lambda"},
      {with_extension(1, -0.5, 0.1), WireError::kInvalidRequest,
       "negative risk lambda"},
      {with_extension(2, 0.5, 1.5), WireError::kInvalidRequest,
       "band fraction above 1"},
  };
  for (const auto& c : cases) {
    WireError error = WireError::kNone;
    EXPECT_FALSE(
        DecodePlacementRequestPayload(c.payload, &error).has_value())
        << c.what;
    EXPECT_EQ(error, c.want) << c.what;
  }

  // Extension present but truncated: structural, not semantic.
  std::vector<uint8_t> cut = with_extension(1, 0.5, 0.1);
  cut.resize(cut.size() - 4);
  WireError error = WireError::kNone;
  EXPECT_FALSE(DecodePlacementRequestPayload(cut, &error).has_value());
  EXPECT_EQ(error, WireError::kMalformedFrame);
}

TEST(WireValidationTest, PlacementResponseRejectsInvertedInterval) {
  PlacementResult result;
  result.chosen = 0;
  result.responses = {MakeResponse()};
  result.total_seconds = {1.0};
  core::CostDistribution d;
  d.mean = 2.0;
  d.low = 3.0;  // low > high: no decoder should accept this
  d.high = 1.0;
  result.distributions = {d};
  result.scores = {1.0};
  EXPECT_FALSE(DecodePlacementResponsePayload(EncodePlacementResponse(result))
                   .has_value());
}

TEST(WireValidationTest, OversizedSiteNameIsInvalidRequest) {
  // A well-formed name past the cap is a request the boundary refuses, not
  // broken bytes.
  const std::string long_site(kMaxSiteNameBytes + 44, 'x');
  EstimateRequest req = MakeRequest();
  req.site = long_site;
  WireError error = WireError::kNone;
  {
    WireWriter w;
    EncodeEstimateRequest(req, w);
    EXPECT_FALSE(DecodeEstimateRequestPayload(w.bytes(), &error).has_value());
    EXPECT_EQ(error, WireError::kInvalidRequest);
  }
  error = WireError::kNone;
  EXPECT_FALSE(DecodeEstimateBatchRequestPayload(
                   EncodeEstimateBatchRequest({MakeRequest(), req}), &error)
                   .has_value());
  EXPECT_EQ(error, WireError::kInvalidRequest);

  PlacementCandidate candidate;
  candidate.request = req;
  candidate.shipping_seconds = 1.0;
  error = WireError::kNone;
  EXPECT_FALSE(
      DecodePlacementRequestPayload(EncodePlacementRequest({candidate}), &error)
          .has_value());
  EXPECT_EQ(error, WireError::kInvalidRequest);

  runtime::FeedbackReport report = MakeReport();
  report.site = long_site;
  error = WireError::kNone;
  EXPECT_FALSE(
      DecodeReportActualPayload(EncodeReportActual(report), &error)
          .has_value());
  EXPECT_EQ(error, WireError::kInvalidRequest);

  // A name of exactly the cap passes.
  req.site = std::string(kMaxSiteNameBytes, 'x');
  {
    WireWriter w;
    EncodeEstimateRequest(req, w);
    const auto got = DecodeEstimateRequestPayload(w.bytes(), &error);
    ASSERT_TRUE(got.has_value()) << ToString(error);
    EXPECT_EQ(got->site, req.site);
  }

  // A length prefix that runs past the payload end stays broken bytes.
  WireWriter truncated;
  truncated.PutU16(static_cast<uint16_t>(long_site.size()));
  truncated.PutU8('x');
  error = WireError::kNone;
  EXPECT_FALSE(
      DecodeEstimateRequestPayload(truncated.bytes(), &error).has_value());
  EXPECT_EQ(error, WireError::kMalformedFrame);
  error = WireError::kNone;
  EXPECT_FALSE(
      DecodeReportActualPayload(truncated.bytes(), &error).has_value());
  EXPECT_EQ(error, WireError::kMalformedFrame);
  WireWriter truncated_batch;
  truncated_batch.PutU32(1);
  truncated_batch.PutU16(static_cast<uint16_t>(long_site.size()));
  truncated_batch.PutU8('x');
  for (const bool placement : {false, true}) {
    error = WireError::kNone;
    const bool decoded =
        placement ? DecodePlacementRequestPayload(truncated_batch.bytes(),
                                                  &error)
                        .has_value()
                  : DecodeEstimateBatchRequestPayload(truncated_batch.bytes(),
                                                      &error)
                        .has_value();
    EXPECT_FALSE(decoded);
    EXPECT_EQ(error, WireError::kMalformedFrame);
  }
}

TEST(WireValidationTest, OversizedCountsAreInvalidRequest) {
  // A batch count past kMaxBatchItems must be rejected before any attempt
  // to reserve toward it.
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(kMaxBatchItems + 1));
  WireError error = WireError::kNone;
  EXPECT_FALSE(
      DecodeEstimateBatchRequestPayload(w.bytes(), &error).has_value());
  EXPECT_EQ(error, WireError::kInvalidRequest);

  WireWriter wf;
  wf.PutString("site0");
  wf.PutU8(0);
  wf.PutF64(1.0);
  wf.PutU32(static_cast<uint32_t>(kMaxFeatures + 1));
  error = WireError::kNone;
  EXPECT_FALSE(DecodeEstimateRequestPayload(wf.bytes(), &error).has_value());
  EXPECT_EQ(error, WireError::kInvalidRequest);
}

TEST(WireValidationTest, TruncationIsMalformedNotInvalid) {
  const EstimateRequest req = MakeRequest();
  WireWriter w;
  EncodeEstimateRequest(req, w);
  std::vector<uint8_t> payload = w.bytes();
  for (const size_t cut : {payload.size() - 1, payload.size() / 2, size_t{1}}) {
    const std::vector<uint8_t> truncated(payload.begin(),
                                         payload.begin() + cut);
    WireError error = WireError::kNone;
    EXPECT_FALSE(DecodeEstimateRequestPayload(truncated, &error).has_value());
    EXPECT_EQ(error, WireError::kMalformedFrame) << "cut at " << cut;
  }
}

TEST(WireValidationTest, TrailingBytesAreMalformed) {
  const EstimateRequest req = MakeRequest();
  WireWriter w;
  EncodeEstimateRequest(req, w);
  std::vector<uint8_t> payload = w.bytes();
  payload.push_back(0x00);
  WireError error = WireError::kNone;
  EXPECT_FALSE(DecodeEstimateRequestPayload(payload, &error).has_value());
  EXPECT_EQ(error, WireError::kMalformedFrame);
}

// ---- Stats codec ------------------------------------------------------------

runtime::RuntimeStatsSnapshot MakeFullSnapshot() {
  runtime::RuntimeStatsSnapshot snap;
  // Give every scalar field a distinct nonzero value through the wire-field
  // tables, so the round-trip check cannot pass on accidental zeros.
  uint64_t v = 1000;
  for (const auto& f : runtime::StatsCounterFields()) snap.*(f.field) = ++v;
  for (const auto& f : runtime::StatsGaugeFields()) {
    snap.*(f.field) = -static_cast<int64_t>(++v);
  }
  snap.estimate_latency.count = 99;
  snap.estimate_latency.mean_seconds = 0.001;
  snap.estimate_latency.p50_seconds = 0.0005;
  snap.estimate_latency.p90_seconds = 0.002;
  snap.estimate_latency.p99_seconds = 0.004;
  snap.estimate_latency.max_bucket_seconds = 0.008;
  snap.probe_latency.count = 17;
  snap.probe_latency.mean_seconds = 0.25;
  snap.probe_latency.p50_seconds = 0.125;
  snap.probe_latency.p90_seconds = 0.5;
  snap.probe_latency.p99_seconds = 1.0;
  snap.probe_latency.max_bucket_seconds = 2.0;
  return snap;
}

TEST(StatsCodecTest, RoundTripsEveryScalarField) {
  const runtime::RuntimeStatsSnapshot snap = MakeFullSnapshot();
  auto wire = DecodeStatsPayload(EncodeStats(snap));
  ASSERT_TRUE(wire.has_value());
  const runtime::RuntimeStatsSnapshot back = ToSnapshot(*wire);

  for (const auto& f : runtime::StatsCounterFields()) {
    EXPECT_EQ(back.*(f.field), snap.*(f.field)) << f.name;
  }
  for (const auto& f : runtime::StatsGaugeFields()) {
    EXPECT_EQ(back.*(f.field), snap.*(f.field)) << f.name;
  }
  for (const auto& f : runtime::StatsHistogramFields()) {
    const auto& orig = snap.*(f.field);
    const auto& got = back.*(f.field);
    EXPECT_EQ(got.count, orig.count) << f.name;
    EXPECT_DOUBLE_EQ(got.mean_seconds, orig.mean_seconds) << f.name;
    EXPECT_DOUBLE_EQ(got.p50_seconds, orig.p50_seconds) << f.name;
    EXPECT_DOUBLE_EQ(got.p90_seconds, orig.p90_seconds) << f.name;
    EXPECT_DOUBLE_EQ(got.p99_seconds, orig.p99_seconds) << f.name;
    EXPECT_DOUBLE_EQ(got.max_bucket_seconds, orig.max_bucket_seconds)
        << f.name;
  }
}

// The runtime's stats keys are a wire contract: names, order and type tags.
// The list is spelled out here, not read from the field tables, so renaming,
// reordering or retyping a row fails this test.
TEST(StatsCodecTest, PayloadLayoutIsPinned) {
  constexpr uint8_t kU64 = 0;
  constexpr uint8_t kF64 = 1;
  const std::vector<std::pair<std::string, uint8_t>> expected = {
      {"requests", kU64},
      {"batches", kU64},
      {"probe_cache_hits", kU64},
      {"probe_cache_stale", kU64},
      {"probe_cache_misses", kU64},
      {"no_model", kU64},
      {"probes", kU64},
      {"probe_failures", kU64},
      {"probe_discards", kU64},
      {"probe_timeouts", kU64},
      {"probes_suppressed", kU64},
      {"breaker_opens", kU64},
      {"degraded_sites", kU64},
      {"degraded_served", kU64},
      {"invalid_requests", kU64},
      {"catalog_swaps", kU64},
      {"stale_model_served", kU64},
      {"stale_models", kU64},
      {"estimate_cache_hits", kU64},
      {"estimate_cache_misses", kU64},
      {"estimate_cache_invalidations", kU64},
      {"placements", kU64},
      {"placement_expected_cost_wins", kU64},
      {"near_boundary_sites", kU64},
      {"adaptations_applied", kU64},
      {"sites_retired", kU64},
      {"probe_interval_ns", kF64},
      {"estimate_latency.count", kU64},
      {"estimate_latency.mean_s", kF64},
      {"estimate_latency.p50_s", kF64},
      {"estimate_latency.p90_s", kF64},
      {"estimate_latency.p99_s", kF64},
      {"estimate_latency.max_s", kF64},
      {"probe_latency.count", kU64},
      {"probe_latency.mean_s", kF64},
      {"probe_latency.p50_s", kF64},
      {"probe_latency.p90_s", kF64},
      {"probe_latency.p99_s", kF64},
      {"probe_latency.max_s", kF64},
  };
  ASSERT_EQ(expected.size(), 39u);

  const std::vector<uint8_t> payload = EncodeStats(MakeFullSnapshot());
  WireReader r(payload);
  ASSERT_EQ(r.TakeU32(), expected.size());
  for (const auto& [key, tag] : expected) {
    EXPECT_EQ(r.TakeString(kMaxStatsKeyBytes), key);
    EXPECT_EQ(r.TakeU8(), tag) << key;
    (void)r.TakeU64();  // both tags carry 8 value bytes
    ASSERT_TRUE(r.ok()) << key;
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(StatsCodecTest, ExtraCountersDecodeLikeAnyOther) {
  runtime::RuntimeStatsSnapshot snap;
  snap.requests = 5;
  auto wire = DecodeStatsPayload(
      EncodeStats(snap, {{"net.frames_received", 123},
                         {"net.overload_shed", 9}}));
  ASSERT_TRUE(wire.has_value());
  EXPECT_EQ(wire->counters.at("net.frames_received"), 123u);
  EXPECT_EQ(wire->counters.at("net.overload_shed"), 9u);
  EXPECT_EQ(wire->counters.at("requests"), 5u);
}

TEST(StatsCodecTest, UnknownKeysArePreservedNotFatal) {
  // Simulates a *newer* server: append an extra entry to a valid payload
  // and bump the count — an old client must still decode.
  runtime::RuntimeStatsSnapshot snap;
  std::vector<uint8_t> payload = EncodeStats(snap);
  WireWriter extra;
  extra.PutString("counter_from_the_future");
  extra.PutU8(0);  // u64 tag
  extra.PutU64(42);
  payload.insert(payload.end(), extra.bytes().begin(), extra.bytes().end());
  uint32_t count;
  std::memcpy(&count, payload.data(), sizeof(count));
  ++count;
  std::memcpy(payload.data(), &count, sizeof(count));

  auto wire = DecodeStatsPayload(payload);
  ASSERT_TRUE(wire.has_value());
  EXPECT_EQ(wire->counters.at("counter_from_the_future"), 42u);
  // ...and ToSnapshot simply ignores it.
  (void)ToSnapshot(*wire);
}

TEST(StatsCodecTest, StructuralViolationsAreRejected) {
  runtime::RuntimeStatsSnapshot snap;
  const std::vector<uint8_t> payload = EncodeStats(snap);

  // Truncation at every prefix length must fail cleanly, never crash.
  for (size_t cut = 0; cut < payload.size(); cut += 7) {
    const std::vector<uint8_t> truncated(payload.begin(),
                                         payload.begin() + cut);
    EXPECT_FALSE(DecodeStatsPayload(truncated).has_value()) << cut;
  }

  // Trailing garbage.
  std::vector<uint8_t> trailing = payload;
  trailing.push_back(0xFF);
  EXPECT_FALSE(DecodeStatsPayload(trailing).has_value());

  // Entry count past the cap.
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(kMaxStatsEntries + 1));
  EXPECT_FALSE(DecodeStatsPayload(w.bytes()).has_value());
}

// ---- Fuzzing ----------------------------------------------------------------

// Random bytes must never crash, over-read, or loop: either frames come out
// or the stream breaks. (ASan/TSan make violations fatal in tier 2.)
TEST(WireFuzzTest, RandomBytesIntoAssembler) {
  Rng rng(20260809);
  for (int trial = 0; trial < 200; ++trial) {
    FrameAssembler a;
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 4096));
    std::vector<uint8_t> bytes(n);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    // Feed in random-size chunks.
    size_t off = 0;
    while (off < bytes.size() && !a.broken()) {
      const size_t chunk = static_cast<size_t>(
          rng.UniformInt(1, 64));
      const size_t take = std::min(chunk, bytes.size() - off);
      a.Feed(bytes.data() + off, take);
      off += take;
      while (a.Next().has_value()) {
      }
    }
  }
}

// Valid frames with random single-byte mutations: decoders must fail closed
// or produce a (possibly different) valid message — never crash.
TEST(WireFuzzTest, MutatedValidFramesNeverCrashDecoders) {
  Rng rng(777);
  const EstimateRequest req = MakeRequest();
  WireWriter w;
  EncodeEstimateRequest(req, w);
  const std::vector<uint8_t> base_payload = w.bytes();
  const std::vector<uint8_t> base_frame =
      EncodeFrame(MessageType::kEstimateRequest, 1, base_payload);

  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> frame = base_frame;
    const int mutations = static_cast<int>(rng.UniformInt(1, 4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos =
          static_cast<size_t>(rng.UniformInt(0, frame.size() - 1));
      frame[pos] = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    FrameAssembler a;
    a.Feed(frame.data(), frame.size());
    while (auto f = a.Next()) {
      WireError error = WireError::kNone;
      (void)DecodeEstimateRequestPayload(f->payload, &error);
      (void)DecodeEstimateBatchRequestPayload(f->payload, &error);
      (void)DecodePlacementRequestPayload(f->payload, &error);
      (void)DecodeEstimateResponsePayload(f->payload);
      (void)DecodeReportActualPayload(f->payload, &error);
      (void)DecodeReportActualAckPayload(f->payload);
      (void)DecodeErrorBodyPayload(f->payload);
      (void)DecodeStatsPayload(f->payload);
    }
  }
}

// Random truncations of every message type's valid payload.
TEST(WireFuzzTest, TruncatedPayloadsFailClosed) {
  Rng rng(4242);
  std::vector<std::vector<uint8_t>> payloads;
  {
    WireWriter w;
    EncodeEstimateRequest(MakeRequest(), w);
    payloads.push_back(w.bytes());
  }
  {
    WireWriter w;
    EncodeEstimateResponse(MakeResponse(), w);
    payloads.push_back(w.bytes());
  }
  payloads.push_back(
      EncodeEstimateBatchRequest({MakeRequest(), MakeRequest()}));
  payloads.push_back(
      EncodeEstimateBatchResponse({MakeResponse(), MakeResponse()}));
  {
    PlacementCandidate c;
    c.request = MakeRequest();
    c.shipping_seconds = 1.0;
    payloads.push_back(EncodePlacementRequest({c, c}));
    // Non-default ranking exercises truncation points inside the
    // append-only options extension.
    runtime::PlacementOptions options;
    options.ranking.policy = core::PlacementPolicy::kRiskAdjusted;
    options.ranking.risk_lambda = 2.0;
    payloads.push_back(EncodePlacementRequest({c, c}, options));
  }
  {
    PlacementResult result;
    result.chosen = 0;
    result.responses = {MakeResponse()};
    result.total_seconds = {1.0};
    core::CostDistribution d;
    d.mean = 2.0;
    d.low = 1.0;
    d.high = 3.0;
    d.has_interval = true;
    result.distributions = {d};
    result.scores = {2.0};
    result.policy = core::PlacementPolicy::kExpectedCost;
    payloads.push_back(EncodePlacementResponse(result));
  }
  payloads.push_back(EncodeReportActual(MakeReport()));
  payloads.push_back(EncodeReportActualAck(true));
  payloads.push_back(EncodeErrorBody({WireError::kInternal, "boom"}));
  payloads.push_back(EncodeStats(runtime::RuntimeStatsSnapshot{}));

  for (const auto& payload : payloads) {
    for (int trial = 0; trial < 64; ++trial) {
      const size_t cut = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(payload.size())));
      if (cut == payload.size()) continue;
      const std::vector<uint8_t> truncated(payload.begin(),
                                           payload.begin() + cut);
      WireError error = WireError::kNone;
      (void)DecodeEstimateRequestPayload(truncated, &error);
      (void)DecodeEstimateBatchRequestPayload(truncated, &error);
      (void)DecodePlacementRequestPayload(truncated, &error);
      (void)DecodeEstimateResponsePayload(truncated);
      (void)DecodeEstimateBatchResponsePayload(truncated);
      (void)DecodePlacementResponsePayload(truncated);
      (void)DecodeReportActualPayload(truncated, &error);
      (void)DecodeReportActualAckPayload(truncated);
      (void)DecodeErrorBodyPayload(truncated);
      (void)DecodeStatsPayload(truncated);
    }
  }
}

}  // namespace
}  // namespace mscm::net
