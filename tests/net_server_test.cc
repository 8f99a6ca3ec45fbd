// Loopback end-to-end tests for the estimation serving boundary: every
// message type over a real socket, wire-boundary validation mapping to typed
// error frames (never exceptions), admission-control shedding, and hostile
// byte streams (garbage, wrong version, unknown type).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/explanatory.h"
#include "net/client.h"
#include "net/served_runtime.h"
#include "net/server.h"
#include "net/wire_format.h"

namespace mscm::net {
namespace {

using runtime::EstimateRequest;
using runtime::EstimateResponse;
using runtime::EstimateStatus;
using runtime::PlacementCandidate;
using runtime::PlacementResult;

ServedRuntimeConfig TestConfig() {
  ServedRuntimeConfig config;
  config.sites = 2;
  config.refresh = false;  // keep tests focused on the wire
  config.probe_interval = std::chrono::milliseconds(0);  // no background probes
  return config;
}

EstimateRequest ValidRequest(const std::string& site = "site0") {
  EstimateRequest req;
  req.site = site;
  req.class_id = core::QueryClassId::kUnarySeqScan;
  const size_t n =
      core::VariableSet::ForClass(core::QueryClassId::kUnarySeqScan).size();
  req.features.assign(n, 2.0);
  req.probing_cost = 1.5;
  return req;
}

class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    served_ = std::make_unique<ServedRuntime>(TestConfig());
    std::string error;
    ASSERT_TRUE(served_->Start(&error)) << error;
    ASSERT_NE(served_->port(), 0);
  }

  std::unique_ptr<ServedRuntime> served_;
};

// A raw loopback socket for byte-level hostile-peer tests (the NetClient
// refuses to send malformed frames, so we go under it). A nonzero `rcvbuf`
// shrinks the receive buffer before connecting, for peers that never read.
class RawConn {
 public:
  explicit RawConn(uint16_t port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ >= 0 && rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof(addr)) == 0;
    timeval tv{5, 0};
    if (connected_) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  // False once the server has closed the connection (no SIGPIPE).
  bool SendAll(const std::vector<uint8_t>& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads until one frame assembles, the peer closes (empty payload,
  // eof=true), or the receive deadline hits. Bytes past the frame stay
  // buffered for the next call, so pipelined answers can be read in turn.
  std::optional<Frame> ReadFrame(bool* eof = nullptr) {
    if (eof != nullptr) *eof = false;
    uint8_t buf[512];
    while (true) {
      if (auto frame = assembler_.Next()) return frame;
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) {
        if (eof != nullptr) *eof = true;
        return std::nullopt;
      }
      if (n < 0) return std::nullopt;
      if (!assembler_.Feed(buf, static_cast<size_t>(n))) return std::nullopt;
    }
  }

  // True if the server closes the connection within the recv deadline. A
  // reset counts as a close: Linux answers close() on a socket that still
  // holds unread input with an RST, so recv fails with ECONNRESET instead
  // of returning 0. A receive timeout is a failure.
  bool WaitForClose() {
    uint8_t buf[512];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return errno == ECONNRESET;
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  FrameAssembler assembler_;
};

std::vector<uint8_t> EstimateFrame(uint32_t request_id) {
  WireWriter w;
  EncodeEstimateRequest(ValidRequest(), w);
  return EncodeFrame(MessageType::kEstimateRequest, request_id, w.bytes());
}

// A well-formed header whose type byte is no MessageType, empty payload.
std::vector<uint8_t> UnknownTypeFrame(uint32_t request_id) {
  WireWriter header;
  header.PutU16(kMagic);
  header.PutU8(kProtocolVersion);
  header.PutU8(200);
  header.PutU32(request_id);
  header.PutU32(0);
  return header.bytes();
}

void Append(std::vector<uint8_t>& bytes, const std::vector<uint8_t>& more) {
  bytes.insert(bytes.end(), more.begin(), more.end());
}

// ---- Happy paths ------------------------------------------------------------

TEST_F(NetServerTest, EstimateOverLoopback) {
  NetClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", served_->port(), &error)) << error;

  EstimateResponse resp;
  const RpcStatus status = client.Estimate(ValidRequest(), &resp);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_EQ(resp.status, EstimateStatus::kOk);
  EXPECT_GT(resp.estimate_seconds, 0.0);
  EXPECT_GE(resp.state, 0);
}

TEST_F(NetServerTest, WireEstimateMatchesInProcessEstimate) {
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", served_->port()));

  const EstimateRequest req = ValidRequest();
  EstimateResponse over_wire;
  ASSERT_TRUE(client.Estimate(req, &over_wire).ok());
  const EstimateResponse in_process = served_->service().Estimate(req);
  EXPECT_EQ(over_wire.status, in_process.status);
  EXPECT_DOUBLE_EQ(over_wire.estimate_seconds, in_process.estimate_seconds);
  EXPECT_EQ(over_wire.state, in_process.state);
}

// A small frame, then the largest pass the wire can hand an IO loop: one
// frame of kMaxBatchItems over both sites and both classes. Every answer
// equals the in-process Estimate of its request in each wire field, the
// estimate bit for bit. TestConfig runs no background probes, so every
// request carries its probing cost.
TEST_F(NetServerTest, BatchOverLoopback) {
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", served_->port()));

  std::vector<EstimateRequest> small;
  for (int i = 0; i < 16; ++i) {
    small.push_back(ValidRequest(i % 2 == 0 ? "site0" : "site1"));
    small.back().features[0] = 1.0 + i;
  }
  std::vector<EstimateRequest> largest;
  Rng rng(8192);
  for (size_t i = 0; i < kMaxBatchItems; ++i) {
    EstimateRequest& request = largest.emplace_back();
    request.site = i % 2 == 0 ? "site0" : "site1";
    request.class_id = (i / 2) % 2 == 0 ? core::QueryClassId::kUnarySeqScan
                                        : core::QueryClassId::kJoinNoIndex;
    request.features.assign(
        core::VariableSet::ForClass(request.class_id).size(), 0.0);
    for (size_t j = 0; j < 3; ++j) request.features[j] = rng.Uniform(1.0, 10.0);
    request.probing_cost = rng.Uniform(0.0, 4.0);
  }

  for (const std::vector<EstimateRequest>* requests : {&small, &largest}) {
    std::vector<EstimateResponse> responses;
    const RpcStatus status = client.EstimateBatch(*requests, &responses);
    ASSERT_TRUE(status.ok()) << status.message;
    ASSERT_EQ(responses.size(), requests->size());
    for (size_t i = 0; i < responses.size(); ++i) {
      const EstimateResponse& got = responses[i];
      const EstimateResponse want = served_->service().Estimate((*requests)[i]);
      ASSERT_EQ(got.status, EstimateStatus::kOk) << i;
      EXPECT_EQ(got.status, want.status) << i;
      EXPECT_EQ(std::bit_cast<uint64_t>(got.estimate_seconds),
                std::bit_cast<uint64_t>(want.estimate_seconds))
          << i;
      EXPECT_EQ(std::bit_cast<uint64_t>(got.probing_cost),
                std::bit_cast<uint64_t>(want.probing_cost))
          << i;
      EXPECT_EQ(got.state, want.state) << i;
      EXPECT_EQ(got.stale_probe, want.stale_probe) << i;
      EXPECT_EQ(got.stale_model, want.stale_model) << i;
      EXPECT_EQ(got.degraded, want.degraded) << i;
    }
  }
}

TEST_F(NetServerTest, PlacementOverLoopback) {
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", served_->port()));

  std::vector<PlacementCandidate> candidates(2);
  candidates[0].request = ValidRequest("site0");
  candidates[0].shipping_seconds = 100.0;  // make site1 the clear winner
  candidates[1].request = ValidRequest("site1");
  candidates[1].shipping_seconds = 0.0;
  PlacementResult result;
  const RpcStatus status = client.ChoosePlacement(candidates, &result);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_EQ(result.chosen, 1);
  ASSERT_EQ(result.responses.size(), 2u);
  ASSERT_EQ(result.total_seconds.size(), 2u);
  // The default-policy response still carries the served distributions.
  EXPECT_EQ(result.policy, core::PlacementPolicy::kPointEstimate);
  ASSERT_EQ(result.distributions.size(), 2u);
  ASSERT_EQ(result.scores.size(), 2u);
}

TEST_F(NetServerTest, PlacementWithRankingPolicyOverLoopback) {
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", served_->port()));

  std::vector<PlacementCandidate> candidates(2);
  candidates[0].request = ValidRequest("site0");
  candidates[0].shipping_seconds = 100.0;
  candidates[1].request = ValidRequest("site1");
  candidates[1].shipping_seconds = 0.0;

  runtime::PlacementOptions options;
  options.ranking.policy = core::PlacementPolicy::kRiskAdjusted;
  options.ranking.risk_lambda = 1.0;
  PlacementResult result;
  const RpcStatus status = client.ChoosePlacement(candidates, options, &result);
  ASSERT_TRUE(status.ok()) << status.message;
  // The shipping gap dwarfs any width penalty: site1 wins under every policy,
  // and the response echoes the requested policy with finite scores.
  EXPECT_EQ(result.chosen, 1);
  EXPECT_EQ(result.policy, core::PlacementPolicy::kRiskAdjusted);
  ASSERT_EQ(result.scores.size(), 2u);
  EXPECT_LT(result.scores[1], result.scores[0]);
  ASSERT_EQ(result.distributions.size(), 2u);
  EXPECT_GT(result.distributions[1].mean, 0.0);
}

TEST_F(NetServerTest, StatsOverLoopback) {
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", served_->port()));

  EstimateResponse resp;
  ASSERT_TRUE(client.Estimate(ValidRequest(), &resp).ok());

  WireStats stats;
  const RpcStatus status = client.Stats(&stats);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_GE(stats.counters.at("requests"), 1u);
  // The server merges its own wire counters into the same payload. The
  // names are a wire contract, spelled out rather than read from the table.
  EXPECT_GE(stats.counters.at("net.frames_received"), 1u);
  EXPECT_GE(stats.counters.at("net.responses_sent"), 1u);
  for (const char* key :
       {"net.connections_accepted", "net.connections_closed",
        "net.frames_received", "net.requests_dispatched",
        "net.requests_completed", "net.responses_sent",
        "net.error_frames_sent", "net.invalid_requests",
        "net.malformed_frames", "net.overload_shed", "net.shutdown_shed",
        "net.dropped_responses", "net.estimates", "net.batches",
        "net.batch_items", "net.placements", "net.stats_requests",
        "net.feedback_reports", "net.bytes_received", "net.bytes_sent",
        "net.connections_rejected", "net.unknown_type_frames",
        "net.internal_errors", "net.read_limit_closes",
        "net.write_limit_closes"}) {
    EXPECT_EQ(stats.counters.count(key), 1u) << key;
  }
}

TEST_F(NetServerTest, FeedbackOverLoopbackAdaptsTheServedModel) {
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", served_->port()));

  const EstimateRequest req = ValidRequest();
  EstimateResponse before;
  ASSERT_TRUE(client.Estimate(req, &before).ok());
  ASSERT_EQ(before.status, EstimateStatus::kOk);
  EXPECT_EQ(before.model_generation, 0u);  // base fit, never adapted

  // The environment now costs 3x what the served model believes. Close the
  // loop over the wire until the fast tier publishes an adapted row.
  const double truth = 3.0 * before.estimate_seconds;
  runtime::FeedbackReport report;
  report.site = req.site;
  report.class_id = req.class_id;
  report.features = req.features;
  report.actual_cost = truth;
  report.probing_cost = before.probing_cost;
  report.model_generation = before.model_generation;

  EstimateResponse after = before;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline &&
         after.model_generation == 0) {
    for (int i = 0; i < 16; ++i) {
      bool accepted = false;
      const RpcStatus status = client.ReportActual(report, &accepted);
      ASSERT_TRUE(status.ok()) << status.message;
      EXPECT_TRUE(accepted);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    ASSERT_TRUE(client.Estimate(req, &after).ok());
  }
  ASSERT_GE(after.model_generation, 1u) << "no adapted publish before deadline";
  // The adapted estimate moved toward the reported truth.
  EXPECT_LT(std::abs(after.estimate_seconds - truth),
            std::abs(before.estimate_seconds - truth));

  WireStats stats;
  ASSERT_TRUE(client.Stats(&stats).ok());
  EXPECT_GE(stats.counters.at("net.feedback_reports"), 16u);
  EXPECT_GE(stats.counters.at("adaptations_applied"), 1u);
}

TEST_F(NetServerTest, InvalidFeedbackGetsInvalidRequestErrorFrame) {
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", served_->port()));

  runtime::FeedbackReport report;
  report.site = "site0";
  report.class_id = core::QueryClassId::kUnarySeqScan;
  report.features = {1.0};
  report.actual_cost = 0.0;  // not a priceable observation
  bool accepted = true;
  const RpcStatus status = client.ReportActual(report, &accepted);
  EXPECT_EQ(status.code, RpcStatus::Code::kErrorFrame);
  EXPECT_EQ(status.wire_error, WireError::kInvalidRequest);

  // The connection survives a rejected report.
  EstimateResponse resp;
  EXPECT_TRUE(client.Estimate(ValidRequest(), &resp).ok());
}

TEST(NetServerFeedbackTest, NoHandlerAcksAcceptedFalse) {
  ServedRuntimeConfig config = TestConfig();
  config.adaptation = false;  // serving without an adaptation loop
  ServedRuntime served(config);
  std::string error;
  ASSERT_TRUE(served.Start(&error)) << error;

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", served.port()));
  runtime::FeedbackReport report;
  report.site = "site0";
  report.class_id = core::QueryClassId::kUnarySeqScan;
  report.features = {1.0, 2.0};
  report.actual_cost = 0.5;
  bool accepted = true;
  const RpcStatus status = client.ReportActual(report, &accepted);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_FALSE(accepted);  // decoded and counted, but nothing consumed it
  EXPECT_GE(served.server().Stats().feedback_reports, 1u);
}

// The slow tier end to end: feedback frames the fast tier cannot absorb (it
// never publishes here) stall the controller's error signal, the
// controller escalates to the refresh daemon, and the re-derived model is
// published and served over the wire.
TEST(NetServerFeedbackTest, StalledFeedbackRederivesOverTheWire) {
  ServedRuntimeConfig config = TestConfig();
  config.refresh = true;
  config.adaptation_config.min_updates_to_publish =
      std::numeric_limits<size_t>::max();
  config.adaptation_config.stall_window = 8;
  config.adaptation_config.stall_error_threshold = 0.5;
  config.adaptation_config.drain_interval = std::chrono::milliseconds(5);
  ServedRuntime served(config);
  std::string error;
  ASSERT_TRUE(served.Start(&error)) << error;

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", served.port()));
  const EstimateRequest req = ValidRequest();
  EstimateResponse before;
  ASSERT_TRUE(client.Estimate(req, &before).ok());
  ASSERT_EQ(before.status, EstimateStatus::kOk);
  WireStats stats_before;
  ASSERT_TRUE(client.Stats(&stats_before).ok());

  runtime::FeedbackReport report;
  report.site = req.site;
  report.class_id = req.class_id;
  report.features = req.features;
  report.actual_cost = 3.0 * before.estimate_seconds;
  report.probing_cost = before.probing_cost;
  report.model_generation = before.model_generation;

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline &&
         served.daemon()->Stats().refreshes_succeeded == 0) {
    for (int i = 0; i < 16; ++i) {
      bool accepted = false;
      const RpcStatus status = client.ReportActual(report, &accepted);
      ASSERT_TRUE(status.ok()) << status.message;
      EXPECT_TRUE(accepted);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_GE(served.adaptation()->Stats().escalations, 1u);
  ASSERT_GE(served.daemon()->Stats().refreshes_succeeded, 1u)
      << "no re-derivation before deadline: "
      << served.daemon()->Stats().ToString();
  EXPECT_EQ(served.adaptation()->Stats().adaptations_published, 0u);

  WireStats stats_after;
  ASSERT_TRUE(client.Stats(&stats_after).ok());
  EXPECT_GT(stats_after.counters.at("catalog_swaps"),
            stats_before.counters.at("catalog_swaps"));

  // The re-derived base fit serves: a new estimate, no longer flagged
  // stale.
  EstimateResponse after;
  do {
    ASSERT_TRUE(client.Estimate(req, &after).ok());
    if (after.status == EstimateStatus::kOk && !after.stale_model) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  } while (std::chrono::steady_clock::now() < deadline);
  ASSERT_EQ(after.status, EstimateStatus::kOk);
  EXPECT_FALSE(after.stale_model);
  EXPECT_EQ(after.model_generation, 0u);
  EXPECT_NE(after.estimate_seconds, before.estimate_seconds);

  // 200 more reports at the same 3x cost stall the re-derived model too,
  // inside the cooldown its refresh started: the daemon refuses those
  // escalations, and a refusal is not counted as one.
  for (int i = 0; i < 200; ++i) {
    bool accepted = false;
    const RpcStatus status = client.ReportActual(report, &accepted);
    ASSERT_TRUE(status.ok()) << status.message;
    EXPECT_TRUE(accepted);
  }
  served.adaptation()->Stop();  // joins the drain thread, drains the rest
  const runtime::AdaptationStats adaptation = served.adaptation()->Stats();
  EXPECT_EQ(adaptation.escalations,
            served.daemon()->Stats().refreshes_scheduled)
      << adaptation.ToString();
  EXPECT_GT(adaptation.escalations_refused, 0u) << adaptation.ToString();
}

TEST_F(NetServerTest, BatchResponsesCarryGenerationOverWire) {
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", served_->port()));
  std::vector<EstimateRequest> batch = {ValidRequest("site0"),
                                        ValidRequest("site1")};
  std::vector<EstimateResponse> responses;
  ASSERT_TRUE(client.EstimateBatch(batch, &responses).ok());
  ASSERT_EQ(responses.size(), 2u);
  for (const EstimateResponse& r : responses) {
    EXPECT_EQ(r.status, EstimateStatus::kOk);
    EXPECT_EQ(r.model_generation, 0u);  // base fit on both sites
  }
}

TEST_F(NetServerTest, PipelinedRequestsOnOneConnection) {
  // Several sequential RPCs on one socket: request-id echo keeps them
  // matched, and the connection survives all of them.
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", served_->port()));
  for (int i = 0; i < 32; ++i) {
    EstimateRequest req = ValidRequest(i % 2 == 0 ? "site0" : "site1");
    req.features[0] = 1.0 + (i % 7);
    EstimateResponse resp;
    ASSERT_TRUE(client.Estimate(req, &resp).ok()) << "iteration " << i;
    EXPECT_EQ(resp.status, EstimateStatus::kOk);
  }
}

TEST_F(NetServerTest, PipelinedFramesInOneSendAreAnsweredInOrder) {
  // 64 frames in one send, an unknown type in the middle: every frame is
  // answered, in order, under its own request id.
  RawConn conn(served_->port());
  ASSERT_TRUE(conn.connected());
  constexpr uint32_t kFrames = 64;
  constexpr uint32_t kUnknownAt = 31;
  std::vector<uint8_t> bytes;
  for (uint32_t i = 0; i < kFrames; ++i) {
    Append(bytes, i == kUnknownAt ? UnknownTypeFrame(100 + i)
                                  : EstimateFrame(100 + i));
  }
  ASSERT_TRUE(conn.SendAll(bytes));

  for (uint32_t i = 0; i < kFrames; ++i) {
    auto frame = conn.ReadFrame();
    ASSERT_TRUE(frame.has_value()) << "answer " << i;
    EXPECT_EQ(frame->request_id, 100 + i);
    if (i == kUnknownAt) {
      ASSERT_EQ(frame->type, static_cast<uint8_t>(MessageType::kError));
      auto body = DecodeErrorBodyPayload(frame->payload);
      ASSERT_TRUE(body.has_value());
      EXPECT_EQ(body->code, WireError::kUnknownType);
    } else {
      EXPECT_EQ(frame->type,
                static_cast<uint8_t>(MessageType::kEstimateResponse));
    }
  }
}

TEST_F(NetServerTest, ManyConcurrentConnections) {
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, &failures] {
      NetClient client;
      if (!client.Connect("127.0.0.1", served_->port())) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < 20; ++i) {
        EstimateResponse resp;
        if (!client.Estimate(ValidRequest(), &resp).ok() || !resp.ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---- Wire-boundary validation ----------------------------------------------

// Every frame the wire decoder accepts is answered with its own response
// type, short feature vectors included: an item carrying fewer features
// than its (site, class) model reads is answered kInvalidRequest, and the
// server keeps serving.
TEST_F(NetServerTest, EveryDecodableRequestIsAnswered) {
  RawConn conn(served_->port());
  ASSERT_TRUE(conn.connected());
  const auto catalog = served_->service().CatalogSnapshot();
  const std::string sites[] = {"site0", "site1", "ghost"};
  const double probing_costs[] = {-1.0, 0.5, 3.5};
  Rng rng(1017);
  const auto draw = [&] {
    EstimateRequest request;
    request.site = sites[rng.UniformInt(0, 2)];
    request.class_id = static_cast<core::QueryClassId>(rng.UniformInt(
        0, static_cast<int64_t>(core::QueryClassId::kJoinIndex)));
    request.features.resize(static_cast<size_t>(rng.UniformInt(0, 6)));
    for (double& f : request.features) f = rng.Uniform(0.0, 10.0);
    request.probing_cost = probing_costs[rng.UniformInt(0, 2)];
    return request;
  };
  int short_items = 0;
  const auto check = [&](const EstimateRequest& request,
                         const EstimateResponse& response) {
    const core::CompiledEquations* equations =
        catalog->FindCompiled(request.site, request.class_id);
    if (equations != nullptr &&
        request.features.size() < equations->min_features()) {
      ++short_items;
      EXPECT_EQ(response.status, EstimateStatus::kInvalidRequest);
    } else {
      EXPECT_NE(response.status, EstimateStatus::kInvalidRequest);
    }
  };
  // Sends one frame and returns its answer, which must echo `id` and carry
  // `type`.
  const auto exchange = [&conn](MessageType type, uint32_t id,
                                const std::vector<uint8_t>& payload,
                                MessageType answer_type) {
    EXPECT_TRUE(conn.SendAll(EncodeFrame(type, id, payload)));
    std::optional<Frame> answer = conn.ReadFrame();
    EXPECT_TRUE(answer.has_value()) << "no answer to frame " << id;
    if (!answer.has_value()) return std::vector<uint8_t>{};
    EXPECT_EQ(answer->type, static_cast<uint8_t>(answer_type)) << id;
    EXPECT_EQ(answer->request_id, id);
    return answer->payload;
  };

  for (uint32_t id = 1; id <= 90; ++id) {
    if (id % 3 == 1) {
      const EstimateRequest request = draw();
      WireWriter w;
      EncodeEstimateRequest(request, w);
      const auto response = DecodeEstimateResponsePayload(
          exchange(MessageType::kEstimateRequest, id, w.bytes(),
                   MessageType::kEstimateResponse));
      ASSERT_TRUE(response.has_value()) << id;
      check(request, *response);
    } else if (id % 3 == 2) {
      std::vector<EstimateRequest> requests;
      for (int i = 0; i < 8; ++i) requests.push_back(draw());
      const auto responses = DecodeEstimateBatchResponsePayload(
          exchange(MessageType::kEstimateBatchRequest, id,
                   EncodeEstimateBatchRequest(requests),
                   MessageType::kEstimateBatchResponse));
      ASSERT_TRUE(responses.has_value()) << id;
      ASSERT_EQ(responses->size(), requests.size()) << id;
      for (size_t i = 0; i < requests.size(); ++i) {
        check(requests[i], (*responses)[i]);
      }
    } else {
      std::vector<PlacementCandidate> candidates(3);
      for (PlacementCandidate& candidate : candidates) {
        candidate.request = draw();
        candidate.shipping_seconds = rng.Uniform(0.0, 5.0);
      }
      const auto result = DecodePlacementResponsePayload(
          exchange(MessageType::kPlacementRequest, id,
                   EncodePlacementRequest(candidates),
                   MessageType::kPlacementResponse));
      ASSERT_TRUE(result.has_value()) << id;
      ASSERT_EQ(result->responses.size(), candidates.size()) << id;
      for (size_t i = 0; i < candidates.size(); ++i) {
        check(candidates[i].request, result->responses[i]);
      }
    }
  }
  EXPECT_GT(short_items, 0);

  // Still serving: a valid estimate comes back priced.
  WireWriter w;
  EncodeEstimateRequest(ValidRequest(), w);
  const auto last = DecodeEstimateResponsePayload(
      exchange(MessageType::kEstimateRequest, 1000, w.bytes(),
               MessageType::kEstimateResponse));
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->status, EstimateStatus::kOk);
}

TEST_F(NetServerTest, UnknownSiteIsANormalNoModelResponse) {
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", served_->port()));

  EstimateResponse resp;
  const RpcStatus status = client.Estimate(ValidRequest("no-such-site"), &resp);
  ASSERT_TRUE(status.ok()) << status.message;  // not an error frame
  EXPECT_EQ(resp.status, EstimateStatus::kNoModel);
}

TEST_F(NetServerTest, NanFeatureGetsInvalidRequestErrorFrame) {
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", served_->port()));

  EstimateRequest req = ValidRequest();
  req.features[0] = std::numeric_limits<double>::quiet_NaN();
  EstimateResponse resp;
  const RpcStatus status = client.Estimate(req, &resp);
  EXPECT_EQ(status.code, RpcStatus::Code::kErrorFrame);
  EXPECT_EQ(status.wire_error, WireError::kInvalidRequest);

  // The connection stays usable after a semantic reject.
  EstimateResponse ok_resp;
  EXPECT_TRUE(client.Estimate(ValidRequest(), &ok_resp).ok());
}

TEST_F(NetServerTest, EmptyBatchGetsInvalidRequestErrorFrame) {
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", served_->port()));

  // The client encodes the empty batch; the server's boundary rejects it.
  Frame frame;
  const RpcStatus status = client.RoundTrip(MessageType::kEstimateBatchRequest,
                                            EncodeEstimateBatchRequest({}),
                                            &frame);
  ASSERT_TRUE(status.ok()) << status.message;
  ASSERT_EQ(frame.type, static_cast<uint8_t>(MessageType::kError));
  auto body = DecodeErrorBodyPayload(frame.payload);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->code, WireError::kInvalidRequest);
}

TEST_F(NetServerTest, TruncatedPayloadGetsInvalidOrMalformedNeverCrash) {
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", served_->port()));

  WireWriter w;
  EncodeEstimateRequest(ValidRequest(), w);
  std::vector<uint8_t> payload = w.bytes();
  payload.resize(payload.size() / 2);  // frame is valid; payload is not

  Frame frame;
  const RpcStatus status =
      client.RoundTrip(MessageType::kEstimateRequest, payload, &frame);
  ASSERT_TRUE(status.ok()) << status.message;
  ASSERT_EQ(frame.type, static_cast<uint8_t>(MessageType::kError));
  auto body = DecodeErrorBodyPayload(frame.payload);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->code, WireError::kMalformedFrame);

  // The frame itself was intact, so the stream is not poisoned: the same
  // connection stays open and answers the next request.
  runtime::EstimateResponse response;
  const RpcStatus next = client.Estimate(ValidRequest(), &response);
  ASSERT_TRUE(next.ok()) << next.message;
  EXPECT_TRUE(response.ok());
}

TEST_F(NetServerTest, UnknownMessageTypeIsAnsweredAndKeptOpen) {
  RawConn conn(served_->port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.SendAll(UnknownTypeFrame(31)));

  auto frame = conn.ReadFrame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, static_cast<uint8_t>(MessageType::kError));
  EXPECT_EQ(frame->request_id, 31u);
  auto body = DecodeErrorBodyPayload(frame->payload);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->code, WireError::kUnknownType);

  // Unknown type is not poisonous — a valid request on the same socket works.
  ASSERT_TRUE(conn.SendAll(EstimateFrame(32)));
  auto ok_frame = conn.ReadFrame();
  ASSERT_TRUE(ok_frame.has_value());
  EXPECT_EQ(ok_frame->type,
            static_cast<uint8_t>(MessageType::kEstimateResponse));

  // ...and the stats protocol reports the unknown frame.
  ASSERT_TRUE(conn.SendAll(EncodeFrame(MessageType::kStatsRequest, 33, {})));
  auto stats_frame = conn.ReadFrame();
  ASSERT_TRUE(stats_frame.has_value());
  ASSERT_EQ(stats_frame->type,
            static_cast<uint8_t>(MessageType::kStatsResponse));
  auto stats = DecodeStatsPayload(stats_frame->payload);
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(stats->counters.at("net.unknown_type_frames"), 1u);
}

TEST_F(NetServerTest, GarbageBytesGetMalformedFrameThenClose) {
  RawConn conn(served_->port());
  ASSERT_TRUE(conn.connected());

  std::vector<uint8_t> garbage(64);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<uint8_t>(0xC7 ^ i);
  }
  ASSERT_TRUE(conn.SendAll(garbage));

  bool eof = false;
  auto frame = conn.ReadFrame(&eof);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, static_cast<uint8_t>(MessageType::kError));
  auto body = DecodeErrorBodyPayload(frame->payload);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->code, WireError::kMalformedFrame);
  EXPECT_TRUE(conn.WaitForClose());

  EXPECT_GE(served_->server().Stats().malformed_frames, 1u);
}

TEST_F(NetServerTest, WrongVersionGetsUnsupportedVersionThenClose) {
  RawConn conn(served_->port());
  ASSERT_TRUE(conn.connected());

  std::vector<uint8_t> bytes = EncodeFrame(MessageType::kStatsRequest, 5, {});
  bytes[2] = kProtocolVersion + 3;
  ASSERT_TRUE(conn.SendAll(bytes));

  auto frame = conn.ReadFrame();
  ASSERT_TRUE(frame.has_value());
  auto body = DecodeErrorBodyPayload(frame->payload);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->code, WireError::kUnsupportedVersion);
  EXPECT_TRUE(conn.WaitForClose());
}

TEST_F(NetServerTest, HostilePayloadLengthClosesWithoutBuffering) {
  RawConn conn(served_->port());
  ASSERT_TRUE(conn.connected());

  WireWriter header;
  header.PutU16(kMagic);
  header.PutU8(kProtocolVersion);
  header.PutU8(static_cast<uint8_t>(MessageType::kEstimateRequest));
  header.PutU32(1);
  header.PutU32(0xFFFFFFFFu);  // 4GB payload promise
  ASSERT_TRUE(conn.SendAll(header.bytes()));

  auto frame = conn.ReadFrame();
  ASSERT_TRUE(frame.has_value());
  auto body = DecodeErrorBodyPayload(frame->payload);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->code, WireError::kMalformedFrame);
  EXPECT_TRUE(conn.WaitForClose());
}

// ---- Admission control ------------------------------------------------------

TEST(NetServerAdmissionTest, ZeroInflightShedsEverythingButStaysUp) {
  ServedRuntimeConfig config = TestConfig();
  config.server.max_inflight = 0;  // shed every request
  ServedRuntime served(config);
  std::string error;
  ASSERT_TRUE(served.Start(&error)) << error;

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", served.port()));
  for (int i = 0; i < 5; ++i) {
    EstimateResponse resp;
    const RpcStatus status = client.Estimate(ValidRequest(), &resp);
    EXPECT_EQ(status.code, RpcStatus::Code::kErrorFrame) << i;
    EXPECT_TRUE(status.overloaded()) << i;
  }
  // The server is shedding, not dying: still running, still accepting.
  EXPECT_TRUE(served.server().running());
  NetClient second;
  EXPECT_TRUE(second.Connect("127.0.0.1", served.port()));
  EXPECT_GE(served.server().Stats().overload_shed, 5u);
  EXPECT_EQ(served.server().Stats().requests_dispatched, 0u);
}

TEST(NetServerAdmissionTest, PipelinedBurstPastTheBoundIsShedInPlace) {
  ServedRuntimeConfig config = TestConfig();
  config.server.max_inflight = 4;
  ServedRuntime served(config);
  std::string error;
  ASSERT_TRUE(served.Start(&error)) << error;

  RawConn conn(served.port());
  ASSERT_TRUE(conn.connected());
  constexpr uint32_t kFrames = 64;
  std::vector<uint8_t> bytes;
  for (uint32_t i = 0; i < kFrames; ++i) Append(bytes, EstimateFrame(100 + i));
  ASSERT_TRUE(conn.SendAll(bytes));

  // Every slot holds its own answer or a kOverloaded for its request id.
  uint64_t answered = 0;
  uint64_t shed = 0;
  for (uint32_t i = 0; i < kFrames; ++i) {
    auto frame = conn.ReadFrame();
    ASSERT_TRUE(frame.has_value()) << "answer " << i;
    EXPECT_EQ(frame->request_id, 100 + i);
    if (frame->type == static_cast<uint8_t>(MessageType::kEstimateResponse)) {
      ++answered;
      continue;
    }
    ASSERT_EQ(frame->type, static_cast<uint8_t>(MessageType::kError)) << i;
    auto body = DecodeErrorBodyPayload(frame->payload);
    ASSERT_TRUE(body.has_value());
    EXPECT_EQ(body->code, WireError::kOverloaded) << i;
    ++shed;
  }
  EXPECT_GE(answered, 1u);
  EXPECT_GE(shed, 1u);
  EXPECT_GE(served.server().Stats().overload_shed, shed);

  // The shed burst did not poison the connection.
  ASSERT_TRUE(conn.SendAll(EstimateFrame(500)));
  auto next = conn.ReadFrame();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->request_id, 500u);
  EXPECT_EQ(next->type, static_cast<uint8_t>(MessageType::kEstimateResponse));
}

TEST(NetServerAdmissionTest, WriteLimitDisconnectsPeersThatNeverRead) {
  constexpr size_t kWriteLimit = 64 * 1024;
  ServedRuntimeConfig config = TestConfig();
  config.server.max_write_buffer = kWriteLimit;
  ServedRuntime served(config);
  std::string error;
  ASSERT_TRUE(served.Start(&error)) << error;

  // Stats requests are 12 bytes each and answered with kilobytes.
  std::vector<uint8_t> burst;
  for (uint32_t i = 0; i < 256; ++i) {
    Append(burst, EncodeFrame(MessageType::kStatsRequest, i, {}));
  }

  // A peer that reads keeps its connection, even when one burst's answers
  // add up to more than the limit.
  RawConn reader(served.port());
  ASSERT_TRUE(reader.connected());
  ASSERT_TRUE(reader.SendAll(burst));
  size_t answer_bytes = 0;
  for (uint32_t i = 0; i < 256; ++i) {
    auto frame = reader.ReadFrame();
    ASSERT_TRUE(frame.has_value()) << "answer " << i;
    EXPECT_EQ(frame->request_id, i);
    EXPECT_EQ(frame->type, static_cast<uint8_t>(MessageType::kStatsResponse));
    answer_bytes += kHeaderSize + frame->payload.size();
  }
  EXPECT_GT(answer_bytes, kWriteLimit);
  EXPECT_EQ(served.server().Stats().write_limit_closes, 0u);

  // A peer that never reads: its answers back up past the socket into the
  // server's write buffer until the limit cuts it off.
  RawConn hog(served.port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(hog.connected());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (served.server().Stats().write_limit_closes == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    if (!hog.SendAll(burst)) break;  // the server hung up mid-send
  }
  EXPECT_GE(served.server().Stats().write_limit_closes, 1u);
  EXPECT_TRUE(hog.WaitForClose());

  // Cutting one peer off leaves the server answering everyone else, and an
  // operator polling the stats protocol sees the cut.
  NetClient other;
  ASSERT_TRUE(other.Connect("127.0.0.1", served.port()));
  EstimateResponse resp;
  ASSERT_TRUE(other.Estimate(ValidRequest(), &resp).ok());
  EXPECT_EQ(resp.status, EstimateStatus::kOk);
  EXPECT_TRUE(served.server().running());
  WireStats stats;
  ASSERT_TRUE(other.Stats(&stats).ok());
  EXPECT_GE(stats.counters.at("net.write_limit_closes"), 1u);
}

TEST(NetServerAdmissionTest, ConnectionCapRejectsExtraSockets) {
  ServedRuntimeConfig config = TestConfig();
  config.server.max_connections = 2;
  ServedRuntime served(config);
  std::string error;
  ASSERT_TRUE(served.Start(&error)) << error;

  NetClient a, b;
  ASSERT_TRUE(a.Connect("127.0.0.1", served.port()));
  ASSERT_TRUE(b.Connect("127.0.0.1", served.port()));
  EstimateResponse resp;
  ASSERT_TRUE(a.Estimate(ValidRequest(), &resp).ok());
  ASSERT_TRUE(b.Estimate(ValidRequest(), &resp).ok());

  // The third connection is accepted at the TCP level then closed by the
  // server; the first RPC on it fails rather than hanging.
  NetClient c;
  if (c.Connect("127.0.0.1", served.port())) {
    EstimateResponse r;
    EXPECT_FALSE(c.Estimate(ValidRequest(), &r).ok());
    // The server counted the rejection before it hung up; ask through a
    // connection it kept.
    WireStats stats;
    ASSERT_TRUE(a.Stats(&stats).ok());
    EXPECT_GE(stats.counters.at("net.connections_rejected"), 1u);
  }
  // The first two stay healthy.
  EXPECT_TRUE(a.Estimate(ValidRequest(), &resp).ok());
}

TEST(NetServerAdmissionTest, ReadLimitDisconnectsGarbageStreamers) {
  ServedRuntimeConfig config = TestConfig();
  config.server.max_read_buffer = 4096;
  ServedRuntime served(config);
  std::string error;
  ASSERT_TRUE(served.Start(&error)) << error;

  RawConn conn(served.port());
  ASSERT_TRUE(conn.connected());
  // A single giant unfinished frame: valid header promising near-cap
  // payload, then bytes that never complete it past the read limit.
  WireWriter header;
  header.PutU16(kMagic);
  header.PutU8(kProtocolVersion);
  header.PutU8(static_cast<uint8_t>(MessageType::kEstimateRequest));
  header.PutU32(1);
  header.PutU32(512 * 1024);
  std::vector<uint8_t> bytes = header.bytes();
  bytes.resize(64 * 1024, 0x55);
  (void)conn.SendAll(bytes);  // may fail partway once the server closes us
  EXPECT_TRUE(conn.WaitForClose());
  EXPECT_GE(served.server().Stats().read_limit_closes, 1u);
  EXPECT_TRUE(served.server().running());

  NetClient operator_conn;
  ASSERT_TRUE(operator_conn.Connect("127.0.0.1", served.port()));
  WireStats stats;
  ASSERT_TRUE(operator_conn.Stats(&stats).ok());
  EXPECT_GE(stats.counters.at("net.read_limit_closes"), 1u);
}

}  // namespace
}  // namespace mscm::net
