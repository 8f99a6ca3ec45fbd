// Bounded-time smoke tests for the load generator against a live loopback
// server: both driving disciplines complete work, latency percentiles are
// sane, overload shows up as kOverloaded sheds (with the server staying up),
// and a dead port yields transport errors rather than a hang.

#include <chrono>
#include <string>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net/loadgen.h"
#include "net/served_runtime.h"

namespace mscm::net {
namespace {

ServedRuntimeConfig TestConfig() {
  ServedRuntimeConfig config;
  config.sites = 2;
  config.refresh = false;
  config.probe_interval = std::chrono::milliseconds(0);
  return config;
}

LoadGenConfig BaseLoad(uint16_t port) {
  LoadGenConfig load;
  load.host = "127.0.0.1";
  load.port = port;
  load.connections = 2;
  load.duration = std::chrono::milliseconds(300);
  load.workload = MakeUniformWorkload(/*n_requests=*/64, /*n_sites=*/2,
                                      /*seed=*/11);
  return load;
}

TEST(NetLoadGenTest, WorkloadMatchesServedFederation) {
  const auto workload = MakeUniformWorkload(32, 2, 7);
  ASSERT_EQ(workload.size(), 32u);
  for (const auto& req : workload) {
    EXPECT_TRUE(req.site == "site0" || req.site == "site1") << req.site;
    EXPECT_FALSE(req.features.empty());
  }
}

TEST(NetLoadGenTest, ClosedLoopCompletesWork) {
  ServedRuntime served(TestConfig());
  std::string error;
  ASSERT_TRUE(served.Start(&error)) << error;

  LoadGenConfig load = BaseLoad(served.port());
  load.mode = LoadGenConfig::Mode::kClosed;
  const LoadGenResult result = RunLoadGen(load);

  EXPECT_GT(result.completed, 0u);
  EXPECT_EQ(result.items, result.completed);  // batch_size 1
  EXPECT_EQ(result.transport_errors, 0u);
  EXPECT_EQ(result.error_frames, 0u);
  EXPECT_GT(result.qps, 0.0);
  EXPECT_GT(result.p50_us, 0.0);
  EXPECT_LE(result.p50_us, result.p99_us);
  EXPECT_LE(result.p99_us, result.max_us);
}

TEST(NetLoadGenTest, ClosedLoopBatchedCountsItems) {
  ServedRuntime served(TestConfig());
  std::string error;
  ASSERT_TRUE(served.Start(&error)) << error;

  LoadGenConfig load = BaseLoad(served.port());
  load.batch_size = 8;
  const LoadGenResult result = RunLoadGen(load);

  EXPECT_GT(result.completed, 0u);
  EXPECT_EQ(result.items, result.completed * 8);
  EXPECT_GT(result.items_per_sec, result.qps);
}

TEST(NetLoadGenTest, FeedbackTrafficClosesTheAdaptationLoop) {
  ServedRuntime served(TestConfig());  // adaptation on by default
  std::string error;
  ASSERT_TRUE(served.Start(&error)) << error;

  LoadGenConfig load = BaseLoad(served.port());
  load.duration = std::chrono::milliseconds(500);
  load.feedback = true;
  load.feedback_noise = 0.02;
  load.feedback_drift = 0.5;  // truth inflates ~25% over the run
  const LoadGenResult result = RunLoadGen(load);

  EXPECT_GT(result.completed, 0u);
  EXPECT_EQ(result.transport_errors, 0u);
  EXPECT_EQ(result.error_frames, 0u);
  // Every completed estimate produced a report, and the served controller
  // consumed them (ring overflow would show as rejected).
  EXPECT_EQ(result.feedback_accepted + result.feedback_rejected,
            result.completed);
  EXPECT_GT(result.feedback_accepted, 0u);
  EXPECT_GE(served.server().Stats().feedback_reports,
            result.feedback_accepted + result.feedback_rejected);
  const runtime::AdaptationStats stats = served.adaptation()->Stats();
  EXPECT_EQ(stats.accepted, result.feedback_accepted);
  EXPECT_GT(stats.updates_applied, 0u);
}

TEST(NetLoadGenTest, PlacementTrafficChoosesSites) {
  ServedRuntime served(TestConfig());
  std::string error;
  ASSERT_TRUE(served.Start(&error)) << error;

  LoadGenConfig load = BaseLoad(served.port());
  load.placement_candidates = 3;
  load.placement_policy = core::PlacementPolicy::kExpectedCost;
  const LoadGenResult result = RunLoadGen(load);

  EXPECT_GT(result.completed, 0u);
  EXPECT_EQ(result.items, result.completed * 3);  // candidates per frame
  EXPECT_EQ(result.error_frames, 0u);
  EXPECT_EQ(result.transport_errors, 0u);
  // Every frame prices registered sites with valid probes: a site must be
  // chosen on each completed placement.
  EXPECT_EQ(result.placements_chosen, result.completed);
}

TEST(NetLoadGenTest, OpenLoopHoldsASchedule) {
  ServedRuntime served(TestConfig());
  std::string error;
  ASSERT_TRUE(served.Start(&error)) << error;

  LoadGenConfig load = BaseLoad(served.port());
  load.mode = LoadGenConfig::Mode::kOpen;
  load.target_rate = 400.0;  // well under loopback capacity
  load.duration = std::chrono::milliseconds(500);
  const LoadGenResult result = RunLoadGen(load);

  EXPECT_GT(result.completed, 0u);
  EXPECT_EQ(result.transport_errors, 0u);
  // At 400/s for 0.5s the schedule carries ~200 sends; an unsaturated
  // loopback generator should land most of them (loose bound — CI jitter).
  EXPECT_GE(result.completed, 50u);
}

TEST(NetLoadGenTest, OverloadShedsAreVisibleAndServerSurvives) {
  ServedRuntimeConfig config = TestConfig();
  config.server.max_inflight = 0;  // force the kOverloaded path
  ServedRuntime served(config);
  std::string error;
  ASSERT_TRUE(served.Start(&error)) << error;

  LoadGenConfig load = BaseLoad(served.port());
  const LoadGenResult result = RunLoadGen(load);

  EXPECT_EQ(result.completed, 0u);
  EXPECT_GT(result.overloaded, 0u);
  EXPECT_GE(served.server().Stats().overload_shed, result.overloaded);

  // Recovery: the server is shedding, not broken — it still accepts and
  // still answers the (unadmitted-path) connection handshake, and a fresh
  // client sees a typed kOverloaded, not a dead socket.
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", served.port()));
  runtime::EstimateResponse resp;
  const RpcStatus status = client.Estimate(load.workload.front(), &resp);
  EXPECT_TRUE(status.overloaded());
  EXPECT_TRUE(served.server().running());
}

TEST(NetLoadGenTest, DeadPortYieldsTransportErrorsNotAHang) {
  // Grab an ephemeral port, then shut the server down so nothing listens.
  ServedRuntime served(TestConfig());
  std::string error;
  ASSERT_TRUE(served.Start(&error)) << error;
  const uint16_t dead_port = served.port();
  served.Shutdown();

  LoadGenConfig load = BaseLoad(dead_port);
  load.duration = std::chrono::milliseconds(200);
  const auto start = std::chrono::steady_clock::now();
  const LoadGenResult result = RunLoadGen(load);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));
  EXPECT_EQ(result.completed, 0u);
  EXPECT_GT(result.transport_errors, 0u);
}

}  // namespace
}  // namespace mscm::net
